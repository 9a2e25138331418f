"""Spans and call counters around the library's public calls.

The traced run replaces module attributes with wrappers for the
duration of a pass, so the library itself is unchanged: `monitor`
looks up `parse_trace_line`, `encode_event` and `match_prefix` in its
own namespace, `hl` looks up `eval_guard` and `match_prefix`, `cli`
looks up `parse_property`, `compile_property` and `dumps`, and
`translate.emptiness` looks up `hl_to_topl`, `topl_to_ra` and
`ra_emptiness`; the emptiness workload calls `automaton_from_json`,
`emptiness` and `dumps` through their modules.  Spans are (name, start,
end, parent index, op) and stay in memory until the run writes them
out.  One tracer covers one pass.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op]
        self._stack: list = []
        self.op = 0
        self.calls = defaultdict(int)
        self.hits = defaultdict(int)
        self.sizes = defaultdict(int)
        self.law_breaks: list = []
        self._patched: list = []

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn, hits: bool = False):
        calls, hit_counts = self.calls, self.hits

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[name] += 1
            if hits and result:
                hit_counts[name] += 1
            return result

        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- installation --------------------------------------------------------

    def install_check(self) -> None:
        from topl import cli, hl, monitor

        for name in ("parse_trace_line", "encode_event"):
            self.patch(monitor, name, self.span(f"monitor.{name}", getattr(monitor, name)))
        for name in ("feed_letter", "finish"):
            self.patch(monitor.Monitor, name, self.span(f"monitor.{name}", getattr(monitor.Monitor, name)))
        for name in ("parse_property", "compile_property"):
            self.patch(cli, name, self.span(f"properties.{name}", getattr(cli, name)))
        self.patch(cli, "dumps", self.span("serialize.dumps", cli.dumps))
        self.patch(monitor, "match_prefix", self.counter("hl.match_prefix", monitor.match_prefix, hits=True))
        self.patch(hl, "eval_guard", self.counter("core.eval_guard", hl.eval_guard))

    def install_emptiness(self) -> None:
        from topl import hl, serialize, translate

        hl_to_topl, topl_to_ra = translate.hl_to_topl, translate.topl_to_ra
        sizes, breaks = self.sizes, self.law_breaks

        def sized_hl_to_topl(a):
            low = hl_to_topl(a)
            d = max((len(t.labels) for t in a.transitions), default=1)
            sizes["hl_to_topl.states"] += len(low.states)
            sizes["hl_to_topl.transitions"] += len(low.transitions)
            if low.registers != a.registers + (d - 1) * a.arity:
                breaks.append(f"op {self.op}: hl_to_topl gave {low.registers} registers, "
                              f"m+(d-1)n = {a.registers + (d - 1) * a.arity}")
            return low

        def sized_topl_to_ra(low):
            ra = topl_to_ra(low)
            sizes["topl_to_ra.states"] += len(ra.states)
            sizes["topl_to_ra.transitions"] += len(ra.transitions)
            if ra.registers != 2 * low.registers + 1:
                breaks.append(f"op {self.op}: topl_to_ra gave {ra.registers} registers, "
                              f"2m'+1 = {2 * low.registers + 1}")
            return ra

        self.patch(translate, "hl_to_topl", self.span("translate.hl_to_topl", sized_hl_to_topl))
        self.patch(translate, "topl_to_ra", self.span("translate.topl_to_ra", sized_topl_to_ra))
        self.patch(translate, "ra_emptiness", self.span("translate.ra_emptiness", translate.ra_emptiness))
        self.patch(translate, "emptiness", self.span("translate.emptiness", translate.emptiness))
        self.patch(serialize, "automaton_from_json",
                   self.span("serialize.automaton_from_json", serialize.automaton_from_json))
        self.patch(serialize, "dumps", self.span("serialize.dumps", serialize.dumps))
        self.patch(hl, "match_prefix", self.counter("hl.match_prefix", hl.match_prefix, hits=True))
        self.patch(hl, "eval_guard", self.counter("core.eval_guard", hl.eval_guard))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Total and self seconds per span name.  Self time is a span's
        duration minus the durations of its direct children."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_t = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_t[name] += end - start - child.get(i, 0.0)
        return {name: (total[name], self_t[name]) for name in total}

    def write(self, fh, pass_no: int) -> None:
        for name, start, end, parent, op in self.spans:
            fh.write(json.dumps({"pass": pass_no, "name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
