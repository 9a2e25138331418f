"""Online trace monitoring against a compiled high-level automaton.

The monitor keeps the set of configurations reachable over the events
seen so far, organised by how many letters each has consumed.  Because
choosing between a transition and a skip can depend on up to d upcoming
letters (d = longest transition label), commitment is delayed until a
full window of d letters is visible; acceptance at each event index is
decided eagerly on a scratch view, so verdicts carry the exact event
index at which the property was violated.

A reported violation is always a real one.  Bounding the number of
active configurations can only lose violations, never invent them.
"""

from __future__ import annotations

import json
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable, Optional

from .core import (
    BOTTOM, Atom, Eq, EventId, Letter, MethodMatch, StructureError, conjuncts, eval_guard,
    require_valid,
)
from .hl import HlAutomaton, match_prefix
from .properties import EventSchema


class TraceError(ValueError):
    """Malformed trace line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"trace line {line}: {message}")
        self.line = line


class Event(namedtuple("Event", "kind method values")):
    """One observed call or return: kind "call" or "ret", method name and
    a tuple of values.  For calls, `values` holds the receiver followed by
    the arguments (static calls may supply a placeholder receiver).  For
    returns, it holds the single return value, the dummy value if void.
    """

    __slots__ = ()

    def __new__(cls, kind: str, method: str, values: tuple):
        if kind not in ("call", "ret"):
            raise ValueError(f"event kind must be 'call' or 'ret', got {kind!r}")
        if any(map(isinstance, values, repeat(EventId))):
            raise ValueError("event values cannot contain event ids")
        return tuple.__new__(cls, (kind, method, values))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too


def encode_event(e: Event, schema: EventSchema) -> Letter:
    """Fixed-width letter for `e`: event id, return slot, padded values.

    Call values beyond the schema arity are a hard error; silently
    truncating could hide the very value a property tracks.
    """
    kind, method, values = e
    n = schema.arity
    if kind == "call":
        if len(values) > n:
            raise StructureError(f"event {method} carries {len(values)} values but the schema allows {n}")
        return (EventId("call", method), BOTTOM) + values + (BOTTOM,) * (n - len(values))
    if len(values) > 1:
        raise StructureError(f"return event {method} carries {len(values)} values")
    return (EventId("ret", method), values[0] if values else BOTTOM) + (BOTTOM,) * n


@dataclass(frozen=True)
class MonitorOptions:
    max_configs: Optional[int] = None  # None = unbounded
    record_paths: bool = False
    stop_at_first: bool = False

    def __post_init__(self) -> None:
        if self.max_configs is not None and self.max_configs < 1:
            raise ValueError("max_configs must be >= 1 when finite")


@dataclass(frozen=True)
class Verdict:
    """A detected violation: the property automaton accepted the first
    `matched_at` events (0 means the empty trace)."""

    matched_at: int
    path: Optional[tuple] = None  # steps ("step", transition idx, from, to) | ("skip", at)


@dataclass(frozen=True)
class Report:
    verdicts: tuple
    events: int
    peak_active: int
    dropped: int
    warnings: tuple = ()


class _StateTable:
    """What one state's outgoing transitions need from an event.

    `read` picks the letter values that the first-step `MethodMatch`
    atoms of the outgoing transitions look at (for a compiled property,
    the event id); the entry for a letter depends on nothing else, so
    `entries` caches it by those values.  An entry is (identity,
    candidates): the index of the first identity transition that can
    fire (one letter, a self-loop, a NOP action and only `MethodMatch`
    atoms in its guard), or None; and the other transitions whose first
    step can hold, as tuples (labels, length, index, target, lookup
    position).

    `index` is the register slot (0-based) every candidate compares in
    its first step with an `Eq` atom, or None; the lookup position is
    the letter position that atom compares it with.  Configurations at
    an indexed state are grouped by the value of that register, and an
    event only steps the groups keyed by the values it carries.
    """

    __slots__ = ("read", "index", "outgoing", "entries")

    def __init__(self, transitions: list):
        # (index, transition) of the state's outgoing transitions, in order
        outgoing = []
        shared = None  # registers every non-identity transition compares with Eq
        for idx, t in transitions:
            atoms = conjuncts(t.labels[0][0])
            methods = tuple(a for a in atoms if isinstance(a, MethodMatch))
            identity = (len(t.labels) == 1 and t.target == t.source and not t.labels[0][1]
                        and len(methods) == len(atoms))
            eqs = [(a.reg - 1, a.pos - 1) for a in atoms if isinstance(a, Eq)]
            if not identity:
                regs = {r for r, _ in eqs}
                shared = regs if shared is None else shared & regs
            outgoing.append((idx, t, methods, identity, eqs))
        self.index = min(shared) if shared else None
        positions = sorted({m.pos - 1 for _, _, methods, _, _ in outgoing for m in methods})
        self.read = itemgetter(*positions) if positions else _nothing
        self.outgoing = tuple(
            (idx, t, methods, identity,
             None if self.index is None else next((j for r, j in eqs if r == self.index), None))
            for idx, t, methods, identity, eqs in outgoing
        )
        self.entries: dict = {}

    def entry(self, letter: Letter) -> tuple:
        key = self.read(letter)
        found = self.entries.get(key)
        if found is None:
            identity = None
            candidates = []
            for idx, t, methods, is_identity, j in self.outgoing:
                if not all(eval_guard(m, (), letter) for m in methods):
                    continue
                if not is_identity:
                    candidates.append((t.labels, len(t.labels), idx, t.target, j))
                elif identity is None:
                    identity = idx
            found = self.entries[key] = (identity, tuple(candidates))
        return found


def _nothing(letter) -> None:
    return None


class Monitor:
    """Single-owner online monitor; feed one event at a time.

    `_layers[i]` holds the configurations that have consumed `_front + i`
    letters as {state: {index value: {store: path}}}, where the index
    value is the store's value in the state's index register (None at
    states without one).  Positions are relative to the moving base
    `_front`, below which no configuration is held.

    Each event runs one walk (`_advance`) up to the horizon k, the number
    of letters fed.  The front layer commits once its full window of d
    letters is visible: only the groups an event can move through a
    transition other than an identity one are stepped one by one, every
    other group advances one position as a whole dict.  Acceptance of the
    first k letters is then decided on a scratch view.  The front is
    planned once over its full window, for its commit.  An event is quiet
    when no bucket has a hot group: it rebuilds no layer, and a lone front
    layer advances by moving the base.  A path is a chain of (parent,
    (transition idx, start, end)) cells, one per fired transition.
    """

    def __init__(self, automaton: HlAutomaton, schema: Optional[EventSchema] = None,
                 options: MonitorOptions = MonitorOptions()):
        require_valid(automaton)
        self.automaton = automaton
        self.schema = schema
        self.options = options
        self.d = automaton.max_label_length
        self._paths = options.record_paths
        leaving: dict = {q: [] for q in automaton.states}
        for idx, t in enumerate(automaton.transitions):
            leaving[t.source].append((idx, t))
        self._tables = {q: _StateTable(out) for q, out in leaving.items()}
        # letters still needed for decisions: the stream from position
        # `_base` on; older letters are discarded as the front commits,
        # unless paths are recorded
        self._letters: list = []
        self._base = 0
        self._front = 0
        self._layers: list = []
        # (front position, `_plan_front`'s answer for it)
        self._front_plans: tuple = (-1, None)
        self._active = 0  # configurations held over all layers
        self._place(0, automaton.initial, automaton.store, () if self._paths else None, False)
        self.peak_active = 1
        self.dropped = 0
        self._reported = -1  # last verdict index emitted
        self._finished = False
        self._verdicts: list = []
        # The empty prefix may already violate the property.
        self._emit(self._advance())

    # -- internals ---------------------------------------------------------

    def _plan(self, p: int, q: str, bucket: dict, done: tuple, horizon: int) -> tuple:
        """How the state-q configurations in `bucket` at position p move
        on the letters up to `horizon`: (identity, candidates, hot).
        `hot` lists the index values of the groups in `bucket`, outside
        `done`, that must be stepped one by one; all other groups advance
        to p+1 unchanged, by the identity transition or else by a skip."""
        letter = self._letters[p - self._base]
        table = self._tables[q]
        identity, candidates = table.entries.get(table.read(letter)) or table.entry(letter)
        if p + self.d > horizon:
            candidates = tuple(c for c in candidates if p + c[1] <= horizon)
        if not candidates:
            return identity, candidates, ()
        keys = bucket if table.index is None else dict.fromkeys([letter[c[4]] for c in candidates])
        return identity, candidates, tuple([v for v in keys if v in bucket and v not in done])

    def _plan_front(self) -> Optional[dict]:
        """The plans of the front layer's buckets over its full window,
        for its commit: {state: plan}, or None when no group is hot.  They
        are made once per front position; only the commit changes them."""
        p = self._front
        if self._front_plans[0] != p:
            plans = {q: self._plan(p, q, bucket, (), p + self.d) for q, bucket in self._layers[0].items()}
            self._front_plans = (p, plans if any(map(itemgetter(2), plans.values())) else None)
        return self._front_plans[1]

    def _step(self, p: int, store, path, identity, candidates) -> tuple:
        """(successors, stays) of one configuration at position p: the
        configurations (position, state, store, path) it reaches through
        the candidate transitions, and whether it also stays at its state
        for position p+1, by the identity transition or, when no
        transition fires, by a skip."""
        out = []
        window = self._letters
        base = self._base
        for labels, length, idx, target, _ in candidates:
            prefix = tuple(window[p - base:p + length - base])
            store2 = match_prefix(store, labels, prefix)
            if store2 is not None:
                cell = None if path is None else (path, (idx, p, p + length))
                out.append((p + length, target, store2, cell))
        return out, identity is not None or not out

    def _layer(self, pos: int) -> dict:
        """The held layer at `pos`, added empty when missing."""
        layers = self._layers
        i = pos - self._front
        while len(layers) <= i:
            layers.append({})
        return layers[i]

    def _place(self, pos: int, q: str, store, path, held: bool) -> None:
        """Add one configuration at `pos`.  A `held` one already owns a
        slot under --max-configs; a new one is dropped when none is free."""
        r = self._tables[q].index
        v = None if r is None else store[r]
        layer = self._layer(pos)
        bucket = layer.get(q)
        group = None if bucket is None else bucket.get(v)
        if group is not None and store in group:
            if held:
                self._active -= 1
            return  # keep the path already recorded
        if not held:
            cap = self.options.max_configs
            if cap is not None and self._active >= cap:
                self.dropped += 1
                return
            self._active += 1
        if group is None:
            if bucket is None:
                bucket = layer[q] = {}
            group = bucket[v] = {}
        group[store] = path

    def _move(self, pos: int, q: str, bucket: dict) -> None:
        """Advance a whole bucket of state-q groups to `pos`, unchanged.
        Its configurations keep their slots; a bucket already there is
        merged, the smaller into the larger."""
        layer = self._layer(pos)
        held = layer.get(q)
        if held is None:
            layer[q] = bucket
            return
        if len(held) < len(bucket):
            layer[q] = bucket
            held, bucket = bucket, held
        for v, group in bucket.items():
            other = held.get(v)
            if other is None:
                held[v] = group
                continue
            if len(other) < len(group):
                held[v] = group
                other, group = group, other
            before = len(other) + len(group)
            for s, path in group.items():
                other.setdefault(s, path)
            self._active -= before - len(other)

    def _commit(self) -> None:
        """Step the front layer, whose full decision window (d letters of
        lookahead) is visible, and move the base past it."""
        p = self._front
        layers = self._layers
        plans = self._plan_front()
        if plans is not None or len(layers) > 1:  # else the layer advances as a whole
            for q, bucket in layers[0].items():
                identity, candidates, hot = plans[q] if plans else (None, (), ())
                groups = [bucket.pop(v) for v in hot]
                if bucket:
                    self._move(p + 1, q, bucket)
                for group in groups:
                    for store, path in group.items():
                        out, stays = self._step(p, store, path, identity, candidates)
                        if stays:
                            self._place(p + 1, q, store, path, True)
                        else:
                            self._active -= 1
                        for pos2, q2, store2, path2 in out:
                            self._place(pos2, q2, store2, path2, False)
            del layers[0]
        self._front = p + 1
        if self._active > self.peak_active:
            self.peak_active = self._active

    def _advance(self) -> Optional[tuple]:
        """The walk of one event, up to the horizon k = letters fed: commit
        the front while its full window is visible, then decide acceptance
        of the first k letters, with end-of-input semantics over the
        buffered ones, on a scratch view that reads the held layers and
        never changes them: (k, path) of the first accepting configuration
        found, or None."""
        k = self._base + len(self._letters)
        while self._front <= k - self.d:
            self._commit()
        front = self._front
        if not self._paths and front > self._base:
            del self._letters[: front - self._base]
            self._base = front
        final = self.automaton.final
        layers = self._layers
        if k - front < len(layers):
            for q, bucket in layers[k - front].items():
                if q in final:
                    return k, self._any_path(bucket, ())
        if front + 1 == k and self._plan_front() is None:  # quiet: all idle to k
            for q, bucket in layers[0].items():
                if q in final:
                    return k, self._any_path(bucket, ())
            return None
        carried: dict = {}  # position -> [(state, bucket, index values already stepped)]
        scratch: dict = {}  # (position, state) -> bucket found by this check
        for p in range(front, k):
            held = layers[p - front] if p - front < len(layers) else {}
            for q, bucket, done in chain(zip(held, held.values(), repeat(())), carried.pop(p, ())):
                identity, candidates, hot = self._plan(p, q, bucket, done, k)
                if len(bucket) > len(done) + len(hot):
                    done += hot
                    if p + 1 < k:
                        carried.setdefault(p + 1, []).append((q, bucket, done))
                    elif q in final:
                        return k, self._any_path(bucket, done)
                for v in hot:
                    for store, path in bucket[v].items():
                        out, stays = self._step(p, store, path, identity, candidates)
                        if stays:
                            out.append((p + 1, q, store, path))
                        for pos2, q2, store2, path2 in out:
                            if pos2 == k:
                                if q2 in final:
                                    return k, path2
                                continue
                            fresh = scratch.get((pos2, q2))
                            if fresh is None:
                                fresh = scratch[pos2, q2] = {}
                                carried.setdefault(pos2, []).append((q2, fresh, ()))
                            r = self._tables[q2].index
                            fresh.setdefault(None if r is None else store2[r], {}).setdefault(store2, path2)
        return None

    @staticmethod
    def _any_path(bucket: dict, skip: tuple):
        """The path of some configuration in `bucket` outside the groups
        `skip`."""
        for v, group in bucket.items():
            if v not in skip:
                return next(iter(group.values()))

    def _flatten(self, cell, k: int) -> tuple:
        """The steps of a path that ends at position k, from its cells of
        fired transitions.  Before, between and after those, the
        configuration stays at its state one letter at a time: by the
        state's identity transition for that letter, or else by a skip,
        as `_plan` moves it."""
        fired = []
        while cell:
            cell, step = cell
            fired.append(step)
        fired.reverse()
        fired.append((None, k, k))  # the stay after the last one, up to k
        steps = []
        q, pos = self.automaton.initial, 0
        for idx, start, end in fired:
            table = self._tables[q]
            for p in range(pos, start):
                identity = table.entry(self._letters[p])[0]
                steps.append(("skip", p) if identity is None else ("step", identity, p, p + 1))
            if idx is not None:
                steps.append(("step", idx, start, end))
                q, pos = self.automaton.transitions[idx].target, end
        return tuple(steps)

    def _emit(self, found: Optional[tuple]) -> list:
        if found is None or found[0] <= self._reported:
            return []
        k, path = found
        self._reported = k
        v = Verdict(k, self._flatten(path, k) if self._paths else None)
        self._verdicts.append(v)
        if self.options.stop_at_first:
            self._finished = True
        return [v]

    # -- public API ----------------------------------------------------------

    def feed(self, e: Event) -> list:
        """Consume one event; returns the verdicts detected at its index."""
        if self.schema is None:
            raise StructureError("monitor was built without an event schema; use feed_letter")
        return self.feed_letter(encode_event(e, self.schema))

    def feed_letter(self, letter: Letter) -> list:
        if self._finished:
            return []
        if len(letter) != self.automaton.arity:
            raise StructureError(f"letter has arity {len(letter)}, automaton expects {self.automaton.arity}")
        self._letters.append(letter)
        return self._emit(self._advance())

    def finish(self) -> list:
        """End of trace: report anything not already reported eagerly."""
        if self._finished:
            return []
        self._finished = True
        return self._emit(self._advance())

    @property
    def finished(self) -> bool:
        """True once `finish` ran or `stop_at_first` saw its verdict."""
        return self._finished

    @property
    def verdicts(self) -> tuple:
        return tuple(self._verdicts)


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

_raw_decode = json.JSONDecoder().raw_decode


def _json_value(text: str):
    """`json.loads(text)`, minus its whitespace scans when `text` is one
    JSON value alone; any other text, errors included, is json.loads'."""
    try:
        obj, end = _raw_decode(text)
        if end == len(text):
            return obj
    except json.JSONDecodeError:
        pass
    return json.loads(text)


def parse_trace_line(text: str, line: int) -> Event:
    """The event on one trace line.  Undecodable bytes of a trace file
    read with the "surrogateescape" error handler arrive as lone
    surrogates, so a line holding them is not UTF-8 text."""
    try:
        if not text.isascii():
            text.encode()
        obj = _json_value(text)
    except UnicodeEncodeError:
        raise TraceError("not valid UTF-8", line) from None
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid JSON ({exc.msg})", line) from None
    except (RecursionError, ValueError) as exc:  # the decoder's nesting and digit limits
        raise TraceError(f"invalid JSON ({exc})", line) from None
    if not isinstance(obj, dict):
        raise TraceError("each line must be a JSON object", line)
    kind = obj.get("kind")
    method = obj.get("method")
    if kind not in ("call", "ret"):
        raise TraceError(f"kind must be 'call' or 'ret', got {kind!r}", line)
    if not isinstance(method, str):
        raise TraceError("method must be a string", line)
    if kind == "call":
        raw = obj.get("values", [])
        if not isinstance(raw, list):
            raise TraceError("values must be a list", line)
    else:
        raw = (obj.get("value"),)
    for v in raw:
        if v is not None and not isinstance(v, str):
            raise TraceError(f"values must be strings or null, got {v!r}", line)
    return Event(kind, method, tuple([BOTTOM if v is None else Atom(v) for v in raw]))


def run_trace(automaton: HlAutomaton, schema: Optional[EventSchema], lines: Iterable,
              options: MonitorOptions = MonitorOptions(), strict: bool = True) -> Report:
    """Stream a JSON-lines trace through a monitor and collect a report."""
    monitor = Monitor(automaton, schema, options)
    warnings = []
    events = 0
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            event = parse_trace_line(text, lineno)
        except TraceError as exc:
            if strict:
                raise
            warnings.append(str(exc))
            continue
        events += 1
        monitor.feed(event)
        if monitor.finished:
            break
    monitor.finish()
    return Report(verdicts=monitor.verdicts, events=events, peak_active=monitor.peak_active,
                  dropped=monitor.dropped, warnings=tuple(warnings))
