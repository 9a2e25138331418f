"""Event encoding, online monitoring, bounding, trace ingestion."""

import io
import json
import random

import pytest

import topl.monitor
from helpers import UNIVERSE, ReferenceMonitor, ab_example, random_hl, replay_path
from topl.cli import main
from topl.core import BOTTOM, Atom, EventId, StructureError
from topl.hl import hl_accepts
from topl.monitor import (
    Event,
    Monitor,
    MonitorOptions,
    TraceError,
    Verdict,
    encode_event,
    parse_trace_line,
    run_trace,
)
from topl.properties import EventSchema, compile_property, parse_property

TAINT = """\
property Taint
  prefix <javax.servlet.http.HttpServletRequest>
  prefix <java.lang.String>
  prefix <java.sql.Statement>
  start -> start:       *
  start -> tracking:    X := *.getParameter[*]
  tracking -> tracking: *
  tracking -> tracking: X := x.concat(*)
  tracking -> tracking: X := *.concat(x)
  tracking -> error:    *.executeQuery(x)
"""

UNSAFE_ITERATOR = """\
property UnsafeIterator
  start -> start: *
  start -> mid:   call C.iterator[*]
  mid   -> one:   ret X := *.iterator
  one   -> one:   *
  one   -> two:   Y := c.iterator()
  two   -> xBad:  y.remove()
  two   -> yBad:  x.remove()
  xBad  -> error: call x.*[*]
  yBad  -> error: call y.*[*]
"""

HAS_NEXT = """\
property HasNext
  start -> start:  *
  start -> unsafe: X := *.iterator[*]
  unsafe -> error: x.next[*]
  unsafe -> safe:  x.hasNext[*]
  safe -> unsafe:  x.next[*]
"""


REOPEN = """\
property Reopen
  start -> start: *
  start -> open:  X := *.open[*]
  open -> error:  x.close()
"""

REOPEN_TRACE = "".join(json.dumps(e) + "\n" for e in (
    {"kind": "call", "method": "open", "values": ["fs"]},
    {"kind": "ret", "method": "open", "value": "h"},
    {"kind": "call", "method": "open", "values": ["fs"]},
    {"kind": "ret", "method": "open", "value": "h"},
    {"kind": "call", "method": "read", "values": ["h"]},
    {"kind": "call", "method": "close", "values": ["h"]},
))


def _schema5() -> EventSchema:
    return EventSchema(arity=5, variables=())


class TestEncodeEvent:
    def test_call_with_padding(self):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        got = encode_event(Event("call", "m", (a, b, c)), _schema5())
        assert got == (EventId("call", "m"), BOTTOM, a, b, c, BOTTOM, BOTTOM)

    def test_ret_pads_value_slots(self):
        r = Atom("r")
        got = encode_event(Event("ret", "m", (r,)), _schema5())
        assert got == (EventId("ret", "m"), r, BOTTOM, BOTTOM, BOTTOM, BOTTOM, BOTTOM)

    def test_zero_arity(self):
        got = encode_event(Event("call", "m", ()), EventSchema(arity=0, variables=()))
        assert got == (EventId("call", "m"), BOTTOM)

    def test_void_return(self):
        got = encode_event(Event("ret", "m", ()), EventSchema(arity=0, variables=()))
        assert got == (EventId("ret", "m"), BOTTOM)

    def test_arity_overflow_is_a_hard_error(self):
        with pytest.raises(StructureError):
            encode_event(Event("call", "m", (Atom("a"), Atom("b"))), EventSchema(arity=1, variables=()))


def _taint():
    return compile_property(parse_property(TAINT))


def _feed_all(aut, schema, events, options=MonitorOptions()):
    mon = Monitor(aut, schema, options)
    got = []
    for e in events:
        got += mon.feed(e)
    got += mon.finish()
    return mon, got


TAINT_TRACE = (
    Event("call", "javax.servlet.http.HttpServletRequest.getParameter", (Atom("req"), Atom("p"))),
    Event("ret", "javax.servlet.http.HttpServletRequest.getParameter", (Atom("v1"),)),
    Event("call", "java.sql.Statement.executeQuery", (Atom("stmt"), Atom("v1"))),
)


class TestMonitorFeed:
    def test_taint_verdict_at_event_three(self):
        aut, schema = _taint()
        _, verdicts = _feed_all(aut, schema, TAINT_TRACE)
        assert [v.matched_at for v in verdicts] == [3]

    def test_iterator_scenario(self):
        aut, schema = compile_property(parse_property(UNSAFE_ITERATOR))
        c, x, y = Atom("c"), Atom("x"), Atom("y")
        violating = (
            Event("call", "iterator", (c,)),
            Event("ret", "iterator", (x,)),
            Event("call", "iterator", (c,)),
            Event("ret", "iterator", (y,)),
            Event("call", "remove", (y,)),
            Event("ret", "remove", ()),
            Event("call", "next", (x,)),
        )
        _, verdicts = _feed_all(aut, schema, violating)
        assert [v.matched_at for v in verdicts] == [7]
        compliant = violating[:4] + (
            Event("call", "remove", (x,)),
            Event("ret", "remove", ()),
            Event("call", "next", (x,)),
        )
        _, verdicts = _feed_all(aut, schema, compliant)
        assert verdicts == []

    def test_empty_trace_no_verdicts(self):
        aut, schema = _taint()
        mon, verdicts = _feed_all(aut, schema, ())
        assert verdicts == []


class TestMonitorFinish:
    def test_ab_bab_nothing_completes_at_trace_end(self):
        # The prefix BA is in the language (its first A is unguarded), so
        # event 2 is reported eagerly; the full word BAB is not, so
        # finishing adds nothing.
        ab = ab_example()
        mon = Monitor(ab)
        for name in "BAB":
            mon.feed_letter((Atom(name),))
        assert mon.finish() == []
        assert [v.matched_at for v in mon.verdicts] == [2]

    def test_ab_single_a_accepted_at_one(self):
        ab = ab_example()
        mon = Monitor(ab)
        got = mon.feed_letter((Atom("A"),))
        got += mon.finish()
        assert [v.matched_at for v in got] == [1]

    def test_finish_on_empty_buffer_is_quiet(self):
        ab = ab_example()
        mon = Monitor(ab)
        assert mon.finish() == []
        assert mon.finish() == []


class TestRunTrace:
    def _lines(self, events):
        out = []
        for e in events:
            if e.kind == "call":
                out.append(json.dumps({
                    "kind": "call", "method": e.method,
                    "values": [v.name for v in e.values],
                }))
            else:
                v = e.values[0] if e.values else BOTTOM
                out.append(json.dumps({
                    "kind": "ret", "method": e.method,
                    "value": None if v is BOTTOM else v.name,
                }))
        return out

    def test_taint_report(self):
        aut, schema = _taint()
        report = run_trace(aut, schema, self._lines(TAINT_TRACE))
        assert [v.matched_at for v in report.verdicts] == [3]
        assert report.events == 3
        assert report.peak_active >= 2
        assert report.dropped == 0

    def test_hasnext_compliant_trace_is_clean(self):
        aut, schema = compile_property(parse_property(HAS_NEXT))
        i1 = Atom("it1")
        events = (
            Event("call", "iterator", (Atom("coll"),)),
            Event("ret", "iterator", (i1,)),
            Event("call", "hasNext", (i1,)),
            Event("ret", "hasNext", (Atom("true"),)),
            Event("call", "next", (i1,)),
            Event("ret", "next", (Atom("e1"),)),
            Event("call", "hasNext", (i1,)),
            Event("ret", "hasNext", (Atom("true"),)),
            Event("call", "next", (i1,)),
        )
        report = run_trace(aut, schema, self._lines(events))
        assert report.verdicts == ()

    def test_hasnext_violation(self):
        aut, schema = compile_property(parse_property(HAS_NEXT))
        i1 = Atom("it1")
        events = (
            Event("call", "iterator", (Atom("coll"),)),
            Event("ret", "iterator", (i1,)),
            Event("call", "next", (i1,)),
            Event("ret", "next", (Atom("e1"),)),
            Event("call", "next", (i1,)),
        )
        report = run_trace(aut, schema, self._lines(events))
        # the error state is absorbing, so every index from the first
        # violation onwards is a real violation of some prefix
        assert [v.matched_at for v in report.verdicts] == [3, 4, 5]

    def test_bounded_run_drops_and_misses(self):
        aut, schema = _taint()
        # two tainted bindings; only the second flows into the sink
        events = (
            Event("call", "getParameter", (Atom("req"), Atom("p"))),
            Event("ret", "getParameter", (Atom("v1"),)),
            Event("call", "getParameter", (Atom("req"), Atom("q"))),
            Event("ret", "getParameter", (Atom("v2"),)),
            Event("call", "executeQuery", (Atom("stmt"), Atom("v2"))),
        )
        tight = run_trace(aut, schema, self._lines(events), MonitorOptions(max_configs=1))
        assert tight.verdicts == ()
        assert tight.dropped > 0
        assert tight.peak_active <= 1
        roomy = run_trace(aut, schema, self._lines(events), MonitorOptions(max_configs=3))
        assert [v.matched_at for v in roomy.verdicts] == [5]

    def test_strict_and_lenient_trace_errors(self):
        aut, schema = _taint()
        lines = ['{"kind":"call","method":"m","values":[]}', "not json"]
        with pytest.raises(TraceError) as err:
            run_trace(aut, schema, lines, strict=True)
        assert "line 2" in str(err.value)
        report = run_trace(aut, schema, lines, strict=False)
        assert report.events == 1
        assert any("line 2" in w for w in report.warnings)

    def test_stop_at_first(self):
        aut, schema = compile_property(parse_property(HAS_NEXT))
        i1 = Atom("it1")
        events = (
            Event("call", "iterator", (Atom("coll"),)),
            Event("ret", "iterator", (i1,)),
            Event("call", "next", (i1,)),
            Event("ret", "next", (Atom("e1"),)),
            Event("call", "next", (i1,)),
        )
        report = run_trace(aut, schema, self._lines(events), MonitorOptions(stop_at_first=True))
        assert [v.matched_at for v in report.verdicts] == [3]


class TestAgreementAndBounding:
    def test_online_offline_agreement(self):
        for seed in range(80):
            a = random_hl(seed, max_arity=1)
            rng = random.Random(seed + 424242)
            trace = tuple((rng.choice(UNIVERSE),) for _ in range(rng.randint(0, 10)))
            mon = Monitor(a)
            for letter in trace:
                mon.feed_letter(letter)
            mon.finish()
            got = sorted(v.matched_at for v in mon.verdicts)
            want = [k for k in range(len(trace) + 1) if hl_accepts(a, trace[:k])]
            assert got == want, (seed, got, want)

    def test_bounded_verdicts_are_a_subset(self):
        for seed in range(50):
            a = random_hl(seed, max_arity=1)
            rng = random.Random(seed + 99)
            trace = tuple((rng.choice(UNIVERSE),) for _ in range(rng.randint(0, 10)))

            def verdict_set(options):
                mon = Monitor(a, options=options)
                for letter in trace:
                    mon.feed_letter(letter)
                mon.finish()
                return {v.matched_at for v in mon.verdicts}, mon

            base, _ = verdict_set(MonitorOptions())
            previous = None
            for cap in (1, 3, 10):
                got, mon = verdict_set(MonitorOptions(max_configs=cap))
                assert got <= base, (seed, cap)
                assert mon.peak_active <= cap
                if previous is not None:
                    assert previous <= got, (seed, cap)
                previous = got

    def test_paths_replay(self):
        for seed in range(40):
            a = random_hl(seed, max_arity=1)
            rng = random.Random(seed + 7)
            trace = tuple((rng.choice(UNIVERSE),) for _ in range(rng.randint(0, 10)))
            mon = Monitor(a, options=MonitorOptions(record_paths=True))
            for letter in trace:
                mon.feed_letter(letter)
            mon.finish()
            for v in mon.verdicts:
                assert v.path is not None
                assert replay_path(a, trace[: v.matched_at], v.path), (seed, v)

    def test_taint_path_replays(self):
        aut, schema = _taint()
        mon = Monitor(aut, schema, MonitorOptions(record_paths=True))
        letters = []
        for e in TAINT_TRACE:
            letters.append(encode_event(e, schema))
            mon.feed(e)
        mon.finish()
        (v,) = mon.verdicts
        assert replay_path(aut, letters, v.path)

    def test_pinned_path_through_a_bucket_merge(self, tmp_path, capsys):
        # Two configurations reach `open` with the same store: one opened
        # at events 1-2 and skipped events 3-4, the other idled at `start`
        # and opened at events 3-4.  Committing position 3 moves the first
        # onto the second's bucket at position 4; the merge keeps the one
        # already there, which skips event 5 and closes at event 6.
        prop = tmp_path / "reopen.topl"
        prop.write_text(REOPEN)
        trace = tmp_path / "reopen.jsonl"
        trace.write_text(REOPEN_TRACE)
        aut, schema = compile_property(parse_property(REOPEN))
        with open(trace) as fh:
            report = run_trace(aut, schema, fh, MonitorOptions(record_paths=True))
        (v,) = report.verdicts
        assert v == Verdict(6, (("step", 0, 0, 1), ("step", 0, 1, 2), ("step", 1, 2, 4),
                                ("skip", 4), ("step", 2, 5, 6)))
        assert report.peak_active == 3
        assert main(["check", "--property", str(prop), "--trace", str(trace), "--report-path"]) == 3
        assert capsys.readouterr().out == (
            "violation at event 6\n"
            "  path: transition 0 events 1..1; transition 0 events 2..2; transition 1 events 3..4; "
            "skip event 5; transition 2 events 6..6\n"
            "events: 6, peak active: 3, dropped: 0\n"
        )


def _run(monitor, letters):
    for letter in letters:
        monitor.feed_letter(letter)
    monitor.finish()
    return [v.matched_at for v in monitor.verdicts]


def _random_case(seed):
    a = random_hl(seed, max_arity=2, max_label_len=3)
    rng = random.Random(seed + 31337)
    trace = tuple(tuple(rng.choice(UNIVERSE) for _ in range(a.arity)) for _ in range(rng.randint(0, 12)))
    return a, trace


def _taint_letters(schema, sources, chains, noise_pairs, sink):
    """A Taint trace: `sources` getParameter results, `chains` concats that
    each extend a tainted value, untainted queries and noise between them,
    and an executeQuery of `sink` at the end."""
    A = Atom
    rng = random.Random(sources * 1000 + chains)
    events = []
    tainted = []

    def pair(method, values, result):
        events.append(Event("call", method, values))
        events.append(Event("ret", method, (result,)))

    for i in range(sources):
        pair("getParameter", (A("req"), A(f"p{i}")), A(f"t{i}"))
        tainted.append(A(f"t{i}"))
    for i in range(chains):
        base = rng.choice(tainted)
        args = (base, A(f"s{i}")) if i % 2 else (A(f"s{i}"), base)
        pair("concat", args, A(f"c{i}"))
        tainted.append(A(f"c{i}"))
    for i in range(noise_pairs):
        pair("com.example.Worker.run", (A("w"), A(f"n{i}")), A(f"r{i}"))
        pair("executeQuery", (A("stmt"), A(f"u{i}")), A(f"rs{i}"))
    events.append(Event("call", "executeQuery", (A("stmt"), sink(tainted))))
    return [encode_event(e, schema) for e in events]


class TestDifferential:
    """The indexed monitor against the frozen `ReferenceMonitor` oracle."""

    def test_random_automata_unbounded(self):
        for seed in range(1000):
            a, trace = _random_case(seed)
            want = ReferenceMonitor(a)
            got_verdicts = None
            for paths in (False, True):
                mon = Monitor(a, options=MonitorOptions(record_paths=paths))
                got = _run(mon, trace)
                if got_verdicts is None:
                    got_verdicts = got
                    assert got == _run(want, trace), seed
                assert got == got_verdicts, seed
                assert mon.peak_active == want.peak_active, seed
                for v in mon.verdicts:
                    assert (v.path is not None) == paths
                    if paths:
                        assert replay_path(a, trace[: v.matched_at], v.path), (seed, v)

    def test_random_automata_bounded(self):
        for seed in range(1000):
            a, trace = _random_case(seed)
            base = set(_run(Monitor(a), trace))
            for cap in (1, 3, 10):
                mon = Monitor(a, options=MonitorOptions(max_configs=cap))
                assert set(_run(mon, trace)) <= base, (seed, cap)
                assert mon.peak_active <= cap, (seed, cap)

    def test_taint_with_hundreds_of_bindings(self):
        aut, schema = _taint()
        letters = _taint_letters(schema, sources=150, chains=100, noise_pairs=50, sink=lambda t: t[-1])
        want = ReferenceMonitor(aut)
        expected = _run(want, letters)
        assert expected == [len(letters)]
        mon = Monitor(aut, schema)
        assert _run(mon, letters) == expected
        assert mon.peak_active == want.peak_active
        traced = Monitor(aut, schema, MonitorOptions(record_paths=True))
        assert _run(traced, letters) == expected
        (v,) = traced.verdicts
        assert replay_path(aut, letters, v.path)


class TestQuietStretches:
    """A few bindings, thousands of events that step no configuration,
    then a sink: the quiet events advance the layers without stepping
    them, against the frozen `ReferenceMonitor`."""

    def _letters(self, aut, schema):
        letters = _taint_letters(schema, sources=3, chains=2, noise_pairs=750, sink=lambda t: t[-1])
        assert len(letters) == 3011
        return letters

    def test_unbounded(self):
        aut, schema = _taint()
        letters = self._letters(aut, schema)
        want = ReferenceMonitor(aut)
        expected = _run(want, letters)
        assert expected == [len(letters)]
        mon = Monitor(aut, schema)
        assert _run(mon, letters) == expected
        assert mon.peak_active == want.peak_active == 6
        assert mon.dropped == 0

    def test_bounded(self):
        aut, schema = _taint()
        letters = self._letters(aut, schema)
        base = set(_run(Monitor(aut, schema), letters))
        # `dropped` as the monitor counted it before quiet events moved
        # whole layers
        for cap, dropped in ((1, 3), (3, 2)):
            mon = Monitor(aut, schema, MonitorOptions(max_configs=cap))
            assert set(_run(mon, letters)) <= base, cap
            assert mon.peak_active <= cap
            assert mon.dropped == dropped, cap

    def test_paths_and_stop_at_first(self):
        aut, schema = _taint()
        letters = self._letters(aut, schema)
        want = ReferenceMonitor(aut, MonitorOptions(record_paths=True, stop_at_first=True))
        expected = _run(want, letters)
        mon = Monitor(aut, schema, MonitorOptions(record_paths=True, stop_at_first=True))
        assert _run(mon, letters) == expected == [len(letters)]
        assert mon.peak_active == want.peak_active
        (v,) = mon.verdicts
        assert replay_path(aut, letters, v.path)
        # the path the monitor reported before quiet events moved whole
        # layers: identity steps around the four transitions it fired
        fired = [step for step in v.path if step[1] not in (0, 2)]
        assert fired == [("step", 1, 0, 2), ("step", 4, 6, 8), ("step", 3, 8, 10), ("step", 5, 3010, 3011)]
        assert len(v.path) == len(letters) - 3


class TestScaling:
    def test_noise_cost_does_not_grow_with_bindings(self, monkeypatch):
        calls = [0]
        real = topl.monitor.match_prefix

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(topl.monitor, "match_prefix", counted)
        aut, schema = _taint()
        noise = _taint_letters(schema, sources=0, chains=0, noise_pairs=250, sink=lambda t: Atom("clean"))
        noise = noise[:-1]  # 1,000 events, no sink call
        assert len(noise) == 1000
        suffix_calls = []
        for sources in (30, 300):
            mon = Monitor(aut, schema)
            for letter in _taint_letters(schema, sources, 0, 0, sink=lambda t: Atom("clean"))[:-1]:
                mon.feed_letter(letter)
            assert mon.peak_active == sources + 1
            before = calls[0]
            for letter in noise:
                mon.feed_letter(letter)
            suffix_calls.append(calls[0] - before)
            assert mon.verdicts == ()
        assert suffix_calls[0] == suffix_calls[1]


class TestMonitorState:
    def test_finished_after_finish_or_first_verdict(self):
        aut, schema = compile_property(parse_property(HAS_NEXT))
        mon = Monitor(aut, schema)
        assert not mon.finished
        mon.finish()
        assert mon.finished
        mon = Monitor(aut, schema, MonitorOptions(stop_at_first=True))
        i1 = Atom("it1")
        for e in (Event("call", "iterator", (Atom("coll"),)), Event("ret", "iterator", (i1,)),
                  Event("call", "next", (i1,))):
            mon.feed(e)
        assert mon.finished
        assert [v.matched_at for v in mon.verdicts] == [3]

    def test_check_stops_at_first_accepting_configuration(self):
        # an absorbing error state reports each index once, paths or not
        aut, schema = compile_property(parse_property(HAS_NEXT))
        i1 = Atom("it1")
        events = (
            Event("call", "iterator", (Atom("coll"),)),
            Event("ret", "iterator", (i1,)),
            Event("call", "next", (i1,)),
            Event("ret", "next", (Atom("e1"),)),
        )
        for paths in (False, True):
            mon, verdicts = _feed_all(aut, schema, events, MonitorOptions(record_paths=paths))
            assert [v.matched_at for v in verdicts] == [3, 4]


class TestTraceParsing:
    def test_call_and_ret_lines(self):
        e = parse_trace_line('{"kind":"call","method":"m","values":["a", null]}', 1)
        assert e == Event("call", "m", (Atom("a"), BOTTOM))
        e = parse_trace_line('{"kind":"ret","method":"m","value":"rs1"}', 2)
        assert e == Event("ret", "m", (Atom("rs1"),))
        e = parse_trace_line('{"kind":"ret","method":"m","value":null}', 3)
        assert e == Event("ret", "m", (BOTTOM,))

    def test_bad_lines(self):
        with pytest.raises(TraceError):
            parse_trace_line("[]", 4)
        with pytest.raises(TraceError):
            parse_trace_line('{"kind":"jump","method":"m"}', 5)
        with pytest.raises(TraceError):
            parse_trace_line('{"kind":"call","method":"m","values":[3]}', 6)
