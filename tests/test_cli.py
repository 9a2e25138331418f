"""Command-line interface: subcommands, exit codes, output formats."""

import contextlib
import hashlib
import io
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TAINT,
    ReferenceMonitor,
    ab_example,
    automaton_text,
    mutated_text,
    taint_events,
    three_letter_automaton,
)
from topl import cli, serialize
from topl.cli import main
from topl.core import coreachable
from topl.hl import HlAutomaton
from topl.monitor import TraceError, encode_event, parse_trace_line
from topl.properties import compile_property, parse_property
from topl.serialize import (
    automaton_from_json,
    automaton_to_json,
    bundle_from_json,
    bundle_to_json,
    dumps,
    word_to_json,
)
from topl.translate import topl_to_hl

TAINT_TRACE = "\n".join(
    [
        '{"kind":"call","method":"javax.servlet.http.HttpServletRequest.getParameter","values":["req","p"]}',
        '{"kind":"ret","method":"javax.servlet.http.HttpServletRequest.getParameter","value":"v1"}',
        '{"kind":"call","method":"java.sql.Statement.executeQuery","values":["stmt","v1"]}',
    ]
) + "\n"


@pytest.fixture
def taint_files(tmp_path):
    prop = tmp_path / "taint.topl"
    prop.write_text(TAINT)
    trace = tmp_path / "t.jsonl"
    trace.write_text(TAINT_TRACE)
    return prop, trace


def test_compile_writes_bundle(taint_files, tmp_path, capsys):
    prop, _ = taint_files
    out = tmp_path / "taint.json"
    assert main(["compile", str(prop), "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"automaton", "events"}
    assert obj["events"] == {"arity": 2, "width": 4, "variables": {"x": 1}}
    assert obj["automaton"]["registers"] == 1  # event ids take no register


def test_check_property_finds_violation(taint_files, capsys):
    prop, trace = taint_files
    code = main(["check", "--property", str(prop), "--trace", str(trace), "--report-path"])
    out = capsys.readouterr().out
    assert code == 3
    assert "violation at event 3" in out
    assert "path:" in out


def test_check_compiled_bundle_json_format(taint_files, tmp_path, capsys):
    prop, trace = taint_files
    bundle = tmp_path / "taint.json"
    main(["compile", str(prop), "-o", str(bundle)])
    capsys.readouterr()
    code = main(["check", "--automaton", str(bundle), "--trace", str(trace), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert [v["event"] for v in payload["verdicts"]] == [3]
    assert payload["stats"]["events"] == 3


def test_bundle_of_the_previous_layout_still_loads(taint_files, tmp_path, capsys):
    """Bundles of the previous layout preload one register per event id
    the property names and list them under `events.constants`.  They
    check a trace exactly as the current bundle does."""
    prop, trace = taint_files
    new = tmp_path / "new.json"
    main(["compile", str(prop), "-o", str(new)])
    obj = json.loads(new.read_text())
    event_ids = [{"event": {"kind": kind, "method": method}} for kind, method in (
        ("call", "getParameter"), ("ret", "getParameter"), ("call", "concat"), ("ret", "concat"),
        ("call", "executeQuery"))]
    first = obj["automaton"]["registers"] + 1
    obj["automaton"]["registers"] += len(event_ids)
    obj["automaton"]["store"] += event_ids
    obj["events"]["constants"] = [{"register": reg, "value": v} for reg, v in enumerate(event_ids, start=first)]
    old = tmp_path / "old.json"
    old.write_text(dumps(obj))
    capsys.readouterr()
    outputs = []
    for bundle in (new, old):
        code = main(["check", "--automaton", str(bundle), "--trace", str(trace), "--format", "json", "--report-path"])
        outputs.append((code, capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 3 and '"path"' in outputs[0][1] and '"peak_active"' in outputs[0][1]


def test_check_clean_trace_exits_zero(taint_files, tmp_path, capsys):
    prop, _ = taint_files
    clean = tmp_path / "clean.jsonl"
    clean.write_text('{"kind":"call","method":"other","values":[]}\n')
    code = main(["check", "--property", str(prop), "--trace", str(clean)])
    assert code == 0
    assert "no violations" in capsys.readouterr().out


def test_member_accept_and_reject(tmp_path, capsys):
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton_to_json(three_letter_automaton())))
    assert main(["member", str(aut), "--word", '[["1"],["2"],["3"]]']) == 0
    assert capsys.readouterr().out.strip() == "accept"
    assert main(["member", str(aut), "--word", '[["1"],["2"],["1"]]']) == 0
    assert capsys.readouterr().out.strip() == "reject"


def test_member_on_hl_automaton(tmp_path, capsys):
    aut = tmp_path / "hl.json"
    aut.write_text(dumps(automaton_to_json(topl_to_hl(three_letter_automaton()))))
    assert main(["member", str(aut), "--word", '[["1"],["2"],["3"]]']) == 0
    assert capsys.readouterr().out.strip() == "accept"


def test_emptiness_prints_witness(tmp_path, capsys):
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton_to_json(three_letter_automaton())))
    assert main(["emptiness", str(aut)]) == 0
    assert "non-empty" in capsys.readouterr().out


def test_emptiness_empty_language(tmp_path, capsys):
    a = three_letter_automaton()
    obj = automaton_to_json(a)
    obj["final"] = []
    aut = tmp_path / "dead.json"
    aut.write_text(dumps(obj))
    assert main(["emptiness", str(aut)]) == 0
    assert capsys.readouterr().out.strip() == "empty"


def test_translate_to_ra_deterministic(tmp_path):
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton_to_json(three_letter_automaton())))
    out1 = tmp_path / "ra1.json"
    out2 = tmp_path / "ra2.json"
    assert main(["translate", str(aut), "--to", "ra", "-o", str(out1)]) == 0
    assert main(["translate", str(aut), "--to", "ra", "-o", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["registers"] == 5


def test_translate_roundtrip_topl_hl(tmp_path):
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton_to_json(three_letter_automaton())))
    hl = tmp_path / "hl.json"
    assert main(["translate", str(aut), "--to", "hl", "-o", str(hl)]) == 0
    low = tmp_path / "low.json"
    assert main(["translate", str(hl), "--to", "topl", "-o", str(low)]) == 0
    assert json.loads(low.read_text())["arity"] == 1


@pytest.mark.parametrize("automaton, to, flavour", [
    (ab_example(), "hl", "high-level"),
    (three_letter_automaton(), "topl", "low-level"),
])
def test_translate_to_the_input_flavour_exits_two(tmp_path, automaton, to, flavour):
    aut = tmp_path / "aut.json"
    aut.write_text(dumps(automaton_to_json(automaton)))
    code, out, err = _run_main(["translate", str(aut), "--to", to])
    assert (code, out) == (2, "")
    assert err == f"error: input is already a {flavour} automaton\n"


def test_member_json_on_a_compiled_bundle(taint_files, tmp_path):
    prop, _ = taint_files
    bundle = tmp_path / "taint.json"
    assert main(["compile", str(prop), "-o", str(bundle)]) == 0
    _, schema = bundle_from_json(json.loads(bundle.read_text()))
    letters = [encode_event(e, schema) for e in taint_events(1, 100, violation=True)]
    word = tmp_path / "word.json"
    # the word ending at the violating query is accepted; without it, not
    for prefix, accepted in ((letters, True), (letters[:-1], False)):
        word.write_text(json.dumps(word_to_json(prefix)))
        code, out, err = _run_main(["member", str(bundle), "--word-file", str(word), "--format", "json"])
        assert (code, err) == (0, "")
        assert json.loads(out) == {"accepted": accepted}


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["check", "--trace", "x.jsonl"]) == 1  # missing property/automaton
    assert main(["translate", "x.json"]) == 1  # missing --to
    assert main(["member", "x.json"]) == 1  # needs --word or --word-file
    capsys.readouterr()
    for bound in ("0", "-1", "many"):
        assert main(["check", "--property", "p.topl", "--trace", "t.jsonl", "--max-configs", bound]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --max-configs: expected an integer >= 1"), bound
        assert "usage:" in err and "Traceback" not in err


def test_invalid_inputs_exit_two(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["emptiness", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["emptiness", str(bad)]) == 2
    prop = tmp_path / "bad.topl"
    prop.write_text("property P\nstart -> error: ???\n")
    assert main(["compile", str(prop)]) == 2
    capsys.readouterr()
    good = tmp_path / "taint.topl"
    good.write_text(TAINT)
    for argv in (["emptiness", str(tmp_path)], ["compile", str(tmp_path)],
                 ["check", "--property", str(good), "--trace", str(tmp_path)]):
        assert main(argv) == 2, argv  # a directory
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ") and "Traceback" not in err, argv
    automaton = automaton_to_json(three_letter_automaton())
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton))
    for out in (tmp_path, tmp_path / "nonexistent" / "x.json"):  # unwritable output paths
        for argv in (["compile", str(good), "-o", str(out)], ["translate", str(aut), "--to", "ra", "-o", str(out)]):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: {out}: ") and "Traceback" not in err, argv
    method = {"kind": "method", "pos": 1, "event": "call", "patterns": 3}
    for transitions in ([[]], ["labels"], [{"from": "1", "labels": [3], "to": "2"}],
                        [{"from": "1", "guard": method, "action": [], "to": "2"}]):
        aut.write_text(dumps(dict(automaton, transitions=transitions)))
        for argv in (["emptiness", str(aut)], ["translate", str(aut), "--to", "ra"]):
            assert main(argv) == 2, (argv, transitions)
            err = capsys.readouterr().err
            assert err.startswith("error: bad automaton JSON: ") and "Traceback" not in err, transitions
    aut.write_text(dumps(automaton))
    trace = tmp_path / "t.jsonl"
    trace.write_text(TAINT_TRACE)
    schema = {"arity": 1, "variables": {}}
    for events in ({}, dict(schema, variables=[]), dict(schema, arity="1"), 3):
        bundle = tmp_path / "bundle.json"
        bundle.write_text(dumps({"automaton": automaton, "events": events}))
        assert main(["check", "--automaton", str(bundle), "--trace", str(trace)]) == 2, events
        err = capsys.readouterr().err
        assert err.startswith("error: bad events JSON: "), events
        assert "Traceback" not in err
    bundle.write_text("3")
    assert main(["check", "--automaton", str(bundle), "--trace", str(trace)]) == 2
    assert capsys.readouterr().err.startswith("error: expected a compiled property bundle")


def test_bad_word_json(tmp_path, capsys):
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton_to_json(three_letter_automaton())))
    assert main(["member", str(aut), "--word", "not json"]) == 2
    assert main(["member", str(aut), "--word", '[["1","2"]]']) == 2  # arity mismatch
    capsys.readouterr()
    for value in ('{"event": {"kind": "call"}}', '{"event": {"kind": "x", "method": "m"}}', '{"atom": [1]}'):
        assert main(["member", str(aut), "--word", f"[[{value}]]"]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("error: bad value "), value
        assert "Traceback" not in err


def test_check_max_configs_flag(taint_files, tmp_path, capsys):
    prop, trace = taint_files
    code = main([
        "check", "--property", str(prop), "--trace", str(trace), "--max-configs", "1",
    ])
    out = capsys.readouterr().out
    assert code == 0  # the single slot is taken by the start configuration
    assert "no violations" in out


def test_check_missing_property_file_exits_two(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(TAINT_TRACE)
    code = main(["check", "--property", str(tmp_path / "missing.topl"), "--trace", str(trace)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: no such file:" in err
    assert "Traceback" not in err


def _loading_commands(tmp_path, field, broken):
    """Every command that loads an automaton file, run on the three-letter
    automaton with transition 2's `field` replaced by `broken`.  The
    word of `member` never reaches transition 2."""
    obj = automaton_to_json(three_letter_automaton())
    obj["transitions"][2][field] = broken
    aut = tmp_path / "broken.json"
    aut.write_text(dumps(obj))
    trace = tmp_path / "t.jsonl"
    trace.write_text(TAINT_TRACE)
    bundle = tmp_path / "bundle.json"
    bundle.write_text(dumps({"automaton": obj, "events": {"arity": 1, "variables": {}}}))
    return (
        ["member", str(aut), "--word", '[["1"]]'],
        ["translate", str(aut), "--to", "ra"],
        ["emptiness", str(aut)],
        ["check", "--automaton", str(bundle), "--trace", str(trace)],
    )


@pytest.mark.parametrize("field, broken", [
    ("guard", {"kind": "neq", "pos": 1}),  # no "reg"
    ("action", [{"reg": 1}]),  # no "pos"
])
def test_guard_or_action_without_index_exits_two(tmp_path, capsys, field, broken):
    for argv in _loading_commands(tmp_path, field, broken):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert f"error: bad {field}" in err, argv
        assert "Traceback" not in err


@pytest.mark.parametrize("reg, message", [
    (9, "error: invalid automaton: transition 2 (3->4): register index out of range (9 not in 1..2)"),
    ("1", "error: bad automaton JSON: "),
])
def test_unreached_bad_index_exits_two(tmp_path, capsys, reg, message):
    for argv in _loading_commands(tmp_path, "guard", {"kind": "eq", "reg": reg, "pos": 1}):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(message), argv
        assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_output_is_byte_identical(taint_files, capsys, fmt):
    prop, trace = taint_files
    argv = ["check", "--property", str(prop), "--trace", str(trace), "--report-path", "--format", fmt]
    outputs = []
    for _ in range(2):
        assert main(argv) == 3
        outputs.append(capsys.readouterr().out.encode())
    assert outputs[0] == outputs[1]
    if fmt == "json":
        assert set(json.loads(outputs[0])["stats"]) == {"events", "peak_active", "dropped"}


@pytest.mark.parametrize("bad, message", [
    (b'{"kind":"call","method":"m","values":["\xff"]}', "not valid UTF-8"),
    (b"[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
], ids=["not-utf8", "deep"])
def test_undecodable_or_deep_trace_line_is_a_trace_error(taint_files, tmp_path, capsys, bad, message):
    prop, _ = taint_files
    first, *rest = TAINT_TRACE.encode().splitlines(keepends=True)
    trace = tmp_path / "bad.jsonl"
    trace.write_bytes(first + bad + b"\n" + b"".join(rest))
    argv = ["check", "--property", str(prop), "--trace", str(trace)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out.startswith(f"warning: trace line 2: {message}") and not err
    assert "violation at event 3" in out
    assert main(argv + ["--strict-trace"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: trace line 2: {message}") and "Traceback" not in err


@pytest.mark.parametrize("content, message", [
    (b'{"arity": "\xff"}', "not valid UTF-8"),
    (b"[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
], ids=["not-utf8", "deep"])
def test_undecodable_or_deep_input_file_exits_two(tmp_path, capsys, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    trace = tmp_path / "t.jsonl"
    trace.write_text(TAINT_TRACE)
    for argv in (
        ["emptiness", str(bad)],
        ["translate", str(bad), "--to", "ra"],
        ["check", "--automaton", str(bad), "--trace", str(trace)],
        ["member", str(bad), "--word", "[]"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {message}"), argv
        assert "Traceback" not in err
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton_to_json(three_letter_automaton())))
    assert main(["member", str(aut), "--word-file", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: {message}")
    if message != "not valid UTF-8":
        assert main(["member", str(aut), "--word", content.decode()]) == 2
        assert capsys.readouterr().err.startswith(f"error: --word: {message}")
    prop = tmp_path / "bad.topl"
    prop.write_bytes(b"property P\n  start -> error: " + content + b"\n")
    assert main(["compile", str(prop)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    if message == "not valid UTF-8":
        assert err.startswith(f"error: {prop}: not valid UTF-8")


# -- trace fuzzing -----------------------------------------------------------

_ATOMS = st.sampled_from(["req", "p", "t1", "t2", "stmt", "u"])
_METHODS = st.sampled_from([
    "javax.servlet.http.HttpServletRequest.getParameter", "java.lang.String.concat",
    "java.sql.Statement.executeQuery", "com.example.Worker.run",
])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_VALUE = _ATOMS | st.none() | st.integers() | st.lists(_ATOMS, max_size=1)


@st.composite
def _event_line(draw):
    """A Taint event, mostly well formed; some fields missing or wrong."""
    obj = {"kind": draw(st.sampled_from(["call", "ret"]) | st.sampled_from(["jump", 1, None]))}
    if draw(st.integers(0, 9)):
        obj["method"] = draw(_METHODS | st.integers())
    if draw(st.booleans()):
        obj["values"] = draw(st.lists(_ATOMS | st.none(), max_size=2)
                             | st.lists(_VALUE, max_size=2) | _VALUE)
    if draw(st.booleans()):
        obj["value"] = draw(_VALUE)
    return json.dumps(obj).encode()


_LINE = (
    st.binary(max_size=40)
    | _JSON.map(lambda v: json.dumps(v).encode())
    | _event_line()
    | st.sampled_from(TAINT_TRACE.encode().splitlines())
)


def _reference_check(bundle, trace):
    """(warnings, verdicts, peak_active) of a reference loop over the
    trace file: `parse_trace_line`, `encode_event`, `ReferenceMonitor`."""
    automaton, schema = bundle_from_json(json.loads(bundle.read_text()))
    monitor = ReferenceMonitor(automaton)
    warnings = []
    with open(trace, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                event = parse_trace_line(raw.strip(), lineno)
            except TraceError as exc:
                warnings.append(str(exc))
                continue
            monitor.feed_letter(encode_event(event, schema))
    monitor.finish()
    return warnings, [v.matched_at for v in monitor.verdicts], monitor.peak_active


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lines=st.lists(_LINE, max_size=12))
def test_fuzzed_trace_lines(tmp_path_factory, lines):
    work = tmp_path_factory.mktemp("fuzz")
    prop, bundle, trace = work / "taint.topl", work / "taint.json", work / "t.jsonl"
    prop.write_text(TAINT)
    assert main(["compile", str(prop), "-o", str(bundle)]) == 0
    trace.write_bytes(b"\n".join(lines) + b"\n")
    warnings, verdicts, peak = _reference_check(bundle, trace)
    argv = ["check", "--automaton", str(bundle), "--trace", str(trace), "--format", "json"]

    code, out, err = _run_main(argv)
    assert code == (3 if verdicts else 0), err
    assert err == ""
    report = json.loads(out)
    assert report["warnings"] == warnings
    assert [v["event"] for v in report["verdicts"]] == verdicts
    assert report["stats"]["peak_active"] == peak

    code, out, err = _run_main(argv + ["--strict-trace"])
    assert "Traceback" not in err
    if warnings:
        assert code == 2 and err == f"error: {warnings[0]}\n"
    else:
        assert code == (3 if verdicts else 0) and err == ""


# -- automaton-file fuzzing ----------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=automaton_text())
def test_fuzzed_translate_and_emptiness_inputs(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    aut, out = work / "a.json", work / "ra.json"
    aut.write_text(text)

    ra = None
    code, _, err = _run_main(["translate", str(aut), "--to", "ra", "-o", str(out)])
    assert code in (0, 1, 2) and "Traceback" not in err, err
    if code == 0:
        source = automaton_from_json(json.loads(text))
        m = source.registers
        if isinstance(source, HlAutomaton):
            m += (source.max_label_length - 1) * source.arity
        ra = automaton_from_json(json.loads(out.read_text()))
        assert ra.registers == 2 * m + 1
        live = coreachable(ra)
        # Every state can reach a final state, but for the lone initial
        # state of an empty language.
        assert set(ra.states) == live or (ra.states == {ra.initial} and not ra.transitions)

    code, stdout, err = _run_main(["emptiness", str(aut), "--format", "json"])
    assert code in (0, 1, 2) and "Traceback" not in err, err
    if code == 0 and ra is not None:
        assert json.loads(stdout)["empty"] == (ra.initial not in live)


# -- fuzzing the other input files ------------------------------------------------

def _assert_clean_exit(code, err, succeeded):
    """Exit `succeeded` with nothing on standard error, or exit 2 with
    one `error:` line."""
    if code in succeeded:
        assert err == "", err
    else:
        assert code == 2, (code, err)
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


_WORD = [["1"], [None], [{"atom": "2"}], [{"bottom": True}], [{"event": {"kind": "call", "method": "m"}}]]


@st.composite
def _word_text(draw):
    """A word for the one-letter-wide automaton, after `mutated_text`."""
    return mutated_text(draw, json.loads(json.dumps(_WORD[:draw(st.integers(0, len(_WORD)))])))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=automaton_text(), word=_word_text())
def test_fuzzed_member_inputs(tmp_path_factory, text, word):
    work = tmp_path_factory.mktemp("fuzz")
    aut, fuzzed_word, good = work / "a.json", work / "w.json", work / "three.json"
    aut.write_text(text)
    fuzzed_word.write_text(word)
    good.write_text(dumps(automaton_to_json(three_letter_automaton())))
    for argv in (["member", str(aut), "--word-file", str(fuzzed_word)],
                 ["member", str(aut), "--word", "[]"],
                 ["member", str(good), "--word-file", str(fuzzed_word)]):
        code, out, err = _run_main(argv)
        _assert_clean_exit(code, err, (0,))
        assert out in (("accept\n", "reject\n") if code == 0 else ("",)), argv


@st.composite
def _bundle_text(draw):
    """The compiled Taint bundle, after `mutated_text`."""
    automaton, schema = compile_property(parse_property(TAINT))
    return mutated_text(draw, bundle_to_json(automaton, schema))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(text=_bundle_text())
def test_fuzzed_check_bundle_inputs(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    bundle, trace = work / "taint.json", work / "t.jsonl"
    bundle.write_text(text)
    trace.write_text(TAINT_TRACE)
    code, _, err = _run_main(["check", "--automaton", str(bundle), "--trace", str(trace), "--format", "json"])
    _assert_clean_exit(code, err, (0, 3))


_PROPERTY_TEXT = st.text(st.sampled_from('abxX*.:=-><()[],"_ \n\t') | st.characters(), max_size=6)


@st.composite
def _property_text(draw):
    """The Taint property with up to three spans of up to 8 characters
    replaced by short runs of property syntax or any character."""
    text = TAINT
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + draw(_PROPERTY_TEXT) + text[j:]
    return text


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=_property_text())
def test_fuzzed_compile_inputs(tmp_path_factory, text):
    work = tmp_path_factory.mktemp("fuzz")
    prop, out = work / "p.topl", work / "p.json"
    prop.write_text(text, encoding="utf-8", errors="surrogatepass")
    code, _, err = _run_main(["compile", str(prop), "-o", str(out)])
    _assert_clean_exit(code, err, (0,))
    if code == 0:
        bundle_from_json(json.loads(out.read_text()))


# -- the canonical JSON form ----------------------------------------------------

# SHA-256 of each output as `json.dumps(..., sort_keys=True, indent=2)`
# wrote it; any writer must keep these bytes.
CHECK_JSON_SHA256 = "d4275a904e4829370c77e934e49a8698f544c24f717c243c249f139b5adcbd29"
COMPILE_SHA256 = "3e9946a9243936ff54d3ef6846af04321170a8f02adc339679a18ef0754a6e55"
EMPTINESS_JSON_SHA256 = "db8ff596987ac572105e7c46a7ab0032b6c6f6382a27f35ae9a4cdfdbfd554cd"


def test_json_outputs_are_pinned(taint_files, tmp_path):
    prop, trace = taint_files
    aut = tmp_path / "topl1.json"
    aut.write_text(dumps(automaton_to_json(three_letter_automaton())))
    for argv, exit_code, digest in (
        (["check", "--property", str(prop), "--trace", str(trace), "--format", "json", "--report-path"],
         3, CHECK_JSON_SHA256),
        (["compile", str(prop)], 0, COMPILE_SHA256),
        (["emptiness", str(aut), "--format", "json"], 0, EMPTINESS_JSON_SHA256),
    ):
        code, out, err = _run_main(argv)
        assert (code, err) == (exit_code, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_writer_and_loader_are_looked_up_by_name(taint_files, tmp_path, monkeypatch):
    """`bench/tracing.py` times the writer by patching `cli.dumps` and the
    loader by patching `serialize.automaton_from_json`.  A command that
    bound either somewhere else would time as zero there."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "dumps", counted("dumps", cli.dumps))
    monkeypatch.setattr(serialize, "automaton_from_json", counted("load", serialize.automaton_from_json))
    prop, trace = taint_files
    taint = tmp_path / "taint.json"
    assert main(["compile", str(prop), "-o", str(taint)]) == 0
    # A bundle is the automaton file that `serialize` loads by name.
    three = tmp_path / "three.json"
    three.write_text(dumps({"automaton": automaton_to_json(three_letter_automaton()),
                            "events": {"arity": 1, "variables": {}}}))
    for argv in (["check", "--automaton", str(taint), "--trace", str(trace), "--format", "json"],
                 ["emptiness", str(three), "--format", "json"],
                 ["translate", str(three), "--to", "ra"]):
        calls.clear()
        code, _, err = _run_main(argv)
        assert code in (0, 3) and err == "", argv
        assert calls == {"dumps": 1, "load": 1}, argv
