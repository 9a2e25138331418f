"""Seconds-long self-test of the benchmark.

    python3 bench/selftest.py

1. Checks the oracles against hand-worked scenarios: the direct taint
   flow, the sanitiser break and the unsafe-iterator scenario, each with
   its expected verdicts; the monitor's reported paths must replay, and
   the oracles must reject a wrong verdict list and a broken path.
2. Runs every workload at a tiny size, untraced and traced, through the
   same code as a real run, and checks that it is correct and prints
   exactly the metrics BENCHMARK.json names.
3. Checks that the benchmark exits non-zero, printing no result, in a
   directory that holds only BENCHMARK.json and the benchmark.

Exits 0 when everything passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

OUT = ROOT / ".bench_out" / "selftest"

TAINT_SANITIZED = """\
property TaintSanitized
  start -> start:       *
  start -> tracking:    X := *.getParameter[*]
  tracking -> tracking: (!sanitize)(*)
  tracking -> cleared:  sanitize(x)
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


def call(method, *values):
    return {"kind": "call", "method": method, "values": list(values)}


def ret(method, value=None):
    return {"kind": "ret", "method": method, "value": value}


DIRECT = [call(gen.GET_PARAMETER, "req", "p"), ret(gen.GET_PARAMETER, "v1"), call(gen.EXECUTE_QUERY, "stmt", "v1")]
SANITIZED = [call("getParameter", "req", "p"), ret("getParameter", "v1"), call("sanitize", "lib", "v1"),
             ret("sanitize"), call("executeQuery", "stmt", "v1")]
ITERATOR = [call("iterator", "c"), ret("iterator", "x"), call("iterator", "c"), ret("iterator", "y"),
            call("remove", "y"), ret("remove"), call("next", "x")]
ITERATOR_OK = ITERATOR[:4] + [call("remove", "x"), ret("remove"), call("next", "x")]

# (property, trace, expected verdicts), from the worked scenarios
SCENARIOS = [
    ("direct taint flow", gen.TAINT_PROPERTY, DIRECT, [3]),
    ("sanitiser break", TAINT_SANITIZED, SANITIZED, []),
    ("unsanitised flow", TAINT_SANITIZED, SANITIZED[:2] + SANITIZED[4:], [3]),
    ("unsafe iterator", UNSAFE_ITERATOR, ITERATOR, [7]),
    ("safe iterator", UNSAFE_ITERATOR, ITERATOR_OK, []),
]

TINY_SHAPES = {
    "taint-few": dict(events=200, sources=2, chains=1, ramp=40, violation=0.6),
    "taint-many": dict(events=120, sources=10, chains=20, ramp=60, violation=0.8),
    "taint-paths": dict(events=200, sources=2, chains=1, ramp=40, violation=None),
}
TINY_CORPUS = len(gen.STRATA)

failures = []


def report(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def topl(*argv) -> tuple:
    from topl import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def check_scenarios(work: Path) -> None:
    for name, source, events, expected in SCENARIOS:
        prop, trace, bundle = work / "p.topl", work / "t.jsonl", work / "b.json"
        prop.write_text(source)
        trace.write_text(gen.trace_lines(events))
        topl("compile", str(prop), "-o", str(bundle))
        compiled = json.loads(bundle.read_text())
        automaton = oracles.Automaton(compiled["automaton"])
        letters = [oracles.encode(e, compiled["events"]["width"]) for e in events]
        by_oracle = [k for k in range(len(events) + 1) if oracles.hl_accepts(automaton, letters[:k])]
        report(by_oracle == expected, f"{name}: oracle verdicts {by_oracle}, expected {expected}")
        if source == gen.TAINT_PROPERTY:
            got = oracles.taint_verdicts(events)
            report(got == expected, f"{name}: taint dataflow verdicts {got}")
        _, text = topl("check", "--property", str(prop), "--trace", str(trace), "--format", "json", "--report-path")
        verdicts = json.loads(text)["verdicts"]
        report([v["event"] for v in verdicts] == expected, f"{name}: topl check agrees")
        for v in verdicts:
            err = oracles.replay_path(automaton, letters, v["path"], v["event"])
            report(not err, f"{name}: path of verdict {v['event']} replays {err}")
            if len(v["path"]) > 1:
                broken = [v["path"][1]] + [v["path"][0]] + v["path"][2:]
                report(bool(oracles.replay_path(automaton, letters, broken, v["event"])),
                       f"{name}: a reordered path is rejected")
    untainted = DIRECT[:2] + [call(gen.EXECUTE_QUERY, "stmt", "v2")]
    report(oracles.taint_verdicts(untainted) == [], "an untainted query is no violation")


def check_workloads() -> None:
    gen.TRACE_SHAPES.update(TINY_SHAPES)
    gen.CORPUS_SIZE = TINY_CORPUS
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.run(workload, 1, 0, trace, OUT / f"{workload}-{trace}")
            names = set(run.metric_units(trace))
            values = result["metrics"]
            report(result["correct"], f"{workload} trace {trace}: outputs match the oracles")
            report(set(values) == names, f"{workload} trace {trace}: prints exactly the BENCHMARK.json metrics")
            if not trace:
                report(all(v["value"] > 0 for v in values.values()), f"{workload}: end-to-end metrics are non-zero")
            faulty = len(gen.FAULTY_AUTOMATA) if workload == "emptiness-d2" else 0
            passes = result["attempted"] // (TINY_CORPUS + faulty if faulty else TINY_SHAPES[workload]["events"])
            report(result["failed"] == faulty * passes,
                   f"{workload} trace {trace}: {result['failed']} of {result['attempted']} operations failed")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "taint-few", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    report(proc.returncode != 0 and not proc.stdout.strip(), "without the library it exits non-zero, printing nothing")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    check_scenarios(OUT)
    check_workloads()
    check_bare_directory()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
