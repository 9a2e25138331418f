"""Benchmark of `topl check` and `topl emptiness`: one workload per call.

    python3 bench/run.py --workload taint-few --seed 1 --seconds 15 --trace 0

Writes the seeded inputs under `.bench_out/<workload>/inputs`, measures
set-up time in fresh interpreters, runs the workload in one more fresh
interpreter (bench/worker.py) for `--seconds`, checks every output
against the oracles in bench/oracles.py, and prints one JSON object as
the last line of standard output:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
the per-layer ones from a traced run.  Details go to standard error.
Exits with 2, printing no result, when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402

WORKLOADS = ("taint-few", "taint-many", "taint-paths", "emptiness-d2")
SETUP_PROBES = 5  # fresh interpreters timed for setup_s, after one warm-up
WORKER_TIMEOUT = 150
HL_TO_TOPL_FAULT = ("IndexError: pop from empty list", "long_branches")


def metric_units(trace: int) -> dict:
    """Metric names and units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def write_inputs(workload: str, seed: int, inputs: Path):
    inputs.mkdir(parents=True)
    if workload == "emptiness-d2":
        corpus = gen.emptiness_corpus(seed)
        (inputs / "corpus.jsonl").write_text("".join(json.dumps(a, sort_keys=True) + "\n" for a in corpus))
        return corpus
    (inputs / "taint.topl").write_text(gen.TAINT_PROPERTY)
    events = gen.taint_trace(workload, seed)
    (inputs / "trace.jsonl").write_text(gen.trace_lines(events))
    return events


def worker(workload: str, inputs: Path, out: Path, seconds: float, trace: int, setup_only=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--inputs", str(inputs),
           "--out", str(out), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    # A fixed string hash seed makes set and dict orders, and so the
    # per-layer counts, repeat exactly from run to run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check_taint(workload: str, events, out: Path, res: dict, trace: int) -> list:
    problems = []
    expected = oracles.taint_verdicts(events)
    bundle = json.loads((out / "bundle.json").read_text())
    automaton = oracles.Automaton(bundle["automaton"])
    letters = [oracles.encode(e, bundle["events"]["width"]) for e in events]
    if any(rc != 3 for rc in res["rcs"]):
        problems.append(f"check exit codes {sorted(set(res['rcs']))}, expected 3")
    for f in sorted(out.glob("check-*.json")):
        payload = json.loads(f.read_text())
        got = [v["event"] for v in payload["verdicts"]]
        if got != expected:
            problems.append(f"{f.name}: verdicts {got[:3]}... ({len(got)}), expected {expected[:3]}... ({len(expected)})")
        if payload["stats"]["events"] != len(events) or payload["warnings"]:
            problems.append(f"{f.name}: {payload['stats']['events']} events, warnings {payload['warnings'][:2]}")
        for v in payload["verdicts"] if workload == "taint-paths" else ():
            err = oracles.replay_path(automaton, letters, v.get("path", ()), v["event"])
            if err:
                problems.append(f"{f.name}: path of verdict {v['event']}: {err}")
    if trace:
        if not res["counts_repeat"]:
            problems.append("traced passes made different call counts")
    else:
        latency = json.loads((out / "latency-verdicts.json").read_text())
        if latency["verdicts"] != expected or not latency["consistent"]:
            problems.append(f"Monitor.feed verdicts {latency['verdicts'][:3]}... differ from the oracle")
    return problems


def check_emptiness(corpus, out: Path, res: dict, trace: int) -> list:
    problems = []
    data = json.loads((out / "answers.json").read_text())
    if not data["consistent"]:
        problems.append("answers differ between passes")
    first_faulty = len(corpus) - len(gen.FAULTY_AUTOMATA)
    for i, (obj, answer) in enumerate(zip(corpus, data["answers"])):
        if isinstance(answer, dict):
            if (answer["error"], answer["function"]) != HL_TO_TOPL_FAULT or i < first_faulty:
                problems.append(f"automaton {i}: {answer}")
            continue
        payload = json.loads(answer)
        automaton = oracles.Automaton(obj)
        if payload["empty"]:
            word = oracles.accepted_word_up_to(automaton, obj["arity"])
            if word is not None:
                problems.append(f"automaton {i}: answered empty but accepts {word}")
        else:
            word = [tuple(oracles.value(v) for v in letter) for letter in payload["witness"]]
            if any(len(letter) != obj["arity"] for letter in word) or not oracles.hl_accepts(automaton, word):
                problems.append(f"automaton {i}: witness {payload['witness']} is not accepted")
    if trace:
        problems += res["law_breaks"]
        if not res["counts_repeat"]:
            problems.append("traced passes made different call counts or sizes")
    return problems


# ---------------------------------------------------------------------------
# Running a workload
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: int, out: Path) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    inputs = out / "inputs"
    generated = write_inputs(workload, seed, inputs)
    setups = []
    if not trace:
        worker(workload, inputs, out, 0, 0, setup_only=True)  # warm-up: bytecode caches
        setups = [worker(workload, inputs, out, 0, 0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    res = worker(workload, inputs, out, seconds, trace)

    if workload == "emptiness-d2":
        problems = check_emptiness(generated, out, res, trace)
    else:
        problems = check_taint(workload, generated, out, res, trace)

    units = metric_units(trace)
    if trace:
        values = dict.fromkeys(units, 0.0)  # layers a workload does not use read 0
        values.update(res["layers"])
        if workload != "emptiness-d2":
            values["monitor.peak_active"] = max(
                json.loads(f.read_text())["stats"]["peak_active"] for f in out.glob("check-*.json"))
    else:
        values = {
            "ops_per_s": res["ops_per_s"],
            "latency_p50_us": res["latency"]["p50_us"],
            "latency_tail_us": res["latency"]["tail_us"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
    details = {k: res[k] for k in ("passes", "latency") if k in res}
    print(f"{workload} seed {seed}: {json.dumps(details)}", file=sys.stderr)
    for p in problems[:20]:
        print(f"INCORRECT: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res.get("failed", 0),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark of topl check and topl emptiness.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "topl" / "__init__.py").is_file():
        print(f"error: library sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace, ROOT / ".bench_out" / args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
