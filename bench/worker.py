"""One workload in a fresh interpreter: set up, run timed passes, report.

run.py starts this process with the generated inputs; it prints one
JSON object as its last line of standard output.  With `--setup-only`
it stops when ready and reports only the set-up time.

Set-up ("fresh interpreter to ready") is timed from the first line of
this file, before `topl` is imported.  A check pass is one `topl check
--format json` run in this process, timed from the call to the moment
its output file is closed; a latency pass feeds the same trace line by
line through `parse_trace_line` and `Monitor.feed` and times every
event.  An emptiness pass decides every automaton of the corpus.

Passes repeat while one more, as long as the longest so far, still ends
within `--seconds` of the start, so a run measures for at most about
`--seconds`.  Throughput is taken from the fastest pass and latency from
each operation's fastest repeat: on a shared host the fastest repeat of
identical work is the estimate least moved by other tenants' load.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

clock = time.perf_counter
INF = float("inf")


def repeat(seconds: float, step) -> int:
    """Calls `step(n)` for n = 0, 1, ... at least once, and again while
    one more call, as long as the longest so far, still ends within
    `seconds` of the first; returns the number of calls."""
    start = clock()
    longest = 0.0
    n = 0
    while n == 0 or clock() - start + longest <= seconds:
        t0 = clock()
        step(n)
        longest = max(longest, clock() - t0)
        n += 1
    return n


def latency_summary(fastest):
    """Median and tail of each operation's fastest time over the passes
    (failed operations, never timed, are left out).  The tail is the
    value with exactly 10 above it, the highest percentile that still has
    10 samples beyond it.  The fastest repeat of identical work is the
    estimate least moved by other load on the machine."""
    values = sorted(t for t in fastest if t != INF)
    if not values:
        return {"p50_us": 0.0, "tail_us": 0.0, "samples": 0, "tail_pct": 0.0}
    rank = max(len(values) - 11, 0)
    return {
        "p50_us": statistics.median(values) * 1e6,
        "tail_us": values[rank] * 1e6,
        "samples": len(values),
        "tail_pct": 100.0 * (rank + 1) / len(values),
    }


# ---------------------------------------------------------------------------
# taint-*: `topl check`
# ---------------------------------------------------------------------------

def setup_check(inputs: Path, paths: bool):
    from topl.monitor import Monitor, MonitorOptions
    from topl.properties import compile_property, parse_property

    automaton, schema = compile_property(parse_property((inputs / "taint.topl").read_text()))
    options = MonitorOptions(record_paths=paths)
    return automaton, schema, options, Monitor(automaton, schema, options)


def check_pass(argv, out_file: Path, tracer=None):
    from topl import cli

    main = cli.main if tracer is None else tracer.span("cli.main", cli.main)
    t0 = clock()
    with open(out_file, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        rc = main(argv)
    return rc, clock() - t0


def latency_pass(monitor, lines, fastest):
    """Feed every line; keeps each event's fastest time in `fastest` and
    returns the verdict indices."""
    from topl.monitor import parse_trace_line

    found = []
    for i, text in enumerate(lines):
        t0 = clock()
        new = monitor.feed(parse_trace_line(text, i + 1))
        dt = clock() - t0
        if dt < fastest[i]:
            fastest[i] = dt
        found += [v.matched_at for v in new]
    found += [v.matched_at for v in monitor.finish()]
    return found


def run_check(args, inputs: Path, out: Path) -> dict:
    paths = args.workload == "taint-paths"
    automaton, schema, options, monitor = setup_check(inputs, paths)
    setup_s = clock() - T0
    if args.setup_only:
        return {"setup_s": setup_s}

    from topl.monitor import Monitor

    trace = inputs / "trace.jsonl"
    lines = trace.read_text().splitlines()
    argv = ["check", "--property", str(inputs / "taint.topl"), "--trace", str(trace), "--format", "json"]
    if paths:
        argv.append("--report-path")

    res = {"setup_s": setup_s, "rcs": []}
    untraced = []  # seconds of each untraced check pass
    traced = []
    tracers = []
    fastest = [INF] * len(lines)
    verdicts = None
    consistent = True

    def step(n):
        nonlocal monitor, verdicts, consistent
        rc, dt = check_pass(argv, out / f"check-{n}.json")
        res["rcs"].append(rc)
        untraced.append(dt)
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install_check()
            try:
                rc, dt = check_pass(argv, out / f"check-{n}-traced.json", tracer)
            finally:
                tracer.unpatch()
            res["rcs"].append(rc)
            traced.append(dt)
            tracers.append(tracer)
        else:
            if n:
                monitor = Monitor(automaton, schema, options)
            found = latency_pass(monitor, lines, fastest)
            if verdicts is None:
                verdicts = found
            consistent &= found == verdicts

    n = repeat(args.seconds, step)

    from topl import cli

    with contextlib.redirect_stdout(sys.stderr):
        cli.main(["compile", str(inputs / "taint.topl"), "-o", str(out / "bundle.json")])
    res["passes"] = n
    res["attempted"] = len(lines) * len(res["rcs"])
    res["ops_per_s"] = len(lines) / min(untraced)
    if args.trace:
        res["layers"] = check_layers(tracers, traced, len(lines), res["ops_per_s"])
        res["counts_repeat"] = counts_repeat(tracers)
        write_spans(tracers, out)
    else:
        (out / "latency-verdicts.json").write_text(json.dumps({"verdicts": verdicts, "consistent": consistent}))
        res["latency"] = latency_summary(fastest)
    return res


def pass_median(tracers, name: str, self_time: bool = False) -> float:
    """Median over the traced passes of a span's total (or self) seconds."""
    return statistics.median(t.self_times().get(name, (0.0, 0.0))[self_time] for t in tracers)


def overhead(ops: int, traced, untraced_ops: float) -> dict:
    """Traced against untraced throughput, both from their fastest
    pass; `ops` completed per pass."""
    traced_ops = ops / min(traced)
    return {
        "trace.ops_per_s.untraced": untraced_ops,
        "trace.ops_per_s.traced": traced_ops,
        "trace.overhead": untraced_ops / traced_ops - 1.0,
    }


def check_layers(tracers, traced, events: int, untraced_ops: float) -> dict:
    """Per-layer figures of the traced check passes."""
    first = tracers[0]
    calls = first.calls["hl.match_prefix"]
    return {
        "cli.check.self.ms": pass_median(tracers, "cli.main", True) * 1e3,
        "properties.parse_property.ms": pass_median(tracers, "properties.parse_property") * 1e3,
        "properties.compile_property.ms": pass_median(tracers, "properties.compile_property") * 1e3,
        "monitor.parse_trace_line.us_per_event": pass_median(tracers, "monitor.parse_trace_line") / events * 1e6,
        "monitor.encode_event.us_per_event": pass_median(tracers, "monitor.encode_event") / events * 1e6,
        "monitor.feed_letter.us_per_event": pass_median(tracers, "monitor.feed_letter", True) / events * 1e6,
        "monitor.finish.ms": pass_median(tracers, "monitor.finish") * 1e3,
        "hl.match_prefix.calls_per_event": calls / events,
        "core.eval_guard.calls_per_event": first.calls["core.eval_guard"] / events,
        "hl.match_prefix.hit_ratio": first.hits["hl.match_prefix"] / calls if calls else 0.0,
        "serialize.dumps.ms": pass_median(tracers, "serialize.dumps") * 1e3,
        **overhead(events, traced, untraced_ops),
    }


# ---------------------------------------------------------------------------
# emptiness-d2
# ---------------------------------------------------------------------------

def setup_emptiness(inputs: Path):
    from topl import serialize

    texts = (inputs / "corpus.jsonl").read_text().splitlines()
    for text in texts:
        serialize.automaton_from_json(json.loads(text))
    return texts


def decide(text: str) -> str:
    """The `emptiness --format json` command's work on one automaton."""
    from topl import serialize, translate

    witness = translate.emptiness(serialize.automaton_from_json(json.loads(text)))
    payload = {"empty": witness is None}
    if witness is not None:
        payload["witness"] = serialize.word_to_json(witness)
    return serialize.dumps(payload)


def failure(exc: BaseException) -> dict:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return {"error": f"{type(exc).__name__}: {exc}", "function": frame.name, "file": Path(frame.filename).name}


def emptiness_pass(texts, fastest, answers, tracer=None):
    """Decide every automaton once; returns (seconds, failures, whether
    every answer equals the first pass's)."""
    fn = decide if tracer is None else tracer.span("op", decide)
    failed = 0
    same = True
    t_pass = clock()
    for i, text in enumerate(texts):
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            answer = fn(text)
        except Exception as exc:  # the op boundary: record and go on
            answer = failure(exc)
            failed += 1
        dt = clock() - t0
        if fastest is not None and not isinstance(answer, dict) and dt < fastest[i]:
            fastest[i] = dt
        if answers[i] is None:
            answers[i] = answer
        same &= answers[i] == answer
    return clock() - t_pass, failed, same


def run_emptiness(args, inputs: Path, out: Path) -> dict:
    texts = setup_emptiness(inputs)
    setup_s = clock() - T0
    if args.setup_only:
        return {"setup_s": setup_s}

    answers = [None] * len(texts)
    fastest = [INF] * len(texts)
    untraced, traced, tracers = [], [], []
    failed = attempted = 0
    consistent = True

    def one_pass(tracer=None):
        nonlocal failed, attempted, consistent
        dt, f, same = emptiness_pass(texts, None if args.trace else fastest, answers, tracer)
        failed += f
        attempted += len(texts)
        consistent &= same
        return dt

    def step(_):
        untraced.append(one_pass())
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install_emptiness()
            try:
                traced.append(one_pass(tracer))
            finally:
                tracer.unpatch()
            tracers.append(tracer)

    repeat(args.seconds, step)
    (out / "answers.json").write_text(json.dumps({"answers": answers, "consistent": consistent}))
    completed = len(texts) - failed // (attempted // len(texts))  # per pass
    res = {"setup_s": setup_s, "passes": len(untraced), "attempted": attempted, "failed": failed,
           "ops_per_s": completed / min(untraced)}
    if args.trace:
        res["layers"] = emptiness_layers(tracers, traced, completed, res["ops_per_s"])
        res["counts_repeat"] = counts_repeat(tracers)
        res["law_breaks"] = tracers[0].law_breaks
        write_spans(tracers, out)
    else:
        res["latency"] = latency_summary(fastest)
    return res


def emptiness_layers(tracers, traced, completed: int, untraced_ops: float) -> dict:
    """Per-layer figures of the traced corpus passes; `completed` is the
    number of automata a pass decides without failing."""
    first = tracers[0]
    calls = first.calls["hl.match_prefix"]
    return {
        "serialize.automaton_from_json.ms": pass_median(tracers, "serialize.automaton_from_json") * 1e3,
        "serialize.dumps.ms": pass_median(tracers, "serialize.dumps") * 1e3,
        "translate.hl_to_topl.ms": pass_median(tracers, "translate.hl_to_topl") * 1e3,
        "translate.hl_to_topl.states": first.sizes["hl_to_topl.states"],
        "translate.hl_to_topl.transitions": first.sizes["hl_to_topl.transitions"],
        "translate.topl_to_ra.ms": pass_median(tracers, "translate.topl_to_ra") * 1e3,
        "translate.topl_to_ra.states": first.sizes["topl_to_ra.states"],
        "translate.topl_to_ra.transitions": first.sizes["topl_to_ra.transitions"],
        "translate.ra_emptiness.ms": pass_median(tracers, "translate.ra_emptiness") * 1e3,
        "translate.emptiness.self.ms": pass_median(tracers, "translate.emptiness", True) * 1e3,
        "hl.match_prefix.calls_per_event": calls / completed,
        "core.eval_guard.calls_per_event": first.calls["core.eval_guard"] / completed,
        "hl.match_prefix.hit_ratio": first.hits["hl.match_prefix"] / calls if calls else 0.0,
        **overhead(completed, traced, untraced_ops),
    }


def counts_repeat(tracers) -> bool:
    """Every traced pass made exactly the same calls and sizes."""
    keys = [(dict(t.calls), dict(t.hits), dict(t.sizes)) for t in tracers]
    return all(k == keys[0] for k in keys)


def write_spans(tracers, out: Path) -> None:
    with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
        for i, t in enumerate(tracers):
            t.write(fh, i)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    run = run_emptiness if args.workload == "emptiness-d2" else run_check
    res = run(args, args.inputs, args.out)
    res["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
