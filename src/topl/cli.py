"""Command-line front end.

Exit codes are the machine contract: 0 success / no violation,
3 violation found by `check`, 1 usage or parse errors on the command
line, 2 invalid inputs (bad property, automaton, word, or trace).
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import StructureError, accepts
from .hl import HlAutomaton, hl_accepts
from .monitor import MonitorOptions, TraceError, run_trace
from .properties import PropertySyntaxError, compile_property, parse_property
from .serialize import (
    automaton_from_json,
    automaton_to_json,
    bundle_from_json,
    bundle_to_json,
    dumps,
    word_from_json,
    word_to_json,
)
from .translate import emptiness, hl_to_topl, topl_to_hl, topl_to_ra


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


def _build_parser() -> _Parser:
    parser = _Parser(prog="topl", description="Runtime verification of event traces "
                                              "against temporal object properties.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("compile", help="compile a property file to an automaton bundle")
    p.add_argument("property", help="property source file")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = sub.add_parser("check", help="monitor a trace for property violations")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--property", help="property source file (compiled on the fly)")
    src.add_argument("--automaton", help="precompiled automaton+schema JSON")
    p.add_argument("--trace", required=True, help="JSON-lines trace file")
    p.add_argument("--max-configs", type=_positive_int, default=None, metavar="N",
                   help="bound on active configurations (may miss violations)")
    p.add_argument("--report-path", action="store_true", help="record violation paths")
    p.add_argument("--stop-at-first", action="store_true", help="stop at the first violation")
    p.add_argument("--strict-trace", action="store_true",
                   help="abort on malformed trace lines instead of skipping them")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("translate", help="translate between automaton flavours")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("--to", required=True, choices=("ra", "topl", "hl"), dest="target")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = sub.add_parser("emptiness", help="decide language emptiness, print a witness if any")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("member", help="decide membership of a word")
    p.add_argument("automaton", help="automaton JSON file")
    p.add_argument("--word", help="word as inline JSON (array of letters)")
    p.add_argument("--word-file", help="word as a JSON file")
    p.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def _open(path: str, errors: str = "strict"):
    """`path` opened as UTF-8 text; StructureError when it cannot be."""
    try:
        return open(path, "r", encoding="utf-8", errors=errors)
    except FileNotFoundError:
        raise StructureError(f"no such file: {path}") from None
    except OSError as exc:
        raise StructureError(f"{path}: {exc.strerror}") from None


def _read_text(path: str) -> str:
    with _open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError:
            raise StructureError(f"{path}: not valid UTF-8") from None


def _parse_json(text: str, where: str):
    """The JSON value of `text`; StructureError naming `where` when it
    is not one."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"{where}: invalid JSON ({exc.msg}, line {exc.lineno})") from None
    except (RecursionError, ValueError) as exc:  # the decoder's nesting and digit limits
        raise StructureError(f"{where}: invalid JSON ({exc})") from None


def _load_json(path: str):
    return _parse_json(_read_text(path), path)


def _load_automaton(path: str):
    obj = _load_json(path)
    if isinstance(obj, dict) and "automaton" in obj and "events" in obj:
        automaton, _ = bundle_from_json(obj)
        return automaton
    return automaton_from_json(obj)


def _write_out(text: str, out) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise StructureError(f"{out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _compile_file(path: str):
    return compile_property(parse_property(_read_text(path)))


def _cmd_compile(args) -> int:
    automaton, schema = _compile_file(args.property)
    _write_out(dumps(bundle_to_json(automaton, schema)), args.out)
    return 0


def _cmd_check(args) -> int:
    if args.property:
        automaton, schema = _compile_file(args.property)
    else:
        obj = _load_json(args.automaton)
        automaton, schema = bundle_from_json(obj)
    options = MonitorOptions(
        max_configs=args.max_configs,
        record_paths=args.report_path,
        stop_at_first=args.stop_at_first,
    )
    # undecodable bytes reach parse_trace_line, which rejects their line
    with _open(args.trace, errors="surrogateescape") as fh:
        report = run_trace(automaton, schema, fh, options, strict=args.strict_trace)

    if args.format == "json":
        payload = {
            "verdicts": [
                {"event": v.matched_at, **({"path": v.path} if v.path is not None else {})}
                for v in report.verdicts
            ],
            "stats": {
                "events": report.events,
                "peak_active": report.peak_active,
                "dropped": report.dropped,
            },
            "warnings": list(report.warnings),
        }
        sys.stdout.write(dumps(payload))
    else:
        for w in report.warnings:
            print(f"warning: {w}")
        for v in report.verdicts:
            print(f"violation at event {v.matched_at}")
            if v.path is not None:
                rendered = "; ".join(
                    f"transition {s[1]} events {s[2] + 1}..{s[3]}" if s[0] == "step" else f"skip event {s[1] + 1}"
                    for s in v.path
                )
                print(f"  path: {rendered or '(empty)'}")
        if not report.verdicts:
            print("no violations")
        print(
            f"events: {report.events}, peak active: {report.peak_active}, "
            f"dropped: {report.dropped}"
        )
    return 3 if report.verdicts else 0


def _cmd_translate(args) -> int:
    automaton = _load_automaton(args.automaton)
    is_hl = isinstance(automaton, HlAutomaton)
    if args.target == "hl":
        if is_hl:
            raise StructureError("input is already a high-level automaton")
        result = topl_to_hl(automaton)
    elif args.target == "topl":
        if not is_hl:
            raise StructureError("input is already a low-level automaton")
        result = hl_to_topl(automaton)
    else:
        low = hl_to_topl(automaton) if is_hl else automaton
        result = topl_to_ra(low)
    _write_out(dumps(automaton_to_json(result)), args.out)
    return 0


def _cmd_emptiness(args) -> int:
    automaton = _load_automaton(args.automaton)
    witness = emptiness(automaton)
    if args.format == "json":
        payload = {"empty": witness is None}
        if witness is not None:
            payload["witness"] = word_to_json(witness)
        sys.stdout.write(dumps(payload))
    else:
        if witness is None:
            print("empty")
        else:
            print(f"non-empty; witness: {json.dumps(word_to_json(witness))}")
    return 0


def _cmd_member(args) -> int:
    if (args.word is None) == (args.word_file is None):
        raise _UsageError("member needs exactly one of --word or --word-file")
    automaton = _load_automaton(args.automaton)
    if args.word is not None:
        obj = _parse_json(args.word, "--word")
    else:
        obj = _load_json(args.word_file)
    word = word_from_json(obj, automaton.arity)
    if isinstance(automaton, HlAutomaton):
        accepted = hl_accepts(automaton, word)
    else:
        accepted = accepts(automaton, word)
    if args.format == "json":
        sys.stdout.write(dumps({"accepted": accepted}))
    else:
        print("accept" if accepted else "reject")
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "check": _cmd_check,
    "translate": _cmd_translate,
    "emptiness": _cmd_emptiness,
    "member": _cmd_member,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (StructureError, PropertySyntaxError, TraceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
