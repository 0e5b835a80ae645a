"""``repro-trace``: read, summarize, diff and flamegraph JSONL traces.

Usage::

    repro-trace summarize out.jsonl            # per-stage breakdown
    repro-trace summarize out.jsonl --json     # machine-readable summary
    repro-trace summarize out.jsonl --slowest 10   # top spans by self-time
    repro-trace diff a.jsonl b.jsonl           # what moved between runs
    repro-trace diff a.jsonl b.jsonl --json
    repro-trace diff a.jsonl b.jsonl \\
        --fail-on 'stage_time>20%' --fail-on 'counter:*!=0'   # CI gate
    repro-trace flame out.jsonl out.folded     # folded stacks for
                                               # flamegraph.pl/speedscope

Traces are produced by ``repro-study study --trace out.jsonl`` (or by
:func:`repro.obs.write_trace` from library code).  ``diff`` aligns the
two span trees by path (study > stage > shard > site > request) and
reports per-stage timing deltas, counter/gauge/histogram deltas and
added/removed span subtrees; with ``--fail-on`` it exits 1 when any
threshold trips — two traces of the same seed and config diff empty,
so the command doubles as a reproducibility gate.

Exit codes: 0 clean (or report-only), 1 a ``--fail-on`` threshold
tripped, 2 unreadable input or bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .diff import FailOnError, diff_traces, parse_fail_on, render_diff
from .export import (
    TraceError,
    read_trace,
    summarize_trace,
    summary_dict,
)
from .flame import render_slowest, slowest_spans, write_folded

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_ERROR = 2


class _InputError(Exception):
    """An unreadable trace; already reported, main() exits 2."""


def _read(path: str):
    """Parse one trace or fail with a one-line error (no traceback:
    empty, truncated and non-trace files are user input, not bugs)."""
    try:
        return read_trace(path)
    except (OSError, TraceError) as exc:
        print("repro-trace: error: %s" % exc, file=sys.stderr)
        raise _InputError from exc


def _print(text: str) -> None:
    try:
        print(text)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; not an error.
        sys.stderr.close()


def _cmd_summarize(args: argparse.Namespace) -> int:
    records = _read(args.path)
    if args.json:
        document = summary_dict(records, top=args.top)
        if args.slowest:
            document["slowest_spans"] = slowest_spans(records,
                                                      top=args.slowest)
        _print(json.dumps(document, indent=2, sort_keys=True))
    else:
        _print(summarize_trace(records, top=args.top))
        if args.slowest:
            _print("")
            _print(render_slowest(
                slowest_spans(records, top=args.slowest),
                title="slowest %d span paths by self-time:"
                      % args.slowest))
    return EXIT_OK


def _cmd_flame(args: argparse.Namespace) -> int:
    records = _read(args.path)
    lines = write_folded(records, args.out, scale=args.scale)
    if lines == 0:
        print("repro-trace: error: %s has no completed spans to fold"
              % args.path, file=sys.stderr)
        return EXIT_FAILED
    _print("wrote %s (%d stacks)" % (args.out, lines))
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    try:
        conditions = [parse_fail_on(spec)
                      for spec in (args.fail_on or ())]
    except FailOnError as exc:
        print("repro-trace: error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    diff = diff_traces(_read(args.path_a), _read(args.path_b))
    violations: List[str] = diff.violations(conditions)
    if args.json:
        document = diff.as_dict()
        document["fail_on"] = [condition.spec for condition in conditions]
        document["violations"] = violations
        _print(json.dumps(document, indent=2, sort_keys=True))
    else:
        _print(render_diff(diff, label_a=args.path_a,
                           label_b=args.path_b, top=args.top))
        for violation in violations:
            print("repro-trace: FAIL %s" % violation, file=sys.stderr)
    if violations:
        return EXIT_FAILED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarize and diff repro.obs JSONL traces.")
    subparsers = parser.add_subparsers(dest="command", required=True)

    summarize = subparsers.add_parser(
        "summarize", help="per-stage breakdown of a trace file")
    summarize.add_argument("path", help="JSONL trace written by --trace")
    summarize.add_argument("--top", type=int, default=20, metavar="N",
                           help="rows per table (default: 20)")
    summarize.add_argument("--json", action="store_true",
                           help="emit the summary as JSON")
    summarize.add_argument("--slowest", type=int, default=0, metavar="N",
                           help="also list the top-N span paths by "
                                "self-time (name[discriminator] chains)")
    summarize.set_defaults(func=_cmd_summarize)

    flame = subparsers.add_parser(
        "flame", help="export folded stacks for flamegraph.pl/speedscope")
    flame.add_argument("path", help="JSONL trace written by --trace")
    flame.add_argument("out", help="folded-stack output file (.folded)")
    flame.add_argument("--scale", type=float, default=1.0, metavar="X",
                       help="multiply span self-times by X (tick clocks "
                            "are integral; default: 1.0)")
    flame.set_defaults(func=_cmd_flame)

    diff = subparsers.add_parser(
        "diff", help="align two traces and report what moved")
    diff.add_argument("path_a", help="baseline trace (A)")
    diff.add_argument("path_b", help="candidate trace (B)")
    diff.add_argument("--top", type=int, default=20, metavar="N",
                      help="rows per table (default: 20)")
    diff.add_argument("--json", action="store_true",
                      help="emit the diff as JSON")
    diff.add_argument("--fail-on", action="append", metavar="SPEC",
                      dest="fail_on",
                      help="exit 1 when SPEC trips; e.g. "
                           "'stage_time>20%%', 'stage_time:detect>50%%', "
                           "'counter:leaks_detected!=0', 'counter:*!=0', "
                           "'spans!=0' (repeatable)")
    diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
