#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 benchmarks/suite/run.py --workload study-serial --seed 404 \\
        --seconds 14 --trace 0

A run makes a fixed number of studies: ``--seconds`` divided by the
workload's nominal study time on the reference host, so it takes about
``--seconds`` there and does the same work on every commit compared.
``--trace 0`` runs them untraced, with one fresh-interpreter set-up
timed before each study and after the last, and prints the end-to-end
metrics.  ``--trace 1`` runs half of them untraced and half traced,
then the layer probes, prints the per-layer metrics and writes the
spans as JSONL to ``--trace-out``.  Workloads, metric names, units and
bounds come from ``BENCHMARK.json`` at the repository root.

Every metric is printed as ``name value unit``; lines starting with
``#`` are context; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--record
FILE`` also appends that object, with the workload, seed and host, to
a JSONL file that ``compare.py`` reads.

The program is imported from the ``src/`` directory of the checkout
this file sits in.  Exit status: 0 when every study passed its output
checks, 1 when one did not, 2 when the program or the benchmark
definition cannot be loaded (no result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(SUITE, ".work")
OUT = os.path.join(SUITE, "out")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


class SetupError(Exception):
    """The benchmark cannot run here; reported without a result."""


def load_benchmark() -> Dict[str, object]:
    try:
        with open(BENCHMARK) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SetupError("cannot read %s: %s" % (BENCHMARK, exc)) from exc


def import_program():
    """Import the workloads, and through them the program in ``SRC``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SetupError("no program source at %s" % SRC)
    for path in (SUITE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
        import layers
        import workloads
    except ImportError as exc:
        raise SetupError("cannot import the program: %s" % exc) from exc
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError("repro was imported from %s, not from %s"
                         % (repro.__file__, SRC))
    return workloads, layers


def host() -> Dict[str, object]:
    """What makes two recorded results comparable."""
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform()}


# -- set-up ------------------------------------------------------------------

def ready(workload: str) -> None:
    """The set-up ``setup_s`` times: the imports and, for the service,
    boot until ``/healthz`` answers 200.  Prints ``ready`` when done."""
    workloads, _ = import_program()
    if workload != "service-jobs":
        print("ready", flush=True)
        return
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        client = workloads.ServiceClient(workdir)
        print("ready", flush=True)
        client.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def time_setup(workload: str) -> float:
    """Wall time from process start to ready, in a fresh interpreter."""
    started = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--ready",
         "--workload", workload],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - started
    _, err = child.communicate(timeout=60)
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up child failed (%s): %s"
                           % (child.returncode, err.strip()))
    return elapsed


# -- the measurement -----------------------------------------------------------

#: No study starts once a run has taken this many times its nominal
#: length, so a host far slower than the reference still ends in time.
SAFETY_FACTOR = 4


def run_reps(workload, count: int, tracer,
             setup: Optional[List[float]] = None) -> list:
    """``count`` studies.  With ``setup``, one set-up is timed into it
    before each study and one after the last, so set-up samples spread
    over the run instead of sharing one moment of the host."""
    reps = []
    limit = SAFETY_FACTOR * count * workload.nominal_s
    started = time.perf_counter()
    for index in range(count):
        if reps and time.perf_counter() - started > limit:
            print("# stopped after %d of %d studies: the run passed %d "
                  "times its nominal length" % (len(reps), count,
                                                SAFETY_FACTOR))
            break
        if setup is not None:
            setup.append(time_setup(workload.name))
        reps.append(workload.rep(index, tracer))
    if setup is not None:
        setup.append(time_setup(workload.name))
    return reps


def execute(name: str, seed: int, seconds: float, trace: bool,
            options=None, trace_out: Optional[str] = None):
    """Run one workload; returns (plain reps, traced reps, metrics,
    run-level errors)."""
    workloads, layers = import_program()
    from tracer import Tracer
    options = options or workloads.Options()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    workload = workloads.make_workload(name, seed, options, workdir)
    traced: list = []
    errors: List[str] = []
    try:
        count = workload.studies(seconds)
        if trace:
            count = max(options.min_reps, (count + 1) // 2)
        setup: List[float] = []
        workload.prepare()
        plain = run_reps(workload, count, None, None if trace else setup)
        if trace:
            tracer = Tracer()
            captured = layers.Captured()
            try:
                layers.instrument(tracer, captured)
                traced = run_reps(workload, count, tracer)
                tracer.unpatch()
                probes, probe_errors = layers.run_probes(
                    workload, captured, tracer, traced[-1].fingerprint)
            finally:
                tracer.close()
            errors.extend(probe_errors)
            metrics = layers.layer_metrics(workload, plain, traced, probes)
            if trace_out:
                tracer.write(trace_out, {"workload": name, "seed": seed,
                                         "host": host()}, metrics)
        else:
            metrics = end_to_end(plain, setup)
        errors.extend(workload.verify())
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return plain, traced, metrics, errors


def end_to_end(plain: list, setup: List[float]) -> Dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "study_s": statistics.median(rep.wall for rep in plain),
        "study_cpu_s": statistics.median(rep.cpu for rep in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(own, children) / 1024.0,
    }


def result_line(declared: List[Dict[str, str]], metrics: Dict[str, float],
                reps: list, errors: List[str]) -> Dict[str, object]:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError("metrics not measured: %s" % ", ".join(missing))
    failed = sum(1 for rep in reps if rep.errors)
    return {
        "correct": failed == 0 and not errors,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=404)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal run length, which fixes the number "
                             "of studies (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="span JSONL of a traced run (default: "
                             "benchmarks/suite/out/<workload>-<seed>"
                             ".trace.jsonl)")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="append the result, workload, seed and host "
                             "to this JSONL file")
    parser.add_argument("--ready", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        benchmark = load_benchmark()
        names = [entry["name"] for entry in benchmark["workloads"]]
        if args.workload not in names:
            raise SetupError("unknown workload %r (BENCHMARK.json has %s)"
                             % (args.workload, ", ".join(names)))
        if args.ready:
            ready(args.workload)
            return 0
        import_program()
    except SetupError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 2
    seconds = (benchmark["run_seconds"] if args.seconds is None
               else args.seconds)
    trace_out = None
    if args.trace:
        trace_out = args.trace_out or os.path.join(
            OUT, "%s-%d.trace.jsonl" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)),
                    exist_ok=True)
    plain, traced, metrics, errors = execute(
        args.workload, args.seed, seconds, bool(args.trace),
        trace_out=trace_out)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    line = result_line(declared, metrics, plain + traced, errors)
    report(args, plain, traced, errors, line, trace_out)
    for name, entry in line["metrics"].items():
        print("%s %r %s" % (name, entry["value"], entry["unit"]))
    if args.record:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": seconds, "trace": args.trace, "host": host()}
        record.update(line)
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


def report(args, plain: list, traced: list, errors: List[str],
           line: Dict[str, object], trace_out: Optional[str]) -> None:
    """Context lines: sample counts, spreads, failures, and the layers
    that did no work."""
    print("# workload %s seed %d trace %d" % (args.workload, args.seed,
                                              args.trace))
    for label, reps in (("untraced", plain), ("traced", traced)):
        if reps:
            walls = sorted(rep.wall for rep in reps)
            print("# %s studies n=%d wall median %.4f s min %.4f max %.4f"
                  % (label, len(reps), statistics.median(walls), walls[0],
                     walls[-1]))
    for rep in plain + traced:
        for error in rep.errors:
            print("# FAILED study %d: %s" % (rep.index, error))
    for error in errors:
        print("# FAILED check: %s" % error)
    if trace_out:
        zero = [name for name, entry in line["metrics"].items()
                if entry["value"] == 0]
        if zero:
            print("# 0 on this workload (layer not called, or nothing "
                  "counted): %s" % ", ".join(zero))
        print("# trace written to %s" % trace_out)


if __name__ == "__main__":
    sys.exit(main())
