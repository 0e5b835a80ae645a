#!/usr/bin/env python3
"""Compare two recorded sets of benchmark runs, workload by workload.

    python3 benchmarks/suite/compare.py PARENT.jsonl CHANGE.jsonl

Both files hold the lines ``run.py --record`` appends.  Runs pair up in
file order (parent run *i* with change run *i*), so record them
alternating which side runs first.  Each end-to-end metric of each
workload gets one verdict, by the bounds in ``BENCHMARK.json``:

* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more
  than the parent's interquartile range;
* ``REGRESSED``: the change's median is worse than the parent's by more
  than the bound, however wide the spread;
* ``unresolved``: the parent's own spread (IQR / median) is wider than
  the bound, and not every change run beats every parent run, so the
  runs cannot show that the change stayed within the bound;
* ``within bound`` otherwise.

Failed studies are compared as a ratio of attempted ones and may not
rise.  Results recorded on different hosts (CPU count, Python version,
platform) are refused.  Per-layer medians of traced runs, when both
files have them, are listed for reading the trace; they carry no
verdict.  Exit status: 0 every metric within bound or improved, 1 a
regression or more failed studies, 2 unusable input, 3 no regression
but at least one metric unresolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: Share of pairs the change must win to claim a gain, and the fewest
#: pairs that can show it.
WIN_FRACTION = 0.9
MIN_PAIRS = 10

#: Exit statuses of :func:`main`.
PASSED, REGRESSED, UNUSABLE, UNRESOLVED = 0, 1, 2, 3


class InputError(Exception):
    """Files that cannot be compared."""


def load(path: str) -> List[Dict[str, object]]:
    try:
        with open(path) as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except (OSError, ValueError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, mid, high


def verdict(parent: List[float], change: List[float], bound: float,
            lower_is_better: bool) -> Dict[str, object]:
    """The comparison of one metric on one workload."""
    p_low, _, p_high = quartiles(parent)
    p_median = statistics.median(parent)
    c_median = statistics.median(change)

    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    spread = (p_high - p_low) / p_median if p_median else 0.0
    worse = (c_median - p_median) / p_median if p_median else 0.0
    if not lower_is_better:
        worse = -worse
    if len(pairs) >= MIN_PAIRS and wins >= WIN_FRACTION * len(pairs) \
            and abs(c_median - p_median) > p_high - p_low \
            and better(c_median, p_median):
        label = "improved"
    elif worse > bound:
        label = "REGRESSED"
    elif spread > bound and not all(better(c, p) for c in change
                                    for p in parent):
        label = "unresolved"
    else:
        label = "within bound"
    return {"label": label, "parent": p_median, "change": c_median,
            "worse": worse, "spread": spread, "wins": wins,
            "pairs": len(pairs), "parent_q": (p_low, p_high),
            "change_q": quartiles(change)[0::2]}


def by_workload(records: List[Dict[str, object]], traced: int
                ) -> Dict[str, List[Dict[str, object]]]:
    grouped: Dict[str, List[Dict[str, object]]] = defaultdict(list)
    for record in records:
        if record.get("trace") == traced:
            grouped[str(record["workload"])].append(record)
    return grouped


def values(records: List[Dict[str, object]], metric: str) -> List[float]:
    return [float(record["metrics"][metric]["value"]) for record in records
            if metric in record["metrics"]]


def failed_ratio(records: List[Dict[str, object]]) -> float:
    attempted = sum(int(record["attempted"]) for record in records)
    return sum(int(record["failed"]) for record in records) / max(1,
                                                                  attempted)


def check_hosts(records: List[Dict[str, object]]) -> None:
    hosts = {json.dumps(record.get("host"), sort_keys=True)
             for record in records}
    if len(hosts) != 1:
        raise InputError("results come from different hosts, refusing to "
                         "compare: %s" % "; ".join(sorted(hosts)))


def compare(parent: List[Dict[str, object]], change: List[Dict[str, object]],
            benchmark: Dict[str, object]) -> Tuple[List[str], int]:
    """Report lines and the exit status (``PASSED``, ``REGRESSED`` or
    ``UNRESOLVED``)."""
    check_hosts(parent + change)
    lines: List[str] = []
    labels = set()
    metrics = benchmark["end_to_end"]
    old, new = by_workload(parent, 0), by_workload(change, 0)
    lines.append("%-18s %s" % ("workload", "  ".join(
        "%-28s" % metric["name"] for metric in metrics)))
    details: List[str] = []
    for entry in benchmark["workloads"]:
        name = entry["name"]
        if name not in old or name not in new:
            lines.append("%-18s (not in both files)" % name)
            continue
        cells = []
        for metric in metrics:
            result = verdict(values(old[name], metric["name"]),
                             values(new[name], metric["name"]),
                             float(metric["bound"]),
                             metric["better"] == "lower")
            labels.add(result["label"])
            cells.append("%-28s" % ("%+.1f%% %s %d/%d" % (
                100 * result["worse"], result["label"], result["wins"],
                result["pairs"])))
            details.append(
                "  %s %s: parent %.6g [%.6g, %.6g] change %.6g [%.6g, %.6g]"
                " %s; parent spread %.1f%% of median, bound %.0f%%"
                % (name, metric["name"], result["parent"],
                   result["parent_q"][0], result["parent_q"][1],
                   result["change"], result["change_q"][0],
                   result["change_q"][1], metric["unit"],
                   100 * result["spread"], 100 * float(metric["bound"])))
        ratios = failed_ratio(old[name]), failed_ratio(new[name])
        if ratios[1] > ratios[0]:
            labels.add("REGRESSED")
            cells.append("FAILED RATIO ROSE %.3f -> %.3f" % ratios)
        lines.append("%-18s %s" % (name, "  ".join(cells)))
    lines.append("")
    lines.append("(cells: change in median, worse is positive; verdict; "
                 "pairs the change won)")
    lines.extend(["", "median [first quartile, third quartile]:"] + details)
    lines.extend(layer_lines(parent, change, benchmark))
    if "REGRESSED" in labels:
        return lines, REGRESSED
    return lines, UNRESOLVED if "unresolved" in labels else PASSED


def layer_lines(parent: List[Dict[str, object]],
                change: List[Dict[str, object]],
                benchmark: Dict[str, object]) -> List[str]:
    old, new = by_workload(parent, 1), by_workload(change, 1)
    lines: List[str] = []
    for name in sorted(set(old) & set(new)):
        lines.append("")
        lines.append("per-layer medians, %s (traced runs, no verdict):"
                     % name)
        for metric in benchmark["per_layer"]:
            before = values(old[name], metric["name"])
            after = values(new[name], metric["name"])
            if before and after:
                lines.append("  %-26s %12.6g -> %12.6g %s" % (
                    metric["name"], statistics.median(before),
                    statistics.median(after), metric["unit"]))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two recorded sets of benchmark runs.")
    parser.add_argument("parent", help="runs of the parent commit (JSONL)")
    parser.add_argument("change", help="runs of the change (JSONL)")
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            benchmark = json.load(handle)
        lines, status = compare(load(args.parent), load(args.change),
                                benchmark)
    except (OSError, ValueError, KeyError, InputError) as exc:
        print("compare.py: %s" % exc, file=sys.stderr)
        return UNUSABLE
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
