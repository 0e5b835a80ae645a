"""Trace export: recorder → JSONL, JSONL → summary.

One line per record, stable field order (``sort_keys``), spans in
depth-first tree order with an explicit ``path`` (root index, child
index, ...) so the file is diffable: two deterministic runs produce
byte-identical traces.  The format is self-describing — the first line
is a ``meta`` record with the schema version.
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, Iterator, List, Optional, Tuple

from .recorder import Recorder

#: Schema version of the JSONL trace; bump on incompatible changes.
TRACE_SCHEMA_VERSION = 1


class TraceError(ValueError):
    """A trace file could not be parsed."""


# -- writing ---------------------------------------------------------------

def trace_lines(recorder: Recorder) -> Iterator[str]:
    """The JSONL lines for everything ``recorder`` holds.

    Everything comes from :meth:`Recorder.snapshot`: spans depth-first,
    then counters, gauges and histograms, each name-sorted.
    """
    snapshot = recorder.snapshot()
    yield _dumps({"type": "meta", "schema": TRACE_SCHEMA_VERSION,
                  "kind": "repro-trace"})
    for span, path in _walk_spans(snapshot["spans"]):
        yield _dumps({"type": "span", "name": span["name"],
                      "start": span["start"], "end": span["end"],
                      "depth": len(path) - 1, "path": list(path),
                      "attrs": span["attrs"]})
    for kind in ("counter", "gauge"):
        values = snapshot[kind + "s"]
        for name in values:
            yield _dumps({"type": kind, "name": name,
                          "value": values[name]})
    for record in snapshot["histograms"]:
        yield _dumps(dict(record, type="histogram"))


def _walk_spans(spans: List[Dict[str, object]], path: Tuple[int, ...] = ()
                ) -> Iterator[Tuple[Dict[str, object], Tuple[int, ...]]]:
    """Depth-first ``(span dict, path)`` over snapshot span trees."""
    for index, span in enumerate(spans):
        here = path + (index,)
        yield span, here
        for item in _walk_spans(span["children"], here):
            yield item


def _dumps(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_trace(recorder: Recorder, path: str) -> str:
    """Write ``recorder`` as a JSONL trace to ``path``; returns it."""
    with open(path, "w") as handle:
        for line in trace_lines(recorder):
            handle.write(line + "\n")
    return path


# -- reading ---------------------------------------------------------------

def read_trace(path: str) -> Dict[str, List[Dict[str, object]]]:
    """Parse a JSONL trace into ``{record type: [records]}``.

    Raises :class:`TraceError` on malformed JSON or on a file that
    does not carry the trace meta header — except for a malformed
    *final* line on an otherwise-valid trace, which is skipped with a
    warning: traces are written line-by-line, so a writer killed
    mid-write truncates at most the trailing record and the rest of the
    file is still worth summarizing and diffing.
    """
    records: Dict[str, List[Dict[str, object]]] = {
        "span": [], "counter": [], "gauge": [], "histogram": [],
    }
    meta: Optional[Dict[str, object]] = None
    with open(path) as handle:
        lines = [(number, line.strip())
                 for number, line in enumerate(handle, start=1)
                 if line.strip()]
    for position, (number, line) in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if position == len(lines) - 1 and meta is not None:
                warnings.warn(
                    "%s:%d: truncated trailing line (the writer likely "
                    "died mid-write); skipping the partial record"
                    % (path, number), stacklevel=2)
                break
            raise TraceError("%s:%d: not JSON: %s"
                             % (path, number, exc)) from exc
        kind = record.get("type") if isinstance(record, dict) else None
        if kind == "meta":
            meta = record
        elif kind in records:
            records[kind].append(record)
        else:
            raise TraceError("%s:%d: unknown record type %r"
                             % (path, number, kind))
    if meta is None or meta.get("kind") != "repro-trace":
        raise TraceError("%s: missing repro-trace meta header" % path)
    return records


# -- summarizing -----------------------------------------------------------

def summary_dict(records: Dict[str, List[Dict[str, object]]],
                 top: int = 20) -> Dict[str, object]:
    """Machine-readable summary of a parsed trace (``summarize --json``).

    The same aggregation :func:`summarize_trace` renders for humans —
    per-span-name duration totals, counters, gauges, histograms — as a
    plain JSON-able dict.
    """
    spans = records["span"]
    by_name: Dict[str, List[float]] = {}
    open_spans = 0
    for span in spans:
        end = span.get("end")
        if end is None:
            open_spans += 1
            continue
        by_name.setdefault(str(span["name"]), []).append(
            float(end) - float(span["start"]))  # type: ignore[arg-type]
    breakdown = []
    for name, durations in sorted(by_name.items(),
                                  key=_total_duration_then_name)[:top]:
        total = sum(durations)
        breakdown.append({"name": name, "count": len(durations),
                          "total": total,
                          "mean": total / len(durations)})
    return {
        "schema": TRACE_SCHEMA_VERSION,
        "spans": len(spans),
        "open_spans": open_spans,
        "span_breakdown": breakdown,
        "counters": [{"name": record["name"], "value": record["value"]}
                     for record in records["counter"]],
        "gauges": [{"name": record["name"], "value": record["value"]}
                   for record in records["gauge"]],
        "histograms": [
            {"name": record["name"], "count": record["count"],
             "total": record["total"], "min": record["min"],
             "max": record["max"]}
            for record in records["histogram"]],
    }


def summarize_trace(records: Dict[str, List[Dict[str, object]]],
                    top: int = 20) -> str:
    """Human-readable per-stage breakdown of a parsed trace.

    Span durations are aggregated *per span name* — names share a
    clock domain (simulated seconds for sites/requests, logical ticks
    for study stages), so within a row the totals are comparable.
    """
    summary = summary_dict(records, top)
    counters = summary["counters"]
    gauges = summary["gauges"]
    histograms = summary["histograms"]
    open_spans = summary["open_spans"]
    lines = ["spans: %d   counters: %d   gauges: %d   histograms: %d"
             % (summary["spans"], len(counters), len(gauges),
                len(histograms))]

    if summary["spans"] > open_spans:
        lines.append("")
        lines.append("span breakdown (durations are clock-domain-local):")
        lines.append("  %-24s %8s %12s %12s" % ("name", "count", "total",
                                                "mean"))
        for row in summary["span_breakdown"]:
            lines.append("  %-24s %8d %12.3f %12.4f"
                         % (row["name"], row["count"], row["total"],
                            row["mean"]))
    if open_spans:
        lines.append("  (%d span(s) still open)" % open_spans)

    if counters:
        lines.append("")
        lines.append("counters:")
        for row in counters[:top]:
            lines.append("  %-40s %12g" % (row["name"], row["value"]))
        if len(counters) > top:
            lines.append("  ... and %d more" % (len(counters) - top))

    if gauges:
        lines.append("")
        lines.append("gauges:")
        for row in gauges[:top]:
            lines.append("  %-40s %12g" % (row["name"], row["value"]))

    if histograms:
        lines.append("")
        lines.append("histograms:")
        for row in histograms[:top]:
            count = int(row["count"]) or 1
            lines.append("  %-32s n=%-6d min=%-9.4g mean=%-9.4g max=%-9.4g"
                         % (row["name"], row["count"], row["min"],
                            float(row["total"]) / count, row["max"]))
    return "\n".join(lines)


def _total_duration_then_name(item):
    name, durations = item
    return (-sum(durations), name)


def summarize_recorder(recorder: Recorder, top: int = 20) -> str:
    """Summary straight from a live recorder (no file round-trip)."""
    snapshot = recorder.snapshot()
    records: Dict[str, List[Dict[str, object]]] = {
        "span": [span for span, _ in _walk_spans(snapshot["spans"])],
        "counter": [{"name": name, "value": value}
                    for name, value in snapshot["counters"].items()],
        "gauge": [{"name": name, "value": value}
                  for name, value in snapshot["gauges"].items()],
        "histogram": snapshot["histograms"],
    }
    return summarize_trace(records, top=top)
