"""Folded-stack export: span trees → flamegraph input.

Converts a parsed JSONL trace (see :mod:`repro.obs.export`) into the
folded-stack format consumed by ``flamegraph.pl`` and speedscope: one
line per unique span path, ``root;child;leaf <self-time>``.  Self-time
is a span's duration minus its children's durations (clamped at zero),
so within one clock domain the sum over a subtree telescopes back to
the subtree root's own duration; across domains (stage spans run on
logical ticks, site spans on simulated seconds) :func:`stage_totals`
provides the per-span-name totals that reconcile exactly with
``repro-trace summarize --json`` — the property the tests pin.

Frames are labeled with the same ``name[discriminator]`` segments the
semantic trace differ uses (:mod:`repro.obs.diff`), so a flamegraph and
a ``repro-trace diff`` report speak the same vocabulary.  Identical
sibling paths merge — that aggregation is the point of a flamegraph —
and span clocks pass through untouched; ``--scale`` exists because
stage clocks are logical ticks and site clocks simulated seconds, and a
renderer may want them blown up to integers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .diff import _segment

PathKey = Tuple[int, ...]


def _duration(span: Dict[str, object]) -> float:
    return float(span["end"]) - float(span["start"])  # type: ignore[arg-type]


def self_times(records: Dict[str, List[Dict[str, object]]]
               ) -> List[Tuple[str, float, float]]:
    """``(stack, self_time, total_time)`` per completed span.

    ``stack`` is the ``;``-joined chain of discriminator segments from
    the root; open spans are excluded (they have no duration yet) but
    still contribute as *frames* for their completed children.
    """
    spans = records["span"]
    by_path: Dict[PathKey, Dict[str, object]] = {}
    child_time: Dict[PathKey, float] = {}
    for span in spans:
        path = tuple(int(step) for step in span["path"])  # type: ignore[union-attr]
        by_path[path] = span
        if span.get("end") is not None and len(path) > 1:
            parent = path[:-1]
            child_time[parent] = child_time.get(parent, 0.0) + _duration(span)

    out: List[Tuple[str, float, float]] = []
    for path in sorted(by_path):
        span = by_path[path]
        if span.get("end") is None:
            continue
        total = _duration(span)
        self_time = max(0.0, total - child_time.get(path, 0.0))
        segments = []
        for depth in range(1, len(path) + 1):
            ancestor = by_path.get(path[:depth])
            segments.append(_segment(ancestor) if ancestor is not None
                            else "?")
        out.append((";".join(segments), self_time, total))
    return out


def folded_stacks(records: Dict[str, List[Dict[str, object]]],
                  scale: float = 1.0) -> Dict[str, float]:
    """Aggregate self-times by stack: ``{stack: scaled self-time}``.

    Zero-self-time stacks are kept only if nothing beneath them has
    weight — dropping a parent frame that still anchors children would
    change nothing (folded children carry the full path), but dropping
    a *leaf* would lose a real (if free) span.
    """
    totals: Dict[str, float] = {}
    for stack, self_time, _total in self_times(records):
        totals[stack] = totals.get(stack, 0.0) + self_time * scale
    prefixes = set()
    for stack in totals:
        parts = stack.split(";")
        for depth in range(1, len(parts)):
            prefixes.add(";".join(parts[:depth]))
    return {stack: round(value, 9) for stack, value in totals.items()
            if value > 0.0 or stack not in prefixes}


def _format_weight(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return ("%.6f" % value).rstrip("0").rstrip(".")


def folded_lines(records: Dict[str, List[Dict[str, object]]],
                 scale: float = 1.0) -> List[str]:
    """The folded file's lines, stack-sorted for byte-stable output."""
    stacks = folded_stacks(records, scale=scale)
    return ["%s %s" % (stack, _format_weight(stacks[stack]))
            for stack in sorted(stacks)]


def write_folded(records: Dict[str, List[Dict[str, object]]],
                 path: str, scale: float = 1.0) -> int:
    """Write the folded-stack file; returns the number of lines."""
    lines = folded_lines(records, scale=scale)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def stage_totals(records: Dict[str, List[Dict[str, object]]],
                 scale: float = 1.0) -> Dict[str, float]:
    """Per-span-name totals from the folded view: ``{name: Σ duration}``.

    Groups every completed span's *total* duration by its leaf frame's
    span name — the same clock-domain-local aggregation ``summarize
    --json`` reports in ``span_breakdown`` — so a ``.folded`` file and
    a summary of the same trace reconcile exactly, stage by stage.
    (Self-times telescope to the parent's duration only within one
    clock domain; stage spans run on ticks while site spans run on
    simulated seconds, so cross-name roll-ups are not meaningful.)
    """
    totals: Dict[str, float] = {}
    for stack, _self_time, total in self_times(records):
        leaf = stack.rsplit(";", 1)[-1]
        name = leaf.split("[", 1)[0]
        totals[name] = round(totals.get(name, 0.0) + total * scale, 9)
    return totals


def slowest_spans(records: Dict[str, List[Dict[str, object]]],
                  top: int = 10) -> List[Dict[str, object]]:
    """Top-``top`` stacks by aggregated self-time (descending).

    Each entry: ``path`` (the ``;``-joined discriminator stack),
    ``count`` of merged spans, ``self`` (Σ self-time) and ``total``
    (Σ span durations).  Ties break on path for determinism.
    """
    merged: Dict[str, List[float]] = {}
    for stack, self_time, total in self_times(records):
        entry = merged.setdefault(stack, [0.0, 0.0, 0.0])
        entry[0] += self_time
        entry[1] += total
        entry[2] += 1
    ranked = sorted(merged.items(), key=lambda item: (-item[1][0], item[0]))
    return [{"path": stack, "self": round(values[0], 9),
             "total": round(values[1], 9), "count": int(values[2])}
            for stack, values in ranked[:top]]


def render_slowest(rows: Sequence[Dict[str, object]],
                   title: Optional[str] = None) -> str:
    """Human-readable table for ``summarize --slowest``."""
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  %-56s %6s %12s %12s" % ("path", "count", "self",
                                            "total"))
    for row in rows:
        lines.append("  %-56s %6d %12.3f %12.3f"
                     % (row["path"], row["count"], row["self"],
                        row["total"]))
    return "\n".join(lines)


__all__ = [
    "folded_lines",
    "folded_stacks",
    "render_slowest",
    "self_times",
    "slowest_spans",
    "stage_totals",
    "write_folded",
]
