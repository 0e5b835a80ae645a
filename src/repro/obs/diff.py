"""Trace diffing: align two JSONL traces, report what moved.

The point of a byte-stable trace format is that two runs can be
*compared*, not just recorded.  This module aligns two parsed traces
(:func:`repro.obs.export.read_trace` output) span-by-span along the
study > stage > shard > site > request hierarchy and reports:

* **per-stage timing deltas** — total duration per ``kind="stage"``
  span name (crawl, tokens, detect, analysis, ...), in each name's own
  clock domain;
* **per-name span timing deltas** — the same aggregation over every
  span name (shard, site, request, ...);
* **counter / gauge / histogram deltas** — metric values that differ
  (a metric missing on one side counts as 0 there, and the absence is
  reported);
* **added / removed span subtrees** — top-most aligned keys present in
  only one trace, with the size of the vanished/appeared subtree.

Alignment is *semantic*, not positional: each span gets a key built
from its ancestry of ``name[discriminator]`` segments (domain for
sites, shard index for shards, host for requests) plus an occurrence
counter for repeated siblings — so inserting one site span early in a
trace does not misalign every later span the way raw ``path`` indices
would.

:func:`parse_fail_on` / :meth:`TraceDiff.violations` turn a diff into
a CI gate: specs like ``stage_time>20%``, ``stage_time:detect>0.5``,
``counter:leaks_detected!=0``, ``counter:*!=0`` or ``spans!=0`` make
``repro-trace diff A B --fail-on ...`` exit nonzero exactly when the
two runs genuinely drifted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Dict, List, Sequence, Tuple

#: Attr keys that identify a span among its siblings, in priority order.
_DISCRIMINATOR_ATTRS = ("domain", "index", "host", "kind")

#: Relative-change value reported when the baseline side is zero but
#: the other side is not (an infinite relative increase, clamped).
_REL_WHEN_BASE_ZERO = float("inf")


#: The ``--fail-on`` spec grammar, echoed by every parse error so a
#: mistyped gate spec teaches its own syntax.
FAIL_ON_GRAMMAR = (
    "KIND[:NAME]OP LIMIT[%] where KIND is stage_time|counter|gauge|"
    "histogram|spans, NAME is a metric/stage name or glob (spans takes "
    "none), OP is one of > >= != == < <=, and % thresholds apply to "
    "stage_time only. Examples: 'stage_time>20%', "
    "'stage_time:detect>0.5', 'counter:leaks_detected!=0', "
    "'counter:*!=0', 'histogram:*.count!=0', 'spans!=0'"
)


class FailOnError(ValueError):
    """A ``--fail-on`` spec could not be parsed."""


# ---------------------------------------------------------------------------
# The delta records.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricDelta:
    """One metric (counter/gauge/histogram field) that differs."""

    kind: str       # "counter" | "gauge" | "histogram"
    name: str       # metric name ("hist.count"-style for histograms)
    a: float
    b: float
    #: Which side(s) actually defined the metric ("both", "a", "b").
    present: str = "both"

    @property
    def delta(self) -> float:
        return self.b - self.a

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "name": self.name, "a": self.a,
                "b": self.b, "delta": self.delta, "present": self.present}


@dataclass(frozen=True)
class TimingDelta:
    """Aggregate duration change for one span name."""

    name: str
    a_total: float
    b_total: float
    a_count: int
    b_count: int
    stage: bool = False     # True when aggregated over kind="stage" spans

    @property
    def delta(self) -> float:
        return self.b_total - self.a_total

    @property
    def relative(self) -> float:
        """(b - a) / a; +inf when a == 0 and b != 0; 0 when both are 0."""
        if self.a_total == 0:
            return 0.0 if self.b_total == 0 else _REL_WHEN_BASE_ZERO
        return (self.b_total - self.a_total) / self.a_total

    def as_dict(self) -> Dict[str, object]:
        rel = self.relative
        return {"name": self.name, "a_total": self.a_total,
                "b_total": self.b_total, "a_count": self.a_count,
                "b_count": self.b_count, "delta": self.delta,
                "relative": None if rel == _REL_WHEN_BASE_ZERO else rel,
                "stage": self.stage}


@dataclass(frozen=True)
class SubtreeChange:
    """A span subtree present in only one trace."""

    key: str        # the aligned key of the subtree root
    spans: int      # spans in the subtree (root included)

    def as_dict(self) -> Dict[str, object]:
        return {"key": self.key, "spans": self.spans}


@dataclass
class TraceDiff:
    """Everything that differs between trace A and trace B."""

    stages: List[TimingDelta] = field(default_factory=list)
    spans: List[TimingDelta] = field(default_factory=list)
    counters: List[MetricDelta] = field(default_factory=list)
    gauges: List[MetricDelta] = field(default_factory=list)
    histograms: List[MetricDelta] = field(default_factory=list)
    added: List[SubtreeChange] = field(default_factory=list)
    removed: List[SubtreeChange] = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        """True when the two traces are observably identical."""
        return (not self.counters and not self.gauges
                and not self.histograms and not self.added
                and not self.removed
                and all(d.delta == 0 for d in self.stages)
                and all(d.delta == 0 for d in self.spans))

    def metric_deltas(self) -> List[MetricDelta]:
        return list(self.counters) + list(self.gauges) + \
            list(self.histograms)

    def violations(self,
                   conditions: Sequence["FailCondition"]) -> List[str]:
        """Human-readable description of every tripped condition."""
        out: List[str] = []
        for condition in conditions:
            out.extend(condition.check(self))
        return out

    def as_dict(self) -> Dict[str, object]:
        return {
            "empty": self.is_empty,
            "stages": [d.as_dict() for d in self.stages],
            "spans": [d.as_dict() for d in self.spans],
            "counters": [d.as_dict() for d in self.counters],
            "gauges": [d.as_dict() for d in self.gauges],
            "histograms": [d.as_dict() for d in self.histograms],
            "added": [c.as_dict() for c in self.added],
            "removed": [c.as_dict() for c in self.removed],
        }


# ---------------------------------------------------------------------------
# Span-tree reconstruction and alignment.
# ---------------------------------------------------------------------------

class _Node:
    """One span record rebuilt into a tree, with its aligned key."""

    __slots__ = ("record", "key", "children")

    def __init__(self, record: Dict[str, object], key: str) -> None:
        self.record = record
        self.key = key
        self.children: List["_Node"] = []

    @property
    def duration(self) -> float:
        end = self.record.get("end")
        if end is None:
            return 0.0
        return float(end) - float(self.record["start"])  # type: ignore

    def subtree_size(self) -> int:
        return 1 + sum(child.subtree_size() for child in self.children)


def _segment(record: Dict[str, object]) -> str:
    attrs = record.get("attrs") or {}
    for key in _DISCRIMINATOR_ATTRS:
        if isinstance(attrs, dict) and key in attrs:
            return "%s[%s=%s]" % (record["name"], key, attrs[key])
    return str(record["name"])


def _build_tree(span_records: Sequence[Dict[str, object]]) -> List[_Node]:
    """Rebuild the span forest from flat depth-first ``path`` records.

    Keys are assigned during the walk: a node's key is its parent's key
    plus its own ``name[discriminator]`` segment, suffixed ``#n`` for
    the n-th sibling with an identical segment — stable under subtree
    insertion/removal, unlike the positional ``path``.
    """
    roots: List[_Node] = []
    by_path: Dict[Tuple[int, ...], _Node] = {}
    seen: Dict[Tuple[str, str], int] = {}   # (parent key, segment) -> count
    for record in span_records:
        path = tuple(int(part) for part in record.get("path", ()))
        if not path:
            continue
        parent = by_path.get(path[:-1])
        parent_key = parent.key if parent is not None else ""
        segment = _segment(record)
        occurrence = seen.get((parent_key, segment), 0)
        seen[(parent_key, segment)] = occurrence + 1
        key = "%s/%s" % (parent_key, segment)
        if occurrence:
            key += "#%d" % occurrence
        node = _Node(record, key)
        by_path[path] = node
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    return roots


def _index_nodes(roots: Sequence[_Node]) -> Dict[str, _Node]:
    out: Dict[str, _Node] = {}

    def walk(node: _Node) -> None:
        out[node.key] = node
        for child in node.children:
            walk(child)

    for root in roots:
        walk(root)
    return out


def _topmost_only(nodes: Dict[str, _Node],
                  other: Dict[str, _Node]) -> List[SubtreeChange]:
    """Subtree changes for keys in ``nodes`` missing from ``other``,
    reporting only the top-most root of each vanished subtree."""
    changes: List[SubtreeChange] = []
    for key in sorted(nodes):
        if key in other:
            continue
        parent_key = key.rsplit("/", 1)[0]
        if parent_key and parent_key in nodes and parent_key not in other:
            continue    # an ancestor already reports this subtree
        changes.append(SubtreeChange(key=key,
                                     spans=nodes[key].subtree_size()))
    return changes


# ---------------------------------------------------------------------------
# The diff itself.
# ---------------------------------------------------------------------------

def _metric_table(records: Sequence[Dict[str, object]]) -> Dict[str, float]:
    return {str(record["name"]): float(record["value"])  # type: ignore
            for record in records}


def _metric_deltas(kind: str, a: Dict[str, float],
                   b: Dict[str, float]) -> List[MetricDelta]:
    deltas: List[MetricDelta] = []
    for name in sorted(set(a) | set(b)):
        value_a, value_b = a.get(name, 0.0), b.get(name, 0.0)
        present = ("both" if name in a and name in b
                   else "a" if name in a else "b")
        if value_a != value_b or present != "both":
            deltas.append(MetricDelta(kind=kind, name=name, a=value_a,
                                      b=value_b, present=present))
    return deltas


def _histogram_deltas(a: Sequence[Dict[str, object]],
                      b: Sequence[Dict[str, object]]) -> List[MetricDelta]:
    """Histograms compare on their two scalar moments, count and total."""
    table_a: Dict[str, float] = {}
    table_b: Dict[str, float] = {}
    for records, table in ((a, table_a), (b, table_b)):
        for record in records:
            for moment in ("count", "total"):
                table["%s.%s" % (record["name"], moment)] = \
                    float(record[moment])  # type: ignore
    return _metric_deltas("histogram", table_a, table_b)


def _timing_deltas(nodes_a: Dict[str, _Node],
                   nodes_b: Dict[str, _Node]) -> Tuple[List[TimingDelta],
                                                       List[TimingDelta]]:
    """(stage deltas, per-name deltas) over the aligned span pairs.

    Durations aggregate per span name over *matched* keys only, so an
    added/removed subtree shows up once (in ``added``/``removed``)
    instead of also skewing every timing row.
    """
    totals: Dict[str, List[float]] = {}   # name -> [a_total, b_total, na, nb]
    stage_names: Dict[str, bool] = {}
    for key in set(nodes_a) & set(nodes_b):
        node_a, node_b = nodes_a[key], nodes_b[key]
        name = str(node_a.record["name"])
        row = totals.setdefault(name, [0.0, 0.0, 0, 0])
        row[0] += node_a.duration
        row[1] += node_b.duration
        row[2] += 1
        row[3] += 1
        attrs = node_a.record.get("attrs") or {}
        if isinstance(attrs, dict) and attrs.get("kind") == "stage":
            stage_names[name] = True
    spans = [TimingDelta(name=name, a_total=row[0], b_total=row[1],
                         a_count=int(row[2]), b_count=int(row[3]),
                         stage=name in stage_names)
             for name, row in sorted(totals.items())]
    stages = [delta for delta in spans if delta.stage]
    return stages, spans


def diff_traces(a: Dict[str, List[Dict[str, object]]],
                b: Dict[str, List[Dict[str, object]]]) -> TraceDiff:
    """Diff two parsed traces (:func:`repro.obs.export.read_trace`).

    Returns a :class:`TraceDiff`; two byte-identical traces produce an
    empty one (``diff.is_empty``).
    """
    roots_a = _build_tree(a.get("span", ()))
    roots_b = _build_tree(b.get("span", ()))
    nodes_a = _index_nodes(roots_a)
    nodes_b = _index_nodes(roots_b)
    stages, spans = _timing_deltas(nodes_a, nodes_b)
    return TraceDiff(
        stages=stages,
        spans=spans,
        counters=_metric_deltas("counter", _metric_table(a.get("counter", ())),
                                _metric_table(b.get("counter", ()))),
        gauges=_metric_deltas("gauge", _metric_table(a.get("gauge", ())),
                              _metric_table(b.get("gauge", ()))),
        histograms=_histogram_deltas(a.get("histogram", ()),
                                     b.get("histogram", ())),
        added=_topmost_only(nodes_b, nodes_a),
        removed=_topmost_only(nodes_a, nodes_b),
    )


# ---------------------------------------------------------------------------
# --fail-on conditions.
# ---------------------------------------------------------------------------

_OPS = {
    ">": lambda value, limit: value > limit,
    ">=": lambda value, limit: value >= limit,
    "!=": lambda value, limit: value != limit,
    "<": lambda value, limit: value < limit,
    "<=": lambda value, limit: value <= limit,
    "==": lambda value, limit: value == limit,
}


@dataclass(frozen=True)
class FailCondition:
    """One parsed ``--fail-on`` threshold.

    ``kind`` is ``stage_time`` (relative or absolute per-stage duration
    increase), ``counter``/``gauge``/``histogram`` (value delta), or
    ``spans`` (added + removed subtree count).  ``pattern`` is an
    fnmatch glob over names (``*`` for all); ``percent`` interprets the
    limit as a relative change for timing conditions.
    """

    kind: str
    pattern: str
    op: str
    limit: float
    percent: bool
    spec: str           # the original text, for error messages

    def check(self, diff: TraceDiff) -> List[str]:
        compare = _OPS[self.op]
        hits: List[str] = []
        if self.kind == "spans":
            value = float(len(diff.added) + len(diff.removed))
            if compare(value, self.limit):
                hits.append("%s: %d added + %d removed span subtree(s)"
                            % (self.spec, len(diff.added),
                               len(diff.removed)))
            return hits
        if self.kind == "stage_time":
            for delta in diff.stages:
                if not fnmatchcase(delta.name, self.pattern):
                    continue
                value = (delta.relative if self.percent
                         else float(delta.delta))
                if compare(value, self.limit):
                    hits.append(
                        "%s: stage %r moved %g -> %g (%+.1f%%)"
                        % (self.spec, delta.name, delta.a_total,
                           delta.b_total, 100.0 * delta.relative
                           if delta.relative != _REL_WHEN_BASE_ZERO
                           else float("inf")))
            return hits
        for delta in diff.metric_deltas():
            if delta.kind != self.kind:
                continue
            if not fnmatchcase(delta.name, self.pattern):
                continue
            if compare(float(delta.delta), self.limit):
                hits.append("%s: %s %r moved %g -> %g (delta %+g)"
                            % (self.spec, delta.kind, delta.name,
                               delta.a, delta.b, delta.delta))
        return hits


def parse_fail_on(spec: str) -> FailCondition:
    """Parse one ``--fail-on`` spec.

    Grammar::

        stage_time>20%            any stage's total grew more than 20%
        stage_time:detect>0.5     the detect stage grew more than 50%
        stage_time:crawl>100      absolute delta (no % sign) over 100
        counter:leaks_detected!=0 that counter's delta is nonzero
        counter:*!=0              any counter delta is nonzero
        gauge:shards.total!=0     gauge deltas, same shape
        histogram:*.count!=0      histogram count/total moments
        spans!=0                  any added or removed span subtree

    Raises :class:`FailOnError` on anything else; every error message
    echoes the supported grammar (:data:`FAIL_ON_GRAMMAR`).
    """
    def fail(why: str) -> "FailOnError":
        return FailOnError("--fail-on %r: %s; expected %s"
                           % (spec, why, FAIL_ON_GRAMMAR))

    text = spec.strip()
    for op in (">=", "<=", "!=", "==", ">", "<"):
        index = text.find(op)
        if index > 0:
            left, right = text[:index], text[index + len(op):]
            break
    else:
        raise fail("missing a comparison operator")
    right = right.strip()
    percent = right.endswith("%")
    if percent:
        right = right[:-1]
    try:
        limit = float(right)
    except ValueError:
        raise fail("limit %r is not a number" % right) from None
    if percent:
        limit /= 100.0
    left = left.strip()
    if ":" in left:
        kind, pattern = left.split(":", 1)
    else:
        kind, pattern = left, "*"
    kind = kind.strip()
    pattern = pattern.strip() or "*"
    if kind not in ("stage_time", "counter", "gauge", "histogram",
                    "spans"):
        raise fail("unknown kind %r" % kind)
    if kind == "spans" and pattern != "*":
        raise fail("spans takes no name")
    if percent and kind != "stage_time":
        raise fail("%% thresholds only apply to stage_time")
    # stage_time defaults to a relative reading when the limit came
    # with a % sign; counters and friends always compare the delta.
    return FailCondition(kind=kind, pattern=pattern, op=op, limit=limit,
                         percent=percent, spec=spec)


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

def render_diff(diff: TraceDiff, label_a: str = "A", label_b: str = "B",
                top: int = 20) -> str:
    """Human-readable report of a :class:`TraceDiff`."""
    lines: List[str] = []
    if diff.is_empty:
        return "traces are observably identical (empty delta)"
    lines.append("trace diff: %s -> %s" % (label_a, label_b))

    moved_stages = [d for d in diff.stages if d.delta != 0]
    if moved_stages:
        lines.append("")
        lines.append("stage timing (clock-domain-local totals):")
        lines.append("  %-16s %12s %12s %10s" % ("stage", label_a,
                                                 label_b, "change"))
        for delta in moved_stages[:top]:
            lines.append("  %-16s %12.3f %12.3f %s"
                         % (delta.name, delta.a_total, delta.b_total,
                            _change_label(delta)))

    moved_spans = [d for d in diff.spans if d.delta != 0 and not d.stage]
    if moved_spans:
        lines.append("")
        lines.append("span timing by name (aligned spans only):")
        lines.append("  %-16s %12s %12s %10s" % ("name", label_a,
                                                 label_b, "change"))
        for delta in moved_spans[:top]:
            lines.append("  %-16s %12.3f %12.3f %s"
                         % (delta.name, delta.a_total, delta.b_total,
                            _change_label(delta)))

    for title, deltas in (("counters", diff.counters),
                          ("gauges", diff.gauges),
                          ("histograms", diff.histograms)):
        if not deltas:
            continue
        lines.append("")
        lines.append("%s:" % title)
        for delta in deltas[:top]:
            note = "" if delta.present == "both" else \
                "   (only in %s)" % delta.present
            lines.append("  %-40s %12g -> %-12g %+g%s"
                         % (delta.name, delta.a, delta.b, delta.delta,
                            note))
        if len(deltas) > top:
            lines.append("  ... and %d more" % (len(deltas) - top))

    for title, changes in (("added span subtrees (only in %s)" % label_b,
                            diff.added),
                           ("removed span subtrees (only in %s)" % label_a,
                            diff.removed)):
        if not changes:
            continue
        lines.append("")
        lines.append("%s:" % title)
        for change in changes[:top]:
            lines.append("  %s   (%d span(s))" % (change.key,
                                                  change.spans))
        if len(changes) > top:
            lines.append("  ... and %d more" % (len(changes) - top))
    return "\n".join(lines)


def _change_label(delta: TimingDelta) -> str:
    rel = delta.relative
    if rel == _REL_WHEN_BASE_ZERO:
        return "+inf%"
    return "%+.1f%%" % (100.0 * rel)
