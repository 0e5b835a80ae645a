"""The recorder: one study's metrics and span tree.

A :class:`Recorder` is the unit of observability state the pipeline
threads through itself: a :class:`~repro.obs.metrics.MetricSet` of
counters/gauges/histograms plus a hierarchy of :class:`Span` intervals
(study → stage → shard → site → request).  It is picklable as a whole
(plain dataclasses, no lambdas, no handles — the PKL301-303 contract),
so per-shard recorders travel back over the
:mod:`repro.crawler.parallel` process boundary and merge
deterministically in shard-layout order via :meth:`Recorder.adopt`.

Times come from an injectable :class:`~repro.obs.clock.Clock`
(default: the deterministic :class:`~repro.obs.clock.TickClock`);
callers on the crawl path stamp spans with explicit simulated-clock
times instead.  Span times are therefore *clock-domain-local*: compare
durations within one span name, never across names.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .clock import Clock, TickClock
from .metrics import (DEFAULT_BUCKETS, KIND_COUNTER, KIND_GAUGE,
                      KIND_HISTOGRAM, MetricSet)


@dataclass
class Span:
    """One named interval in the trace tree.

    ``end`` is ``None`` while the span is open.  ``attrs`` carry small
    identifying facts (domain, shard index, stage kind) — never PII.
    """

    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Span length in its own clock domain (0.0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Depth-first (span, depth) traversal of this subtree."""
        yield self, depth
        for child in self.children:
            for item in child.walk(depth + 1):
                yield item

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
            "children": [child.as_dict() for child in self.children],
        }


class Recorder:
    """Collects metrics and spans for one study (or one shard of one).

    All mutators are cheap and deterministic; nothing here reads the
    host clock, the filesystem or the network.  The no-op variant is
    :class:`NullRecorder` — pipeline code holds a recorder
    unconditionally and the null one makes tracing-off runs free.
    """

    enabled = True

    def __init__(self, clock: Optional[Clock] = None) -> None:
        self.clock: Clock = clock or TickClock()
        #: Every metric recorded so far; series here are unlabelled.
        self.metrics = MetricSet()
        #: Completed/open top-level spans, in recording order.
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # -- metrics ---------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.metrics.inc(name, n)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self.metrics.set_gauge(name, value)

    def observe(self, name: str, value: float,
                bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        """Record ``value`` into histogram ``name``."""
        self.metrics.observe(name, value, bounds=bounds)

    # -- spans -----------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, start: Optional[float] = None,
                   **attrs: object) -> Span:
        """Open a span under the current one (or as a new root)."""
        span = Span(name=name,
                    start=self.clock.now() if start is None else start,
                    attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def end_span(self, end: Optional[float] = None) -> Span:
        """Close the innermost open span; raises if none is open."""
        if not self._stack:
            raise RuntimeError("no open span to end")
        span = self._stack.pop()
        span.end = self.clock.now() if end is None else end
        return span

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        """``with recorder.span("detect"):`` — open/close around a block."""
        span = self.start_span(name, **attrs)
        try:
            yield span
        finally:
            # Unwind to (and including) our span even if the body
            # leaked opens — the tree stays well-formed under errors.
            while self._stack and self._stack[-1] is not span:
                self.end_span()
            if self._stack and self._stack[-1] is span:
                self.end_span()

    def add_span(self, name: str, start: float, end: float,
                 **attrs: object) -> Span:
        """Record an already-measured interval under the current span."""
        span = Span(name=name, start=start, end=end, attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        return span

    @property
    def open_span_count(self) -> int:
        return len(self._stack)

    # -- merge -----------------------------------------------------------

    def adopt(self, other: "Recorder") -> None:
        """Fold ``other`` into this recorder.

        Metrics merge by :meth:`MetricSet.merge` (counters sum, gauges
        last-write-wins, histograms bucket-wise); ``other``'s root spans
        are grafted, in their recorded order, under this recorder's
        current span (or as new roots).  Adopting shard recorders in
        shard-layout order is what makes the merged trace independent
        of the worker count.
        """
        if not other.enabled:
            return
        self.metrics.merge(other.metrics)
        target = self._stack[-1].children if self._stack else self.roots
        target.extend(other.roots)

    # -- snapshots -------------------------------------------------------

    def all_spans(self) -> Iterator[Tuple[Span, int]]:
        """Depth-first (span, depth) over every recorded tree."""
        for root in self.roots:
            for item in root.walk():
                yield item

    def span_count(self) -> int:
        return sum(1 for _ in self.all_spans())

    def snapshot(self) -> Dict[str, object]:
        """A fully deterministic, JSON-able dump of everything recorded.

        Two recorders are observably identical iff their snapshots are
        equal — this is the object the worker-count-invariance tests
        compare, and the one the trace exporter and summary read.
        Counters and gauges map name → value, histograms are
        :meth:`Histogram.as_dict` records; all three are name-sorted.
        """
        scalars: Dict[str, Dict[str, object]] = {KIND_COUNTER: {},
                                                 KIND_GAUGE: {}}
        histograms: List[object] = []
        for family in self.metrics.families():
            kind, name = family["kind"], family["name"]
            for entry in family["series"]:
                if kind == KIND_HISTOGRAM:
                    histograms.append(entry["histogram"])
                else:
                    scalars[kind][name] = entry["value"]
        return {
            "counters": scalars[KIND_COUNTER],
            "gauges": scalars[KIND_GAUGE],
            "histograms": histograms,
            "spans": [root.as_dict() for root in self.roots],
        }


class NullRecorder(Recorder):
    """A recorder that records nothing (tracing off).

    Every mutator is a no-op, so holding one unconditionally costs a
    method call and nothing else; :meth:`snapshot` is always empty.
    """

    enabled = False

    def count(self, name: str, n: float = 1) -> None:
        pass

    def gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float,
                bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        pass

    def start_span(self, name: str, start: Optional[float] = None,
                   **attrs: object) -> Span:
        return Span(name=name, start=0.0, end=0.0)

    def end_span(self, end: Optional[float] = None) -> Span:
        return Span(name="", start=0.0, end=0.0)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        yield Span(name=name, start=0.0, end=0.0)

    def add_span(self, name: str, start: float, end: float,
                 **attrs: object) -> Span:
        return Span(name=name, start=start, end=end)

    def adopt(self, other: "Recorder") -> None:
        pass


#: Shared no-op recorder: the default wherever tracing is not enabled.
NULL_RECORDER = NullRecorder()


def merge_recorders(recorders: Sequence[Recorder],
                    clock: Optional[Clock] = None) -> Recorder:
    """A fresh recorder holding ``recorders`` merged in the given order.

    The caller supplies them in a deterministic order (for shard
    results: shard-layout order) and the merge result is then itself
    deterministic — identical no matter where or under how many workers
    the inputs were produced.
    """
    merged = Recorder(clock=clock)
    for recorder in recorders:
        merged.adopt(recorder)
    return merged
