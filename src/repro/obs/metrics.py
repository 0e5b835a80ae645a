"""The metric model: one labelled set of counters, gauges, histograms.

Dependency-free and deliberately boring: a :class:`MetricSet` is plain
picklable data with deterministic merge semantics, so per-shard sets
can cross the :mod:`repro.crawler.parallel` process boundary and be
folded back together in shard-layout order with a reproducible result.
The trace recorder holds one (unlabelled series only); the service's
``/metrics`` registry is the same class under a lock
(:class:`repro.obs.runtime.RuntimeMetrics`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

#: Default histogram bucket upper bounds.  Geometric in powers of four
#: from 1ms to ~17min plus +inf, wide enough for both simulated-seconds
#: site timings and request counts.  Fixed (never host-derived) so two
#: histograms built anywhere always merge bucket-for-bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.004, 0.016, 0.064, 0.25, 1.0, 4.0, 16.0, 64.0, 256.0, 1024.0,
)

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

#: A series is keyed by its sorted ``(label, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


@dataclass
class Histogram:
    """A fixed-bucket distribution (for timings and size counts).

    ``bounds`` are inclusive upper edges; one implicit +inf bucket
    catches the overflow.  Merging requires identical bounds — a
    mismatch raises :class:`ValueError` rather than silently skewing
    the distribution.
    """

    name: str
    bounds: Tuple[float, ...] = DEFAULT_BUCKETS
    bucket_counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0

    def __post_init__(self) -> None:
        if not self.bucket_counts:
            self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        if self.count == 0:
            self.min = self.max = value
        else:
            self.min = min(self.min, value)
            self.max = max(self.max, value)
        self.count += 1
        self.total += value
        self.bucket_counts[self._bucket_index(value)] += 1

    def _bucket_index(self, value: float) -> int:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (same bounds required)."""
        if other.bounds != self.bounds:
            raise ValueError(
                "cannot merge histogram %r: bucket bounds differ"
                % other.name)
        if other.count == 0:
            return
        if self.count == 0:
            self.min, self.max = other.min, other.max
        else:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        self.count += other.count
        self.total += other.total
        for index, bucket in enumerate(other.bucket_counts):
            self.bucket_counts[index] += bucket

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "bucket_counts": list(self.bucket_counts),
        }


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value))
                        for key, value in labels.items()))


@dataclass
class _Family:
    """One metric family: a name, a kind, and its labelled series."""

    name: str
    kind: str
    help: str
    bounds: Tuple[float, ...]
    #: counter/gauge series hold numbers; histogram series Histograms.
    series: Dict[LabelKey, object] = field(default_factory=dict)


class MetricSet:
    """Labelled counters, gauges and histograms, created on first touch.

    Values keep the type they were given: integer increments stay
    integers, so a trace written from a set is byte-stable.  A name
    belongs to one kind for the set's lifetime; touching it as another
    raises :class:`ValueError` rather than silently splitting the
    family.  Histogram bucket bounds are fixed on a family's first
    touch (``bounds`` is the default for families that name none).

    Not thread-safe: :class:`repro.obs.runtime.RuntimeMetrics` adds the
    lock for the service.  No method here calls another public method,
    so that subclass can wrap each one in a plain lock.
    """

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        self._families: Dict[str, _Family] = {}

    # -- mutation --------------------------------------------------------

    def inc(self, name: str, amount: float = 1, help: str = "",
            labels: Optional[Mapping[str, str]] = None) -> None:
        """Add ``amount`` to a counter series (created at 0)."""
        series = self._family(name, KIND_COUNTER, help).series
        key = _label_key(labels)
        series[key] = series.get(key, 0) + amount

    def set_gauge(self, name: str, value: float, help: str = "",
                  labels: Optional[Mapping[str, str]] = None) -> None:
        """Set a gauge series to ``value`` (last write wins)."""
        series = self._family(name, KIND_GAUGE, help).series
        series[_label_key(labels)] = value

    def add_gauge(self, name: str, delta: float, help: str = "",
                  labels: Optional[Mapping[str, str]] = None) -> None:
        """Adjust a gauge series by ``delta`` (e.g. subscriber +1/-1)."""
        series = self._family(name, KIND_GAUGE, help).series
        key = _label_key(labels)
        series[key] = series.get(key, 0) + delta

    def observe(self, name: str, value: float, help: str = "",
                labels: Optional[Mapping[str, str]] = None,
                bounds: Optional[Tuple[float, ...]] = None) -> None:
        """Record ``value`` into a histogram series.

        ``bounds`` fixes the bucket upper edges on the family's first
        touch (default: the set's ``bounds``); later observations reuse
        the family's bounds.
        """
        family = self._family(name, KIND_HISTOGRAM, help, bounds)
        key = _label_key(labels)
        histogram = family.series.get(key)
        if histogram is None:
            histogram = family.series[key] = Histogram(name, family.bounds)
        histogram.observe(value)

    def merge(self, other: "MetricSet") -> None:
        """Fold ``other`` into this set, family by family in name order.

        Counters sum, gauges take ``other``'s value (the later write)
        and histograms merge bucket-wise.  Merging per-shard sets in
        shard-layout order therefore equals recording every value into
        one set.
        """
        for name in sorted(other._families):
            theirs = other._families[name]
            mine = self._family(name, theirs.kind, theirs.help,
                                theirs.bounds)
            for key, value in theirs.series.items():
                if theirs.kind == KIND_COUNTER:
                    mine.series[key] = mine.series.get(key, 0) + value
                elif theirs.kind == KIND_GAUGE:
                    mine.series[key] = value
                else:
                    histogram = mine.series.get(key)
                    if histogram is None:
                        histogram = mine.series[key] = Histogram(
                            name, mine.bounds)
                    histogram.merge(value)

    def _family(self, name: str, kind: str, help: str = "",
                bounds: Optional[Tuple[float, ...]] = None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(
                name, kind, help, tuple(bounds or self.bounds))
        elif family.kind != kind:
            raise ValueError(
                "metric %r is a %s; cannot use it as a %s"
                % (name, family.kind, kind))
        elif help and not family.help:
            family.help = help
        return family

    # -- reading ---------------------------------------------------------

    def value(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> float:
        """A counter/gauge series' current value (0 when absent).

        Histograms have no scalar value and read as 0 here.
        """
        family = self._families.get(name)
        if family is None or family.kind == KIND_HISTOGRAM:
            return 0
        return family.series.get(_label_key(labels), 0)

    def families(self) -> List[Dict[str, object]]:
        """A detached, JSON-able snapshot of every family.

        Families and series come out name-sorted, so two snapshots of
        the same state render byte-identically.  Each family is
        ``{"name", "kind", "help", "bounds", "series"}``; each series
        is ``{"labels": {...}}`` plus ``"value"`` (counter/gauge) or
        ``"histogram"`` (:meth:`Histogram.as_dict`).
        """
        out: List[Dict[str, object]] = []
        for name in sorted(self._families):
            family = self._families[name]
            series: List[Dict[str, object]] = []
            for key in sorted(family.series):
                value = family.series[key]
                entry: Dict[str, object] = {"labels": dict(key)}
                if family.kind == KIND_HISTOGRAM:
                    entry["histogram"] = value.as_dict()
                else:
                    entry["value"] = value
                series.append(entry)
            out.append({"name": name, "kind": family.kind,
                        "help": family.help, "bounds": list(family.bounds),
                        "series": series})
        return out
