"""Operational runtime telemetry: the wall-clock side of observability.

Everything in :mod:`repro.obs` so far lives in the *deterministic*
domain — recorders on tick clocks, traces that are bit-identical run
to run.  This module is deliberately the other half: the thread-safe
:class:`RuntimeMetrics` registry (the recorder's
:class:`~repro.obs.metrics.MetricSet` under a lock) the service updates
on every request and job transition (queue depth, jobs by state,
submit/run latency, SSE subscribers, bytes served), plus per-shard
*resource accounting* (:class:`ResourceSampler` over
``resource.getrusage`` + GC stats) that rides the existing heartbeat
channel, and the process-wide pause of the cyclic GC (:data:`GC_PAUSE`)
that a study's entry points hold while they build its long-lived data.

The contract that keeps the two domains apart:

* **Runtime telemetry never feeds a fingerprint or a trace.**  Nothing
  here writes into a :class:`~repro.obs.recorder.Recorder`; resource
  samples travel on :class:`~repro.obs.progress.HeartbeatEvent` (the
  live view that is already outside every determinism contract) and
  surface in ``progress.jsonl``, bench reports and the study manifest
  — never in ``trace.jsonl`` and never in a dataset.  A crawl with
  resource telemetry on is bit-identical to one with it off, at any
  worker count (``tests/test_obs_resources.py`` pins this).
* **Wall-clock and OS counters are the point**, so the module sits in
  the statan determinism scope with explicit ``DET101`` suppressions:
  every host-clock read below is ops telemetry by contract.

Scrape side: :func:`repro.obs.exposition.render_prometheus` turns a
registry into Prometheus text for ``GET /metrics``; ``repro-study
metrics`` is the one-shot/``--live`` scraper (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import contextlib
import functools
import gc
import threading
import time
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple, TypeVar, cast)

from .metrics import MetricSet

try:                        # Unix-only; the sampler degrades gracefully.
    import resource as _resource
except ImportError:         # pragma: no cover - non-Unix platforms
    _resource = None  # type: ignore[assignment]

#: Latency bucket upper bounds (seconds) for service histograms:
#: 5ms to 5min, wide enough for both a submit() and a whole study run.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0,
)

def wall_now() -> float:
    """Wall-clock seconds for runtime telemetry (monotonic).

    The sanctioned ops clock: latency histograms and uptime only —
    nothing returned here may reach a fingerprint or a trace.
    """
    return time.perf_counter()  # statan: ignore[DET101] -- ops telemetry clock by contract; never feeds a fingerprint or trace


class RuntimeMetrics(MetricSet):
    """The service's :class:`~repro.obs.metrics.MetricSet`, under a lock.

    Same model, same semantics as the trace recorder's set — families
    created on first touch, a name bound to one kind, series keyed by
    sorted labels — with :data:`LATENCY_BUCKETS` as the default
    histogram bounds.  Every method runs under one lock, so
    :meth:`families` is a consistent snapshot while updates keep
    landing.  Instances are parent-side service state and never cross
    a process boundary (workers report resources via heartbeats).
    """

    def __init__(self) -> None:
        super().__init__(bounds=LATENCY_BUCKETS)
        self._lock = threading.Lock()  # statan: ignore[PKL303] -- parent-side registry, never pickled

    def inc(self, name: str, amount: float = 1, help: str = "",
            labels: Optional[Mapping[str, str]] = None) -> None:
        with self._lock:
            super().inc(name, amount, help, labels)

    def set_gauge(self, name: str, value: float, help: str = "",
                  labels: Optional[Mapping[str, str]] = None) -> None:
        with self._lock:
            super().set_gauge(name, value, help, labels)

    def add_gauge(self, name: str, delta: float, help: str = "",
                  labels: Optional[Mapping[str, str]] = None) -> None:
        with self._lock:
            super().add_gauge(name, delta, help, labels)

    def observe(self, name: str, value: float, help: str = "",
                labels: Optional[Mapping[str, str]] = None,
                bounds: Optional[Tuple[float, ...]] = None) -> None:
        with self._lock:
            super().observe(name, value, help, labels, bounds)

    def merge(self, other: MetricSet) -> None:
        with self._lock:
            super().merge(other)

    def value(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> float:
        with self._lock:
            return super().value(name, labels)

    def families(self) -> List[Dict[str, object]]:
        with self._lock:
            return super().families()


# ---------------------------------------------------------------------------
# Per-shard resource accounting (getrusage + GC).
# ---------------------------------------------------------------------------

def sample_resources() -> Dict[str, float]:
    """One raw process-resource sample: CPU, peak RSS, GC tallies.

    ``cpu_user_seconds``/``cpu_system_seconds`` are the executing
    process's *cumulative* rusage counters; ``max_rss_kb`` its peak
    resident set (KiB on Linux); ``gc_collections``/``gc_collected``
    sum the interpreter's per-generation GC stats.  On platforms
    without the ``resource`` module only the GC keys appear.
    """
    sample: Dict[str, float] = {}
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        sample["cpu_user_seconds"] = round(usage.ru_utime, 6)
        sample["cpu_system_seconds"] = round(usage.ru_stime, 6)
        sample["max_rss_kb"] = float(usage.ru_maxrss)
    collections = 0
    collected = 0
    for stats in gc.get_stats():
        collections += int(stats.get("collections", 0))
        collected += int(stats.get("collected", 0))
    sample["gc_collections"] = float(collections)
    sample["gc_collected"] = float(collected)
    return sample


class ResourceSampler:
    """Delta-based resource samples, scoped to one shard attempt.

    Cumulative rusage counters cannot be summed across shards that
    share a process (the serial path runs every shard in one), so the
    sampler takes a baseline at construction and reports *deltas since
    shard start* for CPU and GC — which sum correctly across shards no
    matter how they were scheduled.  Peak keys (``max_*``) stay
    absolute: a high-water mark has no meaningful delta.

    Plain picklable-free worker-side state: built inside
    :func:`~repro.crawler.runner.step_session`, never crosses a
    process boundary itself — only its dict samples do, riding
    :class:`~repro.obs.progress.HeartbeatEvent.resources`.
    """

    def __init__(self) -> None:
        self._base = sample_resources()

    def sample(self) -> Dict[str, float]:
        """The delta sample since construction (``max_*`` absolute)."""
        now = sample_resources()
        out: Dict[str, float] = {}
        for key, value in now.items():
            if key.startswith("max_"):
                out[key] = value
            else:
                out[key] = round(value - self._base.get(key, 0.0), 6)
        return out


def aggregate_resources(samples: Iterable[Mapping[str, float]]
                        ) -> Dict[str, float]:
    """Fold per-shard delta samples into study-wide totals.

    Delta keys (CPU seconds, GC counts) sum; peak keys (``max_*``)
    take the maximum.  Returns ``{}`` for an empty iterable.
    """
    totals: Dict[str, float] = {}
    for sample in samples:
        for key, value in sample.items():
            if key.startswith("max_"):
                totals[key] = max(totals.get(key, 0.0), float(value))
            else:
                totals[key] = round(totals.get(key, 0.0) + float(value), 6)
    return dict(sorted(totals.items()))


# ---------------------------------------------------------------------------
# The study-wide pause of the cyclic GC.
# ---------------------------------------------------------------------------

class _GcPause:
    """Pauses the process's cyclic GC while a study builds its data.

    The GC is process-wide and the service runs one study per runner
    thread, so pauses nest across threads: the first to enter notes
    whether the GC was enabled and disables it, the last to leave
    re-enables it if it was.  Two overlapping pauses can therefore never
    leave the GC disabled, and a GC that was off stays off.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()   # statan: ignore[PKL303] -- process-wide GC state; object never pickled
        self._depth = 0
        self._resume = False        # re-enable when the last pause ends

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()

    @contextlib.contextmanager
    def forking(self) -> Iterator[None]:
        """Hold the pause state steady across a fork, so the child's
        copy of it is consistent (see :meth:`after_fork_in_child`)."""
        with self._lock:
            yield

    def after_fork_in_child(self) -> None:
        """In a freshly forked worker, drop the parent's pauses: the
        child inherits a disabled GC while the parent (or another of its
        threads) holds a pause, and it must run with the GC state found
        before."""
        # The parent held its copy of the lock across the fork.
        self._lock = threading.Lock()   # statan: ignore[PKL303] -- process-wide GC state; object never pickled
        with self._lock:
            if self._depth:
                self._depth = 0
                if self._resume:
                    gc.enable()


#: The one pause state of this process.
GC_PAUSE = _GcPause()

_F = TypeVar("_F", bound=Callable[..., object])


def gc_paused(func: _F) -> _F:
    """Run every call of ``func`` under :data:`GC_PAUSE`.

    For the entry points that build a study's long-lived data: the
    population, the capture log, the leak events and the reports.  None
    of it holds a reference cycle, so a collection during the build only
    walks the growing heap again and frees nothing.  The pause ends
    when ``func`` returns or raises.
    """
    @functools.wraps(func)
    def paused(*args: object, **kwargs: object) -> object:
        with GC_PAUSE:
            return func(*args, **kwargs)
    return cast(_F, paused)


# ---------------------------------------------------------------------------
# The one-line ops ticker (repro-study metrics --live).
# ---------------------------------------------------------------------------

def render_ticker(values: Mapping[str, float]) -> str:
    """One status line from scraped series values.

    ``values`` maps flat series names — ``name{label="x"}`` exactly as
    :func:`repro.obs.exposition.parse_exposition` returns them — to
    numbers; missing series render as 0, so the ticker works against
    any subset of the service's families.
    """
    def val(name: str) -> float:
        return float(values.get(name, 0.0))

    jobs = []
    prefix = 'repro_service_jobs{state="'
    for name in sorted(values):
        if name.startswith(prefix):
            state = name[len(prefix):].rstrip('"}')
            jobs.append("%s %d" % (state, int(values[name])))
    parts = [
        "jobs " + (" ".join(jobs) if jobs else "none"),
        "queue %d/%d" % (int(val("repro_service_queue_depth")),
                         int(val("repro_service_queue_capacity"))),
        "sse %d" % int(val("repro_service_sse_subscribers")),
        "%s sent" % _human_bytes(val("repro_http_bytes_sent_total")),
        "up %ds" % int(val("repro_service_uptime_seconds")),
    ]
    return " | ".join(parts)


def _human_bytes(count: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if count < 1024.0 or unit == "GB":
            return ("%d %s" % (count, unit) if unit == "B"
                    else "%.1f %s" % (count, unit))
        count /= 1024.0
    return "%.1f GB" % count


__all__ = [
    "GC_PAUSE",
    "LATENCY_BUCKETS",
    "ResourceSampler",
    "RuntimeMetrics",
    "aggregate_resources",
    "gc_paused",
    "render_ticker",
    "sample_resources",
    "wall_now",
]
