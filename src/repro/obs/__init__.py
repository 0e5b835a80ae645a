"""Structured observability for the crawl→detect→analyze pipeline.

Dependency-free labelled metrics (one :class:`MetricSet` model of
counters, gauges and timing histograms) and hierarchical spans
(study → stage → shard → site → request), recorded against an
injectable deterministic clock so tracing never perturbs dataset
fingerprints: a crawl with tracing on is bit-identical to one with
tracing off, and the merged trace of a parallel crawl is identical at
every worker count.

Entry points: pass a :class:`Recorder` via
``StudyConfig.with_observability()`` (library), ``--trace out.jsonl``
and ``--progress`` on ``repro-study`` (CLI), ``repro-trace summarize``
/ ``repro-trace diff`` to read and compare the exported JSONL.  Host
cost (wall and CPU time per layer) is measured from outside the
package, by the benchmark suite under ``benchmarks/suite/``.
"""

from .clock import Clock, TickClock, WallClock
from .diff import (
    FAIL_ON_GRAMMAR,
    FailCondition,
    FailOnError,
    TraceDiff,
    diff_traces,
    parse_fail_on,
    render_diff,
)
from .export import (
    TRACE_SCHEMA_VERSION,
    TraceError,
    read_trace,
    summarize_recorder,
    summarize_trace,
    summary_dict,
    trace_lines,
    write_trace,
)
from .exposition import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    parse_exposition,
    render_prometheus,
)
from .flame import (
    folded_lines,
    slowest_spans,
    stage_totals,
    write_folded,
)
from .metrics import DEFAULT_BUCKETS, Histogram, MetricSet
from .progress import (
    HeartbeatEvent,
    ProgressAggregator,
    read_progress_log,
)
from .recorder import (
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    Span,
    merge_recorders,
)
from .runtime import (
    ResourceSampler,
    RuntimeMetrics,
    aggregate_resources,
    render_ticker,
    sample_resources,
    wall_now,
)

__all__ = [
    "Clock",
    "DEFAULT_BUCKETS",
    "FAIL_ON_GRAMMAR",
    "FailCondition",
    "FailOnError",
    "HeartbeatEvent",
    "Histogram",
    "METRICS_CONTENT_TYPE",
    "MetricSet",
    "NULL_RECORDER",
    "NullRecorder",
    "ProgressAggregator",
    "Recorder",
    "ResourceSampler",
    "RuntimeMetrics",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TickClock",
    "TraceDiff",
    "TraceError",
    "WallClock",
    "aggregate_resources",
    "diff_traces",
    "folded_lines",
    "merge_recorders",
    "parse_exposition",
    "parse_fail_on",
    "read_progress_log",
    "read_trace",
    "render_diff",
    "render_prometheus",
    "render_ticker",
    "sample_resources",
    "slowest_spans",
    "stage_totals",
    "summarize_recorder",
    "summarize_trace",
    "summary_dict",
    "trace_lines",
    "wall_now",
    "write_folded",
    "write_trace",
]
