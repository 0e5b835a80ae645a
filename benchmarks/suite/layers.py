"""Per-layer metrics of a traced run.

Three sources feed them, all measured from the benchmark's own code:

* spans around the program's public functions, opened by the wrappers
  :func:`instrument` installs for the traced studies only, and
  counters those wrappers add to the current span;
* the crawl heartbeats delivered through the public ``progress=`` sink
  (or the service's SSE stream), which carry per-shard CPU samples;
* layer probes (:func:`run_probes`), run once after the traced studies
  on what the last of them left behind.  They time one layer in
  isolation: the token transforms and automaton and the detector scan
  on every workload, and shard-result pickling on the workloads
  ``LAYER_MAP`` names for the IPC metrics.  A probe never counts
  towards ``study_s``.

A layer that a workload's studies never call reads 0 there: the
blocklist layer outside ``paper-calibrated``, the service layer
outside ``service-jobs``, IPC outside ``study-parallel``.

``LAYER_MAP`` names, for every per-layer metric, the end-to-end metric
it should move and the workloads where it should move it.
"""

from __future__ import annotations

import gc
import pickle
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.blocklist.evaluate as blocklist_evaluate
import repro.blocklist.extension as blocklist_extension
import repro.core.pipeline as pipeline
import repro.crawler.parallel as crawler_parallel
import repro.obs
import repro.websim.generator as websim_generator
import repro.websim.shopping as websim_shopping
from repro import hashes
from repro.blocklist import AdblockExtension, BlocklistEvaluator
from repro.core import (
    AhoCorasick,
    CandidateTokenSet,
    HeuristicDetector,
    LeakAnalysis,
    LeakDetector,
    Study,
)
from repro.crawler import ParallelCrawler, StudyCrawler
from repro.service import JobRun, JobStore
from repro.tracking import PersistenceAnalyzer

from tracer import Span, Tracer
from workloads import WORKLOADS, Rep, Workload

ALL_WORKLOADS = list(WORKLOADS)

#: per-layer metric -> (end-to-end metric it should move, workloads).
#: ``BENCHMARK.json`` holds only the name, unit and direction of a
#: per-layer metric, so this is the one machine-readable copy of the
#: map; the IPC probe runs on the workloads it names.
LAYER_MAP: Dict[str, Tuple[str, List[str]]] = {
    "websim.build_s": ("study_s", ["paper-calibrated"]),
    "tokens.build_s": ("study_s", ALL_WORKLOADS),
    "tokens.gc_pause_s": ("study_s", ALL_WORKLOADS),
    "tokens.depth1_s": ("study_s", ALL_WORKLOADS),
    "tokens.depth1_purepy_s": ("study_s", ALL_WORKLOADS),
    "tokens.automaton_s": ("study_s", ALL_WORKLOADS),
    "tokens.count": ("study_s", ALL_WORKLOADS),
    "tokens.chars": ("study_s", ALL_WORKLOADS),
    "crawl_s": ("study_s", ["study-serial"]),
    "crawl.cpu_s": ("study_cpu_s", ["study-serial"]),
    "crawl.site_p50_ms": ("study_s", ["study-serial"]),
    "crawl.site_p99_ms": ("study_s", ["study-serial"]),
    "crawl.requests": ("study_s", ["study-serial"]),
    "crawl.retried_flows": ("study_s", ["service-jobs"]),
    "crawl.quarantined_sites": ("study_s", ["service-jobs"]),
    "supervisor.startup_s": ("study_s", ["study-parallel"]),
    "supervisor.tail_s": ("study_s", ["study-parallel"]),
    "supervisor.slot_idle_s": ("study_cpu_s", ["study-parallel"]),
    "ipc.result_bytes": ("study_cpu_s", ["study-parallel"]),
    "ipc.pickle_s": ("study_cpu_s", ["study-parallel"]),
    "ipc.unpickle_s": ("study_s", ["study-parallel"]),
    "merge_s": ("study_s", ["study-parallel"]),
    "detect_s": ("study_s", ["study-serial", "paper-calibrated"]),
    "detect.entries_scanned": ("study_s", ["study-serial",
                                           "paper-calibrated"]),
    "detect.events": ("study_s", ["study-serial", "paper-calibrated"]),
    "detect.leaking_ratio": ("study_s", ["study-serial",
                                         "paper-calibrated"]),
    "detect.scan_s": ("study_s", ["study-serial", "paper-calibrated"]),
    "detect.scan_chars": ("study_s", ["study-serial", "paper-calibrated"]),
    "analysis_s": ("study_s", ["paper-calibrated"]),
    "heuristics_s": ("study_s", ["paper-calibrated"]),
    "policy_s": ("study_s", ["paper-calibrated"]),
    "blocklist.parse_s": ("study_s", ["paper-calibrated"]),
    "blocklist.match_s": ("study_s", ["paper-calibrated"]),
    "blocklist.requests": ("study_s", ["paper-calibrated"]),
    "blocklist.blocked_ratio": ("study_s", ["paper-calibrated"]),
    "table4_s": ("study_s", ["paper-calibrated"]),
    "service.submit_ms": ("study_s", ["service-jobs"]),
    "service.queue_wait_s": ("study_s", ["service-jobs"]),
    "service.run_s": ("study_s", ["service-jobs"]),
    "service.result_ms": ("study_s", ["service-jobs"]),
    "service.sse_events": ("study_s", ["service-jobs"]),
    "service.artifact_bytes": ("study_s", ["service-jobs"]),
    "gc.pause_s": ("study_s", ALL_WORKLOADS),
    "gc.collections": ("study_s", ALL_WORKLOADS),
    "trace.residual_ratio": ("study_s", ALL_WORKLOADS),
    "trace.overhead_ratio": ("study_s", ALL_WORKLOADS),
}

#: Digests implemented in pure Python (the rest come from hashlib,
#: zlib/bz2 or the standard library's encoders).
PURE_PYTHON_DIGESTS = ("md2", "md4", "ripemd128", "ripemd160", "ripemd256",
                       "ripemd320", "whirlpool", "snefru128", "snefru256")

#: Repetitions of the depth-1 probes (tens of milliseconds each); the
#: median is reported.
PROBE_REPEATS = 3

#: Span names whose summed self time is a per-layer metric.
SELF_TIMES = (("websim.build_s", "websim"), ("tokens.build_s", "tokens"),
              ("crawl_s", "crawl"), ("merge_s", "merge"),
              ("detect_s", "detect"), ("analysis_s", "analysis"),
              ("heuristics_s", "heuristics"), ("policy_s", "policy"),
              ("blocklist.parse_s", "blocklist.parse"),
              ("table4_s", "table4"))


class Captured:
    """What the traced studies leave behind for the probes."""

    def __init__(self) -> None:
        self.tokens: Optional[CandidateTokenSet] = None
        self.texts: set = set()
        #: The last merge's shard results and population.
        self.shards: Sequence[object] = ()
        self.population: object = None


def instrument(tracer: Tracer, captured: Captured) -> None:
    """Wrap the public calls the per-layer spans are timed around."""

    def keep_tokens(span: Span, args: tuple, result: object) -> None:
        captured.tokens = args[0]

    def keep_shards(span: Span, args: tuple, result: object) -> None:
        captured.shards, captured.population = args[0], args[1]

    def count_detection(span: Span, args: tuple, result) -> None:
        span.count("entries_scanned", result.entries_scanned)
        span.count("events", len(result.events))
        span.count("leaking", result.leaking_entry_count)

    def count_filtered(span: Span, verdict: Optional[str]) -> None:
        span.count("blocklist.requests", 1)
        if verdict:
            span.count("blocklist.blocked", 1)

    wrap = tracer.wrap
    wrap(websim_generator, "generate_population", "websim")
    wrap(websim_shopping, "build_study_population", "websim")
    wrap(ParallelCrawler, "run", "crawl", cpu=True)
    wrap(Study, "crawl", "crawl", cpu=True)
    wrap(StudyCrawler, "crawl", "crawl", cpu=True)
    wrap(crawler_parallel, "merge_shard_datasets", "merge",
         measure=keep_shards)
    wrap(Study, "analyze", "analyze")
    wrap(CandidateTokenSet, "__init__", "tokens", measure=keep_tokens)
    tracer.tap(CandidateTokenSet, "scan_distinct",
               lambda args: captured.texts.add(args[1]))
    wrap(LeakDetector, "run", "detect", measure=count_detection)
    wrap(LeakAnalysis, "__init__", "analysis")
    wrap(PersistenceAnalyzer, "report", "analysis")
    wrap(HeuristicDetector, "detect", "heuristics")
    wrap(pipeline, "policies_for_sites", "policy")
    wrap(pipeline, "classify_policies", "policy")
    wrap(blocklist_evaluate, "default_rule_sets", "blocklist.parse")
    wrap(blocklist_extension, "default_rule_sets", "blocklist.parse")
    tracer.time_calls(AdblockExtension, "filter_request",
                      "blocklist.match_s", measure=count_filtered)
    wrap(BlocklistEvaluator, "evaluate", "table4")
    wrap(JobRun, "execute", "run")
    wrap(JobStore, "write_status", "store")
    wrap(JobStore, "write_result", "store")
    wrap(repro.obs, "write_trace", "store")


# -- probes ------------------------------------------------------------------

def _timed(fn: Callable[[], object]) -> Tuple[float, object]:
    """``fn()``'s wall time and result, from a collected heap."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _median_time(fn: Callable[[], object]) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(PROBE_REPEATS))


def run_probes(workload: Workload, captured: Captured, tracer: Tracer,
               fingerprint: str) -> Tuple[Dict[str, float], List[str]]:
    """Time layers in isolation; returns (metrics, check errors).
    ``fingerprint`` is the last traced study's merged fingerprint."""
    values: Dict[str, float] = {}
    errors: List[str] = []
    tokens = captured.tokens
    if tokens is None:
        return values, ["no token set was built in the traced studies"]
    with tracer.span("probe"):
        with tracer.span("probe.tokens"):
            _probe_tokens(tokens, values)
        with tracer.span("probe.scan"):
            texts = sorted(captured.texts)
            values["detect.scan_s"], _ = _timed(
                lambda: [tokens.scan(text) for text in texts])
            values["detect.scan_chars"] = float(sum(map(len, texts)))
        if workload.name in LAYER_MAP["ipc.pickle_s"][1]:
            with tracer.span("probe.ipc"):
                errors.extend(_probe_ipc(captured, values, fingerprint))
    return values, errors


def _probe_ipc(captured: Captured, values: Dict[str, float],
               fingerprint: str) -> List[str]:
    """Pickle and unpickle the last study's shard results as the
    supervisor's queues do, then merge the copies again."""
    shards = list(captured.shards)
    if not shards:
        return ["no shard results were merged in the traced studies"]
    values["ipc.pickle_s"], blobs = _timed(
        lambda: [pickle.dumps(result) for result in shards])
    values["ipc.result_bytes"] = float(sum(map(len, blobs)))
    values["ipc.unpickle_s"], loaded = _timed(
        lambda: [pickle.loads(blob) for blob in blobs])
    merged = crawler_parallel.merge_shard_datasets(loaded,
                                                   captured.population)
    if merged.fingerprint() != fingerprint:
        return ["unpickled shard results merge to %s, the study gave %s"
                % (merged.fingerprint()[:16], fingerprint[:16])]
    return []


def _probe_tokens(tokens: CandidateTokenSet,
                  values: Dict[str, float]) -> None:
    forms = [form for group in tokens.persona.surface_forms().values()
             for form in group]
    transforms = hashes.all_transforms()
    pure = [transform for transform in transforms
            if transform.name in PURE_PYTHON_DIGESTS]

    def depth1(chosen) -> None:
        for form in forms:
            for transform in chosen:
                transform.apply_text(form)

    def automaton() -> None:
        machine: AhoCorasick = AhoCorasick()
        for token in tokens.tokens():
            machine.add(token, token)
        machine.build()

    values["tokens.depth1_s"] = _median_time(lambda: depth1(transforms))
    values["tokens.depth1_purepy_s"] = _median_time(lambda: depth1(pure))
    values["tokens.automaton_s"], _ = _timed(automaton)
    values["tokens.count"] = float(tokens.token_count)
    values["tokens.chars"] = float(sum(map(len, tokens.tokens())))


# -- metrics from the traced studies -------------------------------------------

def _rep_sums(root: Span) -> Tuple[Dict[str, float],
                                   Dict[str, Dict[str, float]]]:
    """Self time and counters summed per span name (root excluded from
    self times; its self time is the residual)."""
    self_times: Dict[str, float] = defaultdict(float)
    counters: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in root.walk():
        if span is not root:
            self_times[span.name] += span.self_time()
        for name, value in span.counters.items():
            counters[span.name][name] += value
    return self_times, counters


def _crawl_beats(rep: Rep, root: Span, workers: int) -> Dict[str, object]:
    """Per-site CPU, per-shard totals and supervisor gaps from beats."""
    crawls = sorted((span for span in root.walk() if span.name == "crawl"),
                    key=lambda span: span.start)
    by_shard: Dict[int, List[Tuple[float, Dict[str, object]]]] = \
        defaultdict(list)
    for arrival, beat in rep.beats:
        by_shard[int(beat["shard"])].append((arrival, beat))
    sites: List[float] = []
    shard_cpu = requests = retried = quarantined = 0.0
    finals: List[float] = []
    for beats in by_shard.values():
        previous = 0.0
        for arrival, beat in beats:
            sample = beat.get("resources") or {}
            used = (float(sample.get("cpu_user_seconds", 0.0))
                    + float(sample.get("cpu_system_seconds", 0.0)))
            if beat["final"]:
                shard_cpu += used
                retried += float(beat["retried"])
                quarantined += float(beat["quarantined"])
                finals.append(arrival)
                continue
            sites.append(used - previous)
            previous = used
            requests += float(beat["counters"].get("crawl.requests", 0.0))
    out: Dict[str, object] = {"sites": sites, "requests": requests,
                              "retried": retried,
                              "quarantined": quarantined}
    if crawls and rep.beats and finals:
        crawl = crawls[0]
        out["startup"] = min(arrival for arrival, _ in rep.beats) \
            - crawl.start
        out["tail"] = crawl.end - max(finals)
        out["idle"] = workers * crawl.duration - shard_cpu
    return out


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def layer_metrics(workload: Workload, plain: List[Rep], traced: List[Rep],
                  probes: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric: medians over the traced studies, pooled
    heartbeat percentiles, and the probes' measurements.  A layer the
    studies never called reads 0."""
    per_rep: Dict[str, List[float]] = defaultdict(list)
    sites: List[float] = []
    residuals: List[float] = []
    for rep in traced:
        root = rep.span
        self_times, counters = _rep_sums(root)

        def total(counter: str) -> float:
            return sum(group.get(counter, 0.0) for group in counters.values())

        for metric, name in SELF_TIMES:
            per_rep[metric].append(self_times.get(name, 0.0))
        per_rep["tokens.gc_pause_s"].append(
            counters["tokens"].get("gc_pause_s", 0.0))
        per_rep["crawl.cpu_s"].append(counters["crawl"].get("cpu_s", 0.0))
        detect = counters["detect"]
        per_rep["detect.entries_scanned"].append(
            detect.get("entries_scanned", 0.0))
        per_rep["detect.events"].append(detect.get("events", 0.0))
        per_rep["detect.leaking_ratio"].append(
            detect.get("leaking", 0.0)
            / max(1.0, detect.get("entries_scanned", 0.0)))
        per_rep["blocklist.match_s"].append(total("blocklist.match_s"))
        per_rep["blocklist.requests"].append(total("blocklist.requests"))
        per_rep["blocklist.blocked_ratio"].append(
            total("blocklist.blocked")
            / max(1.0, total("blocklist.requests")))
        per_rep["gc.pause_s"].append(total("gc_pause_s"))
        per_rep["gc.collections"].append(total("gc_collections"))
        residuals.append(root.self_time() / root.duration)
        beats = _crawl_beats(rep, root, workload.workers)
        sites.extend(beats["sites"])
        per_rep["crawl.requests"].append(beats["requests"])
        per_rep["crawl.retried_flows"].append(beats["retried"])
        per_rep["crawl.quarantined_sites"].append(beats["quarantined"])
        for metric, key in (("supervisor.startup_s", "startup"),
                            ("supervisor.tail_s", "tail"),
                            ("supervisor.slot_idle_s", "idle")):
            if key in beats:
                per_rep[metric].append(beats[key])
        for name, value in rep.service.items():
            per_rep["service." + name].append(value)
    metrics = {name: _median(values) for name, values in per_rep.items()}
    metrics["crawl.site_p50_ms"] = 1e3 * _percentile(sites, 0.50)
    metrics["crawl.site_p99_ms"] = 1e3 * _percentile(sites, 0.99)
    metrics["trace.residual_ratio"] = max(residuals) if residuals else 0.0
    metrics["trace.overhead_ratio"] = (
        _median([rep.wall for rep in traced])
        / _median([rep.wall for rep in plain]) - 1.0
        if traced and plain else 0.0)
    metrics.update(probes)
    for name in LAYER_MAP:
        metrics.setdefault(name, 0.0)
    return metrics
