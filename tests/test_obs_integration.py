"""Tracing end to end: fingerprints never move, merged traces never vary.

The two contracts under test:

* **Fingerprint invariance** — enabling observability must not change a
  single byte of :meth:`CrawlDataset.fingerprint`, for any seed, worker
  count, or fault plan.
* **Trace invariance** — the merged recorder of a parallel crawl is
  identical (snapshot-equal) at every worker count, because per-shard
  recorders merge in shard-layout order, never in completion order.
"""

import hashlib
import json

import pytest

from repro.core import CrawlOutcome, Study, StudyConfig
from repro.crawler import GeneratedPopulationSpec, ParallelCrawler
from repro.netsim.faults import FaultPlan
from repro.obs import ProgressAggregator, Recorder
from repro.obs.export import trace_lines
from repro.websim.generator import GeneratorConfig

_CONFIG = GeneratorConfig(n_sites=10, n_trackers=4, leak_probability=0.6,
                          confirmation_probability=0.4)
_NUM_SHARDS = 5


def _fault_plan(fault_seed):
    return FaultPlan(seed=fault_seed, transient_rate=0.25)


def _study(seed, workers, trace, fault_seed=None, progress=None):
    plan = _fault_plan(fault_seed) if fault_seed is not None else None
    config = StudyConfig(workers=workers, num_shards=_NUM_SHARDS,
                         fault_plan=plan, progress=progress)
    if trace:
        config = config.with_observability()
    spec = GeneratedPopulationSpec(seed=seed, config=_CONFIG)
    return Study(spec.build(), config=config, population_spec=spec)


# -- fingerprint invariance ----------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tracing_never_changes_the_fingerprint(seed, workers):
    plain = _study(seed, workers, trace=False).crawl()
    traced = _study(seed, workers, trace=True).crawl()
    assert isinstance(traced, CrawlOutcome)
    assert traced.dataset.fingerprint() == plain.dataset.fingerprint()
    assert traced.recorder is not None and plain.recorder is None


@pytest.mark.parametrize("workers", [1, 4])
def test_tracing_never_changes_the_fingerprint_under_faults(workers):
    plain = _study(0, workers, trace=False, fault_seed=7).crawl()
    traced = _study(0, workers, trace=True, fault_seed=7).crawl()
    assert traced.dataset.fingerprint() == plain.dataset.fingerprint()
    # Faults or not, the trace is live.
    assert traced.recorder.snapshot()["counters"]


def test_tracing_never_changes_the_analysis():
    plain = _study(0, 1, trace=False).run()
    traced = _study(0, 1, trace=True).run()
    assert traced.events == plain.events
    assert traced.leaking_request_count == plain.leaking_request_count
    assert traced.analysis.receivers() == plain.analysis.receivers()


# -- trace invariance across worker counts -------------------------------


def test_merged_trace_identical_across_worker_counts():
    snapshots = {}
    for workers in (1, 2, 4):
        recorder = Recorder()
        ParallelCrawler(GeneratedPopulationSpec(seed=0, config=_CONFIG),
                        workers=workers, num_shards=_NUM_SHARDS,
                        recorder=recorder).run()
        snapshots[workers] = recorder.snapshot()
    assert snapshots[1] == snapshots[2] == snapshots[4]
    # ... and it is JSON-able, i.e. exportable as-is.
    json.dumps(snapshots[4])


def test_merged_trace_identical_across_worker_counts_with_faults():
    plan = FaultPlan(seed=3, transient_rate=0.25)
    snapshots = {}
    for workers in (2, 4):
        recorder = Recorder()
        ParallelCrawler(GeneratedPopulationSpec(seed=1, config=_CONFIG),
                        workers=workers, num_shards=_NUM_SHARDS,
                        fault_plan=plan.fresh_copy(),
                        recorder=recorder).run()
        snapshots[workers] = recorder.snapshot()
    assert snapshots[2] == snapshots[4]


# -- byte pins: the exported trace and progress log ----------------------
#
# The fingerprint tests cover datasets; these pin the observability
# artifacts themselves, so a refactor of the metric model or the
# heartbeat path that shifts one byte of trace.jsonl or progress.jsonl
# fails here.


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("workers,lines,digest", [
    (1, 786,
     "4b78dd38264cd41751f9f3e5abfa1e90f9dcf63097083459b4ccc95fa6828ad2"),
    (2, 809,
     "3701691da2029ec30bab37af88c8bafef49d508a321ae91b7b46973f5f03406c"),
])
def test_trace_bytes_pinned(workers, lines, digest):
    study = _study(0, workers, trace=True, fault_seed=7)
    study.run()
    trace = list(trace_lines(study.config.recorder))
    assert len(trace) == lines
    assert _sha256("\n".join(trace).encode()) == digest


def test_progress_log_bytes_pinned_for_study_crawl(tmp_path):
    path = str(tmp_path / "progress.jsonl")
    with ProgressAggregator(jsonl_path=path) as sink:
        _study(0, 1, trace=True, fault_seed=7, progress=sink).crawl()
    with open(path, "rb") as handle:
        data = handle.read()
    assert data.count(b"\n") == _CONFIG.n_sites + 1
    assert _sha256(data) == (
        "4fe0d0fcdf817cc338b9516700b53a8bff3823241221da8ecd126ba841e27148")


def test_progress_log_bytes_pinned_for_sharded_crawl(tmp_path):
    path = str(tmp_path / "progress.jsonl")
    with ProgressAggregator(jsonl_path=path) as sink:
        ParallelCrawler(GeneratedPopulationSpec(seed=0, config=_CONFIG),
                        workers=1, num_shards=_NUM_SHARDS,
                        fault_plan=_fault_plan(7), progress=sink).run()
    with open(path, "rb") as handle:
        data = handle.read()
    assert data.count(b"\n") == _CONFIG.n_sites + _NUM_SHARDS
    assert _sha256(data) == (
        "7c4c0ac7754dec86a9ba3c8498ac604ad440d99c0b01d0bcb13be565ea692af7")


# -- span-tree well-formedness -------------------------------------------


def test_parallel_trace_tree_shape():
    study = _study(0, 4, trace=True)
    outcome = study.crawl()
    recorder = outcome.recorder
    assert recorder.open_span_count == 0
    (crawl,) = recorder.roots
    assert crawl.name == "crawl" and crawl.end is not None
    shards = crawl.children
    assert [shard.name for shard in shards] == ["shard"] * _NUM_SHARDS
    assert [shard.attrs["index"] for shard in shards] == \
        list(range(_NUM_SHARDS))
    site_count = 0
    for shard in shards:
        assert shard.end is not None and shard.end >= shard.start
        assert len(shard.children) == shard.attrs["sites"]
        for site in shard.children:
            assert site.name == "site"
            site_count += 1
            assert site.end is not None and site.end >= site.start
            for request in site.children:
                assert request.name == "request"
                # Request point-spans land inside their site interval.
                assert site.start <= request.start <= site.end
    assert site_count == _CONFIG.n_sites


def test_serial_trace_tree_shape():
    study = _study(0, 1, trace=True)
    study.crawl()
    recorder = study.config.recorder
    assert recorder.open_span_count == 0
    (crawl,) = recorder.roots
    assert crawl.name == "crawl"
    sites = crawl.children
    assert [span.name for span in sites] == ["site"] * _CONFIG.n_sites
    assert all(span.end is not None for span, _ in crawl.walk())


def test_full_run_records_stage_spans():
    study = _study(0, 1, trace=True)
    study.run()
    recorder = study.config.recorder
    (root,) = recorder.roots
    assert root.name == "study"
    stage_names = [child.name for child in root.children]
    assert stage_names == ["crawl", "tokens", "detect", "analysis",
                           "heuristics", "policy"]
    snapshot = recorder.snapshot()
    assert recorder.metrics.value("crawl.sites") == _CONFIG.n_sites
    assert "detector.entries_scanned" in snapshot["counters"]
    assert "tokens.candidates" in snapshot["gauges"]


# -- checkpoint/resume ---------------------------------------------------


def test_serial_resume_with_trace_keeps_fingerprint_and_spans(tmp_path):
    baseline = _study(1, 1, trace=False).crawl().dataset.fingerprint()

    # Crawl half, checkpoint, and resume through the traced study API.
    study = _study(1, 1, trace=True)
    session = study.crawler().start()
    for _ in range(4):
        session.step()
    path = str(tmp_path / "ckpt.pkl")
    session.save(path)

    resumed = _study(1, 1, trace=True)
    outcome = resumed.crawl(resume=path)
    assert outcome.dataset.fingerprint() == baseline
    names = [span.name for span, _ in resumed.config.recorder.all_spans()]
    assert names.count("site") == _CONFIG.n_sites
