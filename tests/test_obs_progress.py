"""Live progress: heartbeats stream without perturbing the crawl.

The two contracts under test:

* **Fingerprint invariance** — a crawl with ``--progress`` on is
  bit-identical to one with it off, at every worker count.
* **Counter reconciliation** — summing every heartbeat's counter
  deltas reproduces the merged recorder's ``crawl.*`` counters exactly
  (heartbeats and trace describe the same crawl, in the same units).
"""

import io
import pickle

import pytest

from repro.core import Study, StudyConfig
from repro.crawler import GeneratedPopulationSpec, ParallelCrawler
from repro.obs import HeartbeatEvent, ProgressAggregator, read_progress_log
from repro.obs.progress import final_heartbeat, step_heartbeat
from repro.websim.generator import GeneratorConfig

_CONFIG = GeneratorConfig(n_sites=10, n_trackers=4, leak_probability=0.6,
                          confirmation_probability=0.4)
_NUM_SHARDS = 5


def _study(seed, workers, progress=None, trace=False):
    spec = GeneratedPopulationSpec(seed=seed, config=_CONFIG)
    config = StudyConfig(workers=workers, num_shards=_NUM_SHARDS,
                         progress=progress)
    if trace:
        config = config.with_observability()
    return Study(spec.build(), config=config, population_spec=spec)


# -- fingerprint invariance ----------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_progress_never_changes_the_fingerprint(workers):
    baseline = _study(0, workers).crawl().dataset.fingerprint()
    watched = _study(0, workers, progress=ProgressAggregator())
    assert watched.crawl().dataset.fingerprint() == baseline


def test_progress_log_never_changes_the_fingerprint(tmp_path):
    baseline = _study(0, 2).crawl().dataset.fingerprint()
    sink = ProgressAggregator(stream=io.StringIO(),
                              jsonl_path=str(tmp_path / "p.jsonl"))
    with sink:
        watched = _study(0, 2, progress=sink).crawl()
    assert watched.dataset.fingerprint() == baseline


def test_progress_and_tracing_compose():
    """Progress + tracing together still match the plain fingerprint."""
    baseline = _study(0, 2).crawl().dataset.fingerprint()
    outcome = _study(0, 2, progress=ProgressAggregator(),
                     trace=True).crawl()
    assert outcome.dataset.fingerprint() == baseline
    assert outcome.recorder is not None


# -- counter reconciliation ----------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_heartbeat_counters_reconcile_with_the_merged_trace(workers):
    sink = ProgressAggregator()
    study = _study(0, workers, progress=sink, trace=True)
    outcome = study.crawl()
    recorder_counters = {
        name: value
        for name, value in outcome.recorder.snapshot()["counters"].items()
        if name.startswith("crawl.")}
    assert sink.counter_totals() == recorder_counters
    assert sink.counter_totals()["crawl.sites"] == _CONFIG.n_sites


def test_aggregator_totals_cover_every_shard():
    sink = ProgressAggregator()
    _study(0, 4, progress=sink).crawl()
    assert sink.crawled == sink.total == _CONFIG.n_sites
    assert sink.shards_seen == _NUM_SHARDS
    assert sink.shards_done == _NUM_SHARDS
    # One step event per site plus one final marker per shard.
    assert sink.events_seen == _CONFIG.n_sites + _NUM_SHARDS
    assert sum(sink.status_counts.values()) == _CONFIG.n_sites


def test_serial_study_emits_single_shard_heartbeats():
    sink = ProgressAggregator()
    _study(0, 1, progress=sink).crawl()
    assert sink.shards_seen == 1 and sink.shards_done == 1
    assert sink.crawled == _CONFIG.n_sites
    snapshot = sink.snapshot()
    assert snapshot["events"] == _CONFIG.n_sites + 1
    assert snapshot["counters"]["crawl.sites"] == _CONFIG.n_sites


def test_parallel_crawler_direct_progress():
    """The engine-level API takes the sink too (no Study wrapper)."""
    sink = ProgressAggregator()
    spec = GeneratedPopulationSpec(seed=0, config=_CONFIG)
    ParallelCrawler(spec, workers=2, num_shards=_NUM_SHARDS,
                    progress=sink).run()
    assert sink.crawled == _CONFIG.n_sites
    assert sink.shards_done == _NUM_SHARDS


# -- the machine-readable log --------------------------------------------


def test_progress_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "progress.jsonl")
    with ProgressAggregator(jsonl_path=path) as sink:
        _study(0, 2, progress=sink).crawl()
    events = read_progress_log(path)
    assert len(events) == _CONFIG.n_sites + _NUM_SHARDS
    step_events = [e for e in events if not e["final"]]
    assert len(step_events) == _CONFIG.n_sites
    for event in step_events:
        assert event["type"] == "heartbeat" and event["schema"] == 1
        assert event["domain"] and event["status"]
        assert event["counters"]["crawl.sites"] == 1
    finals = [e for e in events if e["final"]]
    assert sorted(e["shard"] for e in finals) == list(range(_NUM_SHARDS))
    # Summing logged deltas reproduces the aggregator's totals.
    totals = {}
    for event in events:
        for name, delta in event["counters"].items():
            totals[name] = totals.get(name, 0.0) + delta
    assert totals == sink.counter_totals()


# -- rendering -----------------------------------------------------------


def test_render_stream_gets_one_line_per_event():
    stream = io.StringIO()
    sink = ProgressAggregator(stream=stream)
    _study(0, 1, progress=sink).crawl()
    lines = stream.getvalue().strip().split("\n")
    assert len(lines) == sink.events_seen
    assert lines[-1].startswith("crawl %d/%d sites"
                                % (_CONFIG.n_sites, _CONFIG.n_sites))
    assert "[shard 0: done]" in lines[-1]


def test_render_line_shape():
    sink = ProgressAggregator()
    sink(step_heartbeat(shard=3, crawled=2, total=5, domain="x.com",
                        status="success", attempts=2, requests=7,
                        retried=1, quarantined=0))
    line = sink.render_line()
    assert "crawl 2/5 sites" in line
    assert "ok 1" in line and "retried 1" in line
    sink(final_heartbeat(shard=3, crawled=5, total=5, retried=1,
                         quarantined=1))
    assert "shards 1/1 done" in sink.render_line()


# -- event mechanics -----------------------------------------------------


def test_heartbeat_events_are_picklable():
    """Events cross the worker->parent process boundary."""
    event = step_heartbeat(shard=1, crawled=3, total=4, domain="x.com",
                           status="success", attempts=1, requests=9,
                           retried=0, quarantined=0)
    clone = pickle.loads(pickle.dumps(event))
    assert clone == event
    assert clone.counters == {"crawl.sites": 1,
                              "crawl.flows.success": 1,
                              "crawl.requests": 9.0}


def test_step_heartbeat_counts_retries_only_past_first_attempt():
    single = step_heartbeat(shard=0, crawled=1, total=1, domain="x",
                            status="success", attempts=1, requests=1,
                            retried=0, quarantined=0)
    assert "crawl.retried_flows" not in single.counters
    retried = step_heartbeat(shard=0, crawled=1, total=1, domain="x",
                             status="success", attempts=3, requests=1,
                             retried=1, quarantined=0)
    assert retried.counters["crawl.retried_flows"] == 1


def test_aggregator_close_is_idempotent(tmp_path):
    sink = ProgressAggregator(jsonl_path=str(tmp_path / "p.jsonl"))
    sink(final_heartbeat(shard=0, crawled=0, total=0, retried=0,
                         quarantined=0))
    sink.close()
    sink.close()
    assert sink._jsonl is None
    assert read_progress_log(str(tmp_path / "p.jsonl"))


def test_heartbeat_as_dict_is_sorted_and_json_stable():
    event = HeartbeatEvent(shard=0, crawled=1, total=2,
                           counters={"b": 2.0, "a": 1.0})
    assert list(event.as_dict()["counters"]) == ["a", "b"]


# -- crash tolerance ------------------------------------------------------


def _logged_events(tmp_path, n=3):
    path = str(tmp_path / "progress.jsonl")
    with ProgressAggregator(jsonl_path=path) as sink:
        for index in range(n):
            sink(step_heartbeat(shard=0, crawled=index + 1, total=n,
                                domain="site%d.example" % index,
                                status="success", attempts=1, requests=2,
                                retried=0, quarantined=0))
    return path


def test_truncated_trailing_progress_line_is_skipped_with_warning(tmp_path):
    """A writer killed mid-append truncates at most the final line; the
    loader salvages everything before it instead of raising."""
    path = _logged_events(tmp_path, n=3)
    intact = read_progress_log(path)
    with open(path, "a") as handle:
        handle.write('{"type": "heartbeat", "sha')     # torn final append
    with pytest.warns(UserWarning, match="truncated"):
        salvaged = read_progress_log(path)
    assert salvaged == intact


def test_malformed_interior_progress_line_still_raises(tmp_path):
    path = _logged_events(tmp_path, n=2)
    lines = open(path).read().splitlines()
    lines.insert(1, "not json at all")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_progress_log(path)


def test_progress_jsonl_is_flushed_per_event(tmp_path):
    """Every append is durable before the next event: a reader (or a
    post-crash salvage) sees each line as soon as it was emitted."""
    path = str(tmp_path / "progress.jsonl")
    sink = ProgressAggregator(jsonl_path=path)
    try:
        sink(step_heartbeat(shard=0, crawled=1, total=2, domain="a.example",
                            status="success", attempts=1, requests=1,
                            retried=0, quarantined=0))
        # Deliberately *before* close(): the line must already be on disk.
        assert len(read_progress_log(path)) == 1
    finally:
        sink.close()
