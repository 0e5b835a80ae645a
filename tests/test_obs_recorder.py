"""repro.obs unit surface: clocks, metrics, spans, merge, export, CLI."""

import json
import pickle

import pytest

from repro.obs import (
    Histogram,
    MetricSet,
    NULL_RECORDER,
    NullRecorder,
    Recorder,
    TickClock,
    TraceError,
    WallClock,
    merge_recorders,
    read_trace,
    summarize_recorder,
    summarize_trace,
    trace_lines,
    write_trace,
)
from repro.obs.cli import EXIT_ERROR, EXIT_OK, main

# -- clocks --------------------------------------------------------------


def test_tick_clock_is_deterministic():
    clock = TickClock()
    assert [clock.now() for _ in range(3)] == [0.0, 1.0, 2.0]
    assert TickClock(start=5.0, step=0.5).now() == 5.0


def test_tick_clock_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        TickClock(step=0.0)


def test_wall_clock_advances():
    clock = WallClock()
    assert clock.now() <= clock.now()


# -- metrics -------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    recorder = Recorder()
    recorder.count("a")
    recorder.count("a", 4)
    recorder.gauge("g", 1.0)
    recorder.gauge("g", 2.0)
    recorder.observe("h", 0.01)
    recorder.observe("h", 100.0)
    snap = recorder.snapshot()
    assert snap["counters"] == {"a": 5}
    assert snap["gauges"] == {"g": 2.0}
    hist = snap["histograms"][0]
    assert hist["count"] == 2
    assert hist["min"] == 0.01 and hist["max"] == 100.0


def test_histogram_bucketing_and_merge():
    h1 = Histogram("h")
    h2 = Histogram("h")
    for value in (0.0005, 0.01, 2.0):
        h1.observe(value)
    h2.observe(5000.0)  # beyond the last bound -> overflow bucket
    h1.merge(h2)
    assert h1.count == 4
    assert h1.bucket_counts[-1] == 1
    assert sum(h1.bucket_counts) == h1.count
    assert h1.mean == pytest.approx((0.0005 + 0.01 + 2.0 + 5000.0) / 4)


def test_histogram_merge_rejects_mismatched_bounds():
    with pytest.raises(ValueError):
        Histogram("h").merge(Histogram("h", bounds=(1.0, 2.0)))


def test_recorder_rejects_a_name_reused_across_kinds():
    recorder = Recorder()
    recorder.count("crawl.sites")
    with pytest.raises(ValueError, match="is a counter"):
        recorder.gauge("crawl.sites", 1.0)
    with pytest.raises(ValueError, match="cannot use it as a histogram"):
        recorder.observe("crawl.sites", 1.0)
    recorder.gauge("tokens.candidates", 3)
    with pytest.raises(ValueError, match="is a gauge"):
        recorder.count("tokens.candidates")
    assert recorder.snapshot()["counters"] == {"crawl.sites": 1}
    assert recorder.snapshot()["gauges"] == {"tokens.candidates": 3}


def _record(metrics, step):
    """One shard's worth of mixed, labelled and unlabelled writes."""
    metrics.inc("sites")
    metrics.inc("requests", 3 + step)
    metrics.inc("flows", labels={"status": ("ok", "failed")[step % 2]})
    metrics.set_gauge("depth", step)
    # Binary-exact, so the merged sum cannot differ in the last bit.
    metrics.observe("site_s", 0.125 * (step + 1))
    metrics.observe("bytes", 5 ** step, labels={"kind": "mail"},
                    bounds=(10, 100, 1000))


def test_merging_shard_sets_in_order_equals_one_set():
    whole = MetricSet()
    shards = [MetricSet() for _ in range(3)]
    for step in range(7):
        _record(whole, step)
        _record(shards[step * 3 // 7], step)
    merged = MetricSet()
    for shard in shards:
        merged.merge(shard)
    assert merged.families() == whole.families()
    assert merged.value("requests") == sum(3 + step for step in range(7))
    assert isinstance(merged.value("requests"), int)
    assert merged.value("depth") == 6
    assert merged.value("flows", labels={"status": "failed"}) == 3


# -- span tree -----------------------------------------------------------


def test_span_nesting_and_explicit_times():
    recorder = Recorder()
    with recorder.span("study"):
        with recorder.span("crawl", kind="stage"):
            recorder.add_span("site", start=10.0, end=12.5, domain="a.shop")
    (root,) = recorder.roots
    assert root.name == "study" and root.end is not None
    (crawl,) = root.children
    (site,) = crawl.children
    assert site.duration == 2.5
    assert site.attrs == {"domain": "a.shop"}
    assert recorder.open_span_count == 0


def test_span_contextmanager_unwinds_leaked_opens():
    recorder = Recorder()
    with recorder.span("outer"):
        recorder.start_span("leaked")  # never explicitly ended
    assert recorder.open_span_count == 0
    (outer,) = recorder.roots
    assert all(span.end is not None for span, _ in outer.walk())


def test_span_contextmanager_closes_on_exception():
    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with recorder.span("outer"):
            raise RuntimeError("boom")
    assert recorder.open_span_count == 0
    assert recorder.roots[0].end is not None


def test_end_span_without_open_raises():
    with pytest.raises(RuntimeError):
        Recorder().end_span()


def test_walk_is_depth_first():
    recorder = Recorder()
    with recorder.span("a"):
        with recorder.span("b"):
            recorder.add_span("c", start=0.0, end=0.0)
        recorder.add_span("d", start=0.0, end=0.0)
    names = [span.name for span, _ in recorder.all_spans()]
    assert names == ["a", "b", "c", "d"]
    assert recorder.span_count() == 4


# -- null recorder -------------------------------------------------------


def test_null_recorder_records_nothing():
    recorder = NullRecorder()
    recorder.count("x")
    recorder.gauge("g", 1.0)
    recorder.observe("h", 1.0)
    with recorder.span("s"):
        recorder.add_span("t", start=0.0, end=1.0)
    assert recorder.snapshot() == {"counters": {}, "gauges": {},
                                   "histograms": [], "spans": []}
    assert not NULL_RECORDER.enabled


def test_adopting_a_null_recorder_is_a_noop():
    recorder = Recorder()
    recorder.adopt(NULL_RECORDER)
    assert recorder.snapshot() == Recorder().snapshot()


# -- merge determinism ---------------------------------------------------


def _shard_recorder(index):
    recorder = Recorder()
    with recorder.span("shard", index=index):
        recorder.add_span("site", start=float(index), end=float(index) + 1)
    recorder.count("crawl.sites")
    recorder.observe("h", float(index))
    return recorder


def test_merge_recorders_is_order_deterministic():
    """Merging the same recorders in the same order is reproducible no
    matter which 'worker' produced them — the adopt() contract."""
    shards = [_shard_recorder(i) for i in range(4)]
    merged_a = merge_recorders(shards).snapshot()
    merged_b = merge_recorders([pickle.loads(pickle.dumps(r))
                                for r in shards]).snapshot()
    assert merged_a == merged_b
    assert merged_a["counters"] == {"crawl.sites": 4}
    assert [s["attrs"]["index"] for s in merged_a["spans"]] == [0, 1, 2, 3]


def test_adopt_grafts_under_current_span():
    recorder = Recorder()
    with recorder.span("crawl"):
        recorder.adopt(_shard_recorder(7))
    (crawl,) = recorder.roots
    assert [child.name for child in crawl.children] == ["shard"]


# -- picklability (the PKL301-303 currency) ------------------------------


def test_recorder_pickles_round_trip():
    recorder = _shard_recorder(3)
    clone = pickle.loads(pickle.dumps(recorder))
    assert clone.snapshot() == recorder.snapshot()
    # The clone keeps working after the round trip.
    clone.count("more")
    with clone.span("later"):
        pass
    assert clone.metrics.value("more") == 1


# -- export / import -----------------------------------------------------


def test_trace_lines_are_stable_json():
    recorder = _shard_recorder(0)
    lines_a = list(trace_lines(recorder))
    lines_b = list(trace_lines(recorder))
    assert lines_a == lines_b
    meta = json.loads(lines_a[0])
    assert meta == {"type": "meta", "schema": 1, "kind": "repro-trace"}


def test_write_read_round_trip(tmp_path):
    recorder = _shard_recorder(2)
    path = str(tmp_path / "t.jsonl")
    assert write_trace(recorder, path) == path
    records = read_trace(path)
    assert len(records["span"]) == recorder.span_count()
    assert records["counter"] == [{"type": "counter", "name": "crawl.sites",
                                   "value": 1}]
    # Depth-first order with explicit paths.
    assert records["span"][0]["path"] == [0]
    assert records["span"][1]["path"] == [0, 0]


def test_read_trace_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(TraceError):
        read_trace(str(path))


def test_read_trace_requires_meta_header(tmp_path):
    path = tmp_path / "headerless.jsonl"
    path.write_text('{"type":"counter","name":"a","value":1}\n')
    with pytest.raises(TraceError):
        read_trace(str(path))


def test_read_trace_rejects_unknown_record_type(tmp_path):
    path = tmp_path / "odd.jsonl"
    path.write_text('{"type":"mystery"}\n')
    with pytest.raises(TraceError):
        read_trace(str(path))


def test_summaries_agree_between_file_and_live_recorder(tmp_path):
    recorder = _shard_recorder(1)
    path = str(tmp_path / "t.jsonl")
    write_trace(recorder, path)
    assert summarize_trace(read_trace(path)) == summarize_recorder(recorder)


# -- repro-trace CLI -----------------------------------------------------


def test_cli_summarize(tmp_path, capsys):
    recorder = _shard_recorder(5)
    path = str(tmp_path / "t.jsonl")
    write_trace(recorder, path)
    assert main(["summarize", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "span breakdown" in out and "crawl.sites" in out


def test_cli_summarize_missing_file(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "nope.jsonl")]) == EXIT_ERROR
    assert "repro-trace: error" in capsys.readouterr().err


def test_cli_summarize_bad_trace(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("{broken\n")
    assert main(["summarize", str(path)]) == EXIT_ERROR
    assert "repro-trace: error" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
