"""Units for the service layer's data plane: specs, runs, and the store.

No HTTP here — :mod:`tests.test_service_http` covers the wire.  These
tests pin the contracts the endpoints are built on: spec parsing and
validation, result-document shape, the fingerprint parity between a
job run and its in-process twin (``Study.crawl()`` under the equivalent
config at ``workers >= 2``, the one-worker ``ParallelCrawler`` at
``workers=1``), and the
store's crash-recovery semantics (terminal loads get a closed replay
log; resumable partials get a fresh, open one).
"""

import dataclasses
import json
import os

import pytest

from repro.core.pipeline import Study
from repro.crawler import ParallelCrawler
from repro.obs import Recorder
from repro.service import (
    STATE_COMPLETE,
    STATE_PARTIAL,
    STATE_QUEUED,
    STATE_RUNNING,
    JobRun,
    JobSpec,
    JobStore,
    SpecError,
)
from repro.service.store import PROGRESS_NAME, RESULT_NAME, STATUS_NAME


# -- spec parsing and validation -----------------------------------------


def test_spec_roundtrips_through_as_dict():
    spec = JobSpec(seed=9, sites=10, trackers=5, workers=2, label="t")
    assert JobSpec.from_dict(spec.as_dict()) == spec


def test_spec_accepts_minimal_document():
    spec = JobSpec.from_dict({})
    assert spec.kind == "study"
    assert spec.population == "generated"


def test_spec_rejects_unknown_keys():
    with pytest.raises(SpecError, match="unknown"):
        JobSpec.from_dict({"sties": 10})


def test_spec_rejects_wrong_types():
    with pytest.raises(SpecError):
        JobSpec.from_dict({"sites": "ten"})
    with pytest.raises(SpecError):
        JobSpec.from_dict({"sites": True})  # bool is not an int here
    with pytest.raises(SpecError):
        JobSpec.from_dict(["not", "a", "mapping"])


def test_spec_rejects_wrong_schema_version():
    with pytest.raises(SpecError, match="schema"):
        JobSpec.from_dict({"schema": 99})


def test_spec_coerces_int_probability_to_float():
    spec = JobSpec.from_dict({"leak_probability": 1})
    assert spec.leak_probability == 1.0


@pytest.mark.parametrize("document", [
    {"kind": "bake"},
    {"population": "martian"},
    {"sites": 0},
    {"workers": 0},
    {"leak_probability": 1.5},
    {"overlap": -0.1},
    {"contributors": 0},
    {"population": "calibrated", "seed": 3},
    {"population": "calibrated", "sites": 5},
    {"population": "calibrated", "trackers": 9},
    {"population": "calibrated", "leak_probability": 0.9},
    {"population": "calibrated", "confirmation_probability": 0.1},
])
def test_spec_validation_rejects_out_of_range(document):
    with pytest.raises(SpecError):
        JobSpec.from_dict(document)


def test_calibrated_spec_error_names_the_generator_settings():
    with pytest.raises(SpecError, match="sites, trackers"):
        JobSpec.from_dict({"population": "calibrated", "sites": 5,
                           "trackers": 9})


def test_calibrated_spec_roundtrips_without_generator_fields():
    spec = JobSpec.from_dict({"population": "calibrated", "workers": 2})
    document = spec.as_dict()
    assert "seed" not in document and "sites" not in document
    assert JobSpec.from_dict(document) == spec


def test_spec_describe_is_human_readable():
    text = JobSpec(seed=3, sites=7).describe()
    assert "seed=3" in text and "7" in text


# -- execution: the service path equals the CLI path ---------------------

TINY = JobSpec(seed=7, sites=6, trackers=3, workers=2)


@pytest.fixture(scope="module")
def tiny_outcome():
    return JobRun(TINY).execute()


def test_job_run_completes_with_result_document(tiny_outcome):
    assert tiny_outcome.state == STATE_COMPLETE
    assert tiny_outcome.error == ""
    document = tiny_outcome.result
    assert document["kind"] == "study"
    assert document["fingerprint"] == tiny_outcome.fingerprint
    assert document["spec"] == TINY.as_dict()
    table2 = document["table2"]
    assert set(table2) >= {"cross_site_receivers", "persistent_receivers",
                           "rows"}
    for row in table2["rows"]:
        assert set(row) == {"receiver", "senders", "methods", "encoding",
                            "parameters"}


def test_job_run_records_a_trace(tiny_outcome):
    assert tiny_outcome.recorder is not None
    assert tiny_outcome.recorder.span_count() > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_fingerprint_parity_with_cli_study_crawl(workers):
    """The acceptance criterion: a served job's fingerprint is
    bit-identical to the same spec run in-process.

    At ``workers >= 2`` the twin is ``Study.crawl()`` under
    ``spec.study_config()``.  At ``workers=1`` ``Study.crawl()`` runs
    the unsharded serial session while the service always shards, so
    the twin is the sharded ``ParallelCrawler`` at one worker."""
    spec = dataclasses.replace(TINY, workers=workers)
    served = JobRun(spec).execute()
    pspec = spec.population_spec()
    if workers == 1:
        dataset = ParallelCrawler(pspec, workers=1, num_shards=spec.shards,
                                  fault_plan=spec.fault_plan()).crawl()
    else:
        study = Study(pspec.build(),
                      config=spec.study_config(recorder=Recorder()),
                      population_spec=pspec)
        dataset = study.crawl().dataset
    assert dataset.fingerprint() == served.fingerprint


@pytest.mark.parametrize("workers", [1, 2])
def test_a_served_job_builds_its_population_once(workers, tmp_path,
                                                 monkeypatch):
    """Every shard crawls the population the parent built: neither a
    worker nor a second path in the parent builds another."""
    import repro.websim.generator as generator
    from repro.core.assets import clear_process_assets
    clear_process_assets()  # as cold as a fresh service process
    builds = tmp_path / "builds"
    build = generator.generate_population

    def counted(*args, **kwargs):
        with open(builds, "a") as handle:
            handle.write("%d\n" % os.getpid())
        return build(*args, **kwargs)

    monkeypatch.setattr(generator, "generate_population", counted)
    outcome = JobRun(dataclasses.replace(TINY, workers=workers)).execute()
    assert outcome.state == STATE_COMPLETE
    assert builds.read_text().split() == [str(os.getpid())]


def test_job_run_failure_is_captured_not_raised(monkeypatch):
    spec = JobSpec(seed=1, sites=4)
    run = JobRun(spec)
    monkeypatch.setattr(run, "_execute_study",
                        lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    outcome = run.execute()
    assert outcome.state == "failed"
    assert "RuntimeError" in outcome.error and "boom" in outcome.error


def test_crowd_job_produces_crowd_document():
    spec = JobSpec(kind="crowd", seed=5, sites=8, trackers=3,
                   contributors=2, overlap=0.5)
    outcome = JobRun(spec).execute()
    assert outcome.state == STATE_COMPLETE
    document = outcome.result
    assert document["kind"] == "crowd"
    assert len(document["contributors"]) == 2
    assert "confirmed_receivers" in document
    # PII stays local: the document never carries personas.
    assert "persona" not in json.dumps(document)


# -- the store -----------------------------------------------------------


def test_store_assigns_sequential_ids(tmp_path):
    store = JobStore(str(tmp_path))
    first = store.create(TINY)
    second = store.create(TINY)
    assert (first.id, second.id) == ("job-000001", "job-000002")
    assert os.path.exists(first.spec_path)
    assert os.path.exists(os.path.join(first.directory, STATUS_NAME))


def test_store_reloads_spec_and_status_from_disk(tmp_path):
    JobStore(str(tmp_path)).create(TINY)
    fresh = JobStore(str(tmp_path))
    record = fresh.get("job-000001")
    assert record.spec == TINY
    assert record.state == STATE_QUEUED
    assert fresh.get("job-999999") is None


def test_store_list_orders_by_id(tmp_path):
    store = JobStore(str(tmp_path))
    for _ in range(3):
        store.create(TINY)
    assert [r.id for r in store.list()] == \
        ["job-000001", "job-000002", "job-000003"]


def test_terminal_load_replays_a_closed_log(tmp_path):
    """Reloading a finished job yields its progress events plus a
    synthesized ``end`` event, on an already-closed log — an SSE
    client connecting later replays history and the stream ends."""
    store = JobStore(str(tmp_path))
    record = store.create(TINY)
    with open(record.progress_path, "w") as fh:
        fh.write(json.dumps({"type": "heartbeat", "shard": 0,
                             "crawled": 1, "total": 6}) + "\n")
    record.state = STATE_COMPLETE
    record.fingerprint = "abc123"
    store.write_status(record)

    fresh = JobStore(str(tmp_path))
    loaded = fresh.get(record.id)
    events, closed = loaded.log.events_after(0)
    assert closed and loaded.log.closed
    assert events[0]["type"] == "heartbeat"
    assert events[-1]["type"] == "end"
    assert events[-1]["state"] == STATE_COMPLETE
    assert events[-1]["fingerprint"] == "abc123"


def test_recover_requeues_interrupted_and_resumable_jobs(tmp_path):
    store = JobStore(str(tmp_path))
    crashed = store.create(TINY)           # died mid-run
    crashed.state = STATE_RUNNING
    store.write_status(crashed)
    partial = store.create(TINY)           # drained with checkpoints
    partial.state = STATE_PARTIAL
    partial.resumable = True
    store.write_status(partial)
    finished = store.create(TINY)          # stays terminal
    finished.state = STATE_COMPLETE
    store.write_status(finished)

    fresh = JobStore(str(tmp_path))
    recovered = fresh.recover()
    assert sorted(r.id for r in recovered) == \
        [crashed.id, partial.id]
    for record in recovered:
        assert record.state == STATE_QUEUED
        assert record.recovered
        assert not record.log.closed, \
            "a requeued job needs an open log for its next run"
    assert fresh.get(finished.id).state == STATE_COMPLETE


def test_unresumable_partial_is_not_requeued(tmp_path):
    store = JobStore(str(tmp_path))
    record = store.create(TINY)
    record.state = STATE_PARTIAL
    record.resumable = False
    store.write_status(record)
    assert JobStore(str(tmp_path)).recover() == []


def test_store_result_roundtrip(tmp_path):
    store = JobStore(str(tmp_path))
    record = store.create(TINY)
    store.write_result(record, {"fingerprint": "ff", "kind": "study"})
    assert os.path.exists(os.path.join(record.directory, RESULT_NAME))
    assert store.read_result(record)["fingerprint"] == "ff"
    assert PROGRESS_NAME == "progress.jsonl"  # the documented layout
