"""The study-wide pause of the cyclic GC (``repro.obs.runtime.GC_PAUSE``).

A study's entry points run with the cyclic GC paused, which is only
safe because a study makes no cyclic garbage: whatever it drops is
freed by reference counting.  The first tests are that safety oracle.
The rest pin the pause itself: it nests across threads, a forked
worker drops its parent's pause, and the GC comes back however an
entry point ends.
"""

import gc
import os
import queue
import threading
from collections import Counter

import pytest

from repro.blocklist import AdblockExtension, BlocklistEvaluator
from repro.core import Study, StudyConfig
from repro.crawler import (
    ChaosPlan,
    CheckpointError,
    IncompleteCrawlError,
    ParallelCrawler,
    StudyCrawler,
    SupervisorConfig,
    WorkerFault,
    parallel,
)
from repro.obs.runtime import GC_PAUSE
from repro.service import JobRun, JobSpec, ServiceConfig, StudyService
from repro.service.jobs import STATE_COMPLETE
from repro.websim.generator import GeneratorConfig, generate_population

_CONFIG = GeneratorConfig(n_sites=10, n_trackers=4, leak_probability=0.6,
                          confirmation_probability=0.4)
_NUM_SHARDS = 5
_TIMEOUT = 120.0


def _population():
    return generate_population(seed=5, config=_CONFIG)


def _supervised(workers, **kwargs):
    return ParallelCrawler(_population(), workers=workers,
                           num_shards=_NUM_SHARDS, **kwargs)


# -- no cyclic garbage: why the pause is safe ----------------------------


def _cyclic_garbage(run):
    """Run ``run`` with the GC off; return how many objects a collection
    afterwards finds unreachable, and their type names by count."""
    enabled, debug = gc.isenabled(), gc.get_debug()
    gc.set_debug(0)
    gc.collect()
    del gc.garbage[:]
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(debug)
        del gc.garbage[:]
        if enabled:
            gc.enable()
    return found, kinds


def _assert_no_cycles(run):
    found, kinds = _cyclic_garbage(run)
    assert found == 0, "cyclic garbage: %s" % kinds.most_common(12)


def test_the_oracle_sees_a_cycle():
    def make_a_cycle():
        node = {}
        node["self"] = node

    found, kinds = _cyclic_garbage(make_a_cycle)
    assert found == 1 and kinds == Counter(dict=1)


def test_a_serial_study_makes_no_cyclic_garbage():
    _assert_no_cycles(Study(_population()).run)


def test_a_two_worker_study_makes_no_cyclic_garbage(tmp_path, monkeypatch):
    """The parent merges and analyzes; each worker checks its shards."""
    real_run_shard_job = parallel.run_shard_job

    def run_shard_job(job, emit=None):
        results = []
        found, kinds = _cyclic_garbage(
            lambda: results.append(real_run_shard_job(job, emit=emit)))
        (tmp_path / ("shard-%d" % job.shard.index)).write_text(
            "%d %s" % (found, kinds.most_common(12)))
        return results[0]

    monkeypatch.setattr(parallel, "run_shard_job", run_shard_job)
    study = Study(_population(), StudyConfig(workers=2,
                                             num_shards=_NUM_SHARDS))
    _assert_no_cycles(study.run)
    reports = sorted(path.read_text() for path in tmp_path.iterdir())
    assert len(reports) == _NUM_SHARDS
    assert all(report.startswith("0 ") for report in reports), reports


def test_table4_and_the_adblock_crawl_make_no_cyclic_garbage():
    def run():
        study = Study.calibrated()
        result = study.run()
        BlocklistEvaluator(study.assets().detector()).evaluate(
            result.dataset.log)
        population = study.population
        StudyCrawler(population,
                     extension=AdblockExtension.with_default_lists()
                     ).crawl(sites=[population.sites[domain] for domain
                                    in study.spec.leaking_domains])

    _assert_no_cycles(run)


def test_a_faulted_service_job_makes_no_cyclic_garbage():
    spec = JobSpec.from_dict({"seed": 404, "sites": 24, "fault_rate": 0.05,
                              "fault_seed": 3})

    def run():
        assert JobRun(spec).execute().state == STATE_COMPLETE

    _assert_no_cycles(run)


def _json_encoder_cycles(run):
    """Run ``run`` with the GC off; return the JSON-encoder objects a
    collection afterwards finds in unreachable cycles."""
    saved = []

    def keep():
        run()
        gc.collect()
        saved.extend(
            obj for obj in gc.garbage
            if type(obj).__name__ == "JSONEncoder"
            or getattr(obj, "__qualname__", "").startswith(
                "_make_iterencode"))

    _cyclic_garbage(keep)
    return saved


def test_the_json_oracle_sees_the_indenting_encoder():
    import json
    assert _json_encoder_cycles(lambda: json.dumps({"a": [1]}, indent=2))
    assert not _json_encoder_cycles(
        lambda: json.dumps({"a": [1]}, sort_keys=True))


def test_a_served_job_leaves_no_json_encoder_cycles(tmp_path):
    """Status, result and manifest JSON, on disk and over HTTP, goes
    through json's C encoder, which makes no reference cycles."""
    import http.client
    import json

    service = StudyService(ServiceConfig(port=0, jobs_dir=str(tmp_path),
                                         runners=1, queue_size=4))
    service.start()

    def request(method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                                timeout=_TIMEOUT)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def serve_one_job():
        status, body = request("POST", "/studies", json.dumps(
            {"seed": 404, "sites": 24, "fault_rate": 0.05,
             "fault_seed": 3}).encode("utf-8"))
        assert status == 202
        job = json.loads(body)["id"]
        status, body = request("GET", "/studies/%s/events" % job)
        assert status == 200 and b"event: end" in body
        for path in ("/studies/%s" % job, "/studies/%s/result" % job):
            status, body = request("GET", path)
            assert status == 200
            assert json.loads(body)["fingerprint"]

    try:
        service.start_in_thread()
        assert _json_encoder_cycles(serve_one_job) == []
    finally:
        service.close()


# -- the pause nests across threads and forks ----------------------------


class _Stepper:
    """A thread that runs the calls it is handed, one at a time, and
    returns only once each has finished."""

    def __init__(self):
        self._calls = queue.Queue()
        self._done = queue.Queue()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            call = self._calls.get()
            if call is None:
                return
            call()
            self._done.put(True)

    def do(self, call):
        self._calls.put(call)
        assert self._done.get(timeout=10)

    def close(self):
        self._calls.put(None)
        self._thread.join(10)
        assert not self._thread.is_alive()


@pytest.mark.parametrize("a_resumes_first", [True, False])
def test_overlapping_pauses_from_two_threads_leave_gc_enabled(
        gc_state, a_resumes_first):
    """Thread A pauses, thread B pauses, then they resume in either
    order: the GC stays off until both have resumed, and is on after."""
    gc.enable()
    a, b = _Stepper(), _Stepper()
    try:
        a.do(GC_PAUSE.__enter__)
        b.do(GC_PAUSE.__enter__)
        assert not gc.isenabled()
        first, second = (a, b) if a_resumes_first else (b, a)
        first.do(lambda: GC_PAUSE.__exit__(None, None, None))
        assert not gc.isenabled()
        second.do(lambda: GC_PAUSE.__exit__(None, None, None))
        assert gc.isenabled()
    finally:
        a.close()
        b.close()


def test_cycles_left_by_a_pause_go_with_the_next_young_collection(
        gc_state):
    """A busy service seldom runs a full collection, so cycles that its
    other threads make during a pause must not skip the young ones."""
    gc.enable()
    gc.collect()
    with GC_PAUSE:
        for _ in range(1000):
            node = {}
            node["self"] = node
    after = [[index] for index in range(10)]    # a young collection runs
    assert len(after) == 10
    assert gc.collect() < 100


def test_worker_forked_during_a_pause_runs_with_gc_enabled(gc_state,
                                                           tmp_path,
                                                           monkeypatch):
    """The parent holds a pause while it forks: a worker must not
    inherit it."""
    gc.enable()
    real_run_shard_job = parallel.run_shard_job

    def run_shard_job(job, emit=None):
        (tmp_path / ("%d" % os.getpid())).write_text(str(gc.isenabled()))
        return real_run_shard_job(job, emit=emit)

    monkeypatch.setattr(parallel, "run_shard_job", run_shard_job)
    with GC_PAUSE:
        result = _supervised(2).run()
        assert not gc.isenabled()
    assert gc.isenabled()
    assert result.complete
    reports = [path.read_text() for path in tmp_path.iterdir()]
    assert reports and set(reports) == {"True"}


# -- the GC comes back when an entry point raises ------------------------


def test_incomplete_study_run_restores_gc(gc_state):
    gc.enable()
    engine = _supervised(2)
    shard = next(index for index in range(engine.layout.num_shards)
                 if engine.layout.info(index).domains)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=1, attempts=None),))
    config = StudyConfig(workers=2, num_shards=_NUM_SHARDS, chaos=chaos,
                         supervision=SupervisorConfig(max_retries=1))
    with pytest.raises(IncompleteCrawlError):
        Study(_population(), config).run()
    assert gc.isenabled()


def test_bad_resume_restores_gc(gc_state, tmp_path):
    gc.enable()
    (tmp_path / "shard-000.ckpt").write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        _supervised(1, checkpoint_dir=str(tmp_path)).run()
    assert gc.isenabled()


def test_in_process_shard_error_restores_gc(gc_state, monkeypatch):
    gc.enable()

    def run_shard_job(job, emit=None):
        assert not gc.isenabled()
        raise RuntimeError("shard %d broke" % job.shard.index)

    monkeypatch.setattr(parallel, "run_shard_job", run_shard_job)
    with pytest.raises(RuntimeError, match="broke"):
        _supervised(1).run()
    assert gc.isenabled()


def test_overlapping_service_jobs_leave_gc_enabled(gc_state, tmp_path,
                                                   monkeypatch):
    """Two runners crawl at once: both hold the pause together, and the
    GC is back on once both jobs have ended."""
    gc.enable()
    both_crawling = threading.Barrier(2, timeout=_TIMEOUT)
    waited = threading.local()
    real_run_shard_job = parallel.run_shard_job

    def run_shard_job(job, emit=None):
        if not getattr(waited, "done", False):
            waited.done = True
            both_crawling.wait()
        return real_run_shard_job(job, emit=emit)

    monkeypatch.setattr(parallel, "run_shard_job", run_shard_job)
    service = StudyService(ServiceConfig(port=0, jobs_dir=str(tmp_path),
                                         runners=2, queue_size=4))
    service.start()
    try:
        records = [service.submit({"seed": seed, "sites": 6})
                   for seed in (1, 2)]
        for record in records:
            index = 0
            while True:
                assert record.log.wait_for(index, _TIMEOUT)
                events, closed = record.log.events_after(index)
                index += len(events)
                if closed:
                    break
    finally:
        service.close()
    assert [record.state for record in records] == [STATE_COMPLETE] * 2
    assert gc.isenabled()
