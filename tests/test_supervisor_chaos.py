"""Supervised executor + chaos harness: convergence under worker faults.

The acceptance contract of the supervised crawl: a deterministic chaos
plan that kills or hangs a worker mid-study still completes via
supervisor retry (no hang, no lost shard), and an interrupted study
resumes to a merged fingerprint bit-identical to an undisturbed serial
run.
"""

import gc
import json
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import textwrap
import threading
import time
from multiprocessing.connection import Connection

import pytest

from repro.core import Study, StudyConfig
from repro.crawler import parallel
from repro.crawler import (
    CHAOS_KILL_EXIT_CODE,
    ChaosError,
    ChaosPlan,
    CheckpointError,
    FAILURE_PERMANENT,
    FAILURE_TRANSIENT,
    IncompleteCrawlError,
    MANIFEST_NAME,
    ParallelCrawler,
    SupervisorConfig,
    WorkerFault,
    classify_worker_failure,
    load_manifest,
    parse_chaos_plan,
    parse_chaos_spec,
)
from repro.crawler.supervisor import (
    EVENT_DRAIN_KILL,
    EVENT_QUARANTINE,
    EVENT_RETRY,
    EVENT_WATCHDOG_TRIP,
    EVENT_WORKER_CRASHED,
    EVENT_WORKER_ERROR,
    ShardSupervisor,
)
from repro.netsim.faults import FaultPlan
from repro.obs import Recorder
from repro.websim.generator import GeneratorConfig, generate_population

_CONFIG = GeneratorConfig(n_sites=10, n_trackers=4, leak_probability=0.6,
                          confirmation_probability=0.4)
_NUM_SHARDS = 5


def _population():
    return generate_population(seed=5, config=_CONFIG)


def _serial_fingerprint():
    return ParallelCrawler(_population(), workers=1,
                           num_shards=_NUM_SHARDS).crawl().fingerprint()


def _target_shard(engine):
    """The first shard that actually crawls sites (layouts may leave
    some shards empty, where an after-sites fault would never fire)."""
    for index in range(engine.layout.num_shards):
        if engine.layout.info(index).domains:
            return index
    raise AssertionError("no non-empty shard in layout")


def _supervised(workers, chaos=None, config=None, **kwargs):
    return ParallelCrawler(_population(), workers=workers,
                           num_shards=_NUM_SHARDS, chaos=chaos,
                           supervision=config, **kwargs)


# -- chaos specs ---------------------------------------------------------


def test_parse_chaos_spec_full_grammar():
    fault = parse_chaos_spec("kill:3")
    assert (fault.kind, fault.shard, fault.after_sites,
            fault.attempts) == ("kill", 3, 1, 1)
    fault = parse_chaos_spec("hang:2:0")
    assert (fault.kind, fault.shard, fault.after_sites) == ("hang", 2, 0)
    fault = parse_chaos_spec("slow:1:4:*")
    assert fault.attempts is None
    assert parse_chaos_spec("KILL:0").kind == "kill"


@pytest.mark.parametrize("bad", ["", "kill", "explode:1", "kill:x",
                                 "kill:1:y", "kill:1:1:z", "kill:1:1:1:1",
                                 "kill:-1", "kill:1:1:0"])
def test_parse_chaos_spec_errors_echo_grammar(bad):
    with pytest.raises(ChaosError) as excinfo:
        parse_chaos_spec(bad)
    message = str(excinfo.value)
    assert "KIND:SHARD" in message       # the grammar is echoed
    assert "kill|hang|slow" in message


def test_parse_chaos_plan_empty_is_none():
    assert parse_chaos_plan(None) is None
    assert parse_chaos_plan([]) is None
    plan = parse_chaos_plan(["kill:0", "hang:2"])
    assert [fault.kind for fault in plan.faults] == ["kill", "hang"]


def test_fault_for_matches_shard_and_attempt():
    plan = ChaosPlan(faults=(WorkerFault(kind="kill", shard=1, attempts=2),))
    assert plan.fault_for(1, 0) is not None
    assert plan.fault_for(1, 1) is not None
    assert plan.fault_for(1, 2) is None     # retries past the budget run
    assert plan.fault_for(0, 0) is None
    poison = ChaosPlan(faults=(WorkerFault(kind="kill", shard=1,
                                           attempts=None),))
    assert poison.fault_for(1, 99) is not None


def test_chaos_requires_multiple_workers():
    plan = ChaosPlan(faults=(WorkerFault(kind="kill", shard=0),))
    with pytest.raises(ValueError):
        ParallelCrawler(_population(), workers=1, chaos=plan)


# -- the failure taxonomy ------------------------------------------------


def test_worker_failure_taxonomy_matches_crawl_level_one():
    # Process deaths and hangs are environmental -> transient.
    assert classify_worker_failure(EVENT_WORKER_CRASHED) == FAILURE_TRANSIENT
    assert classify_worker_failure(EVENT_WATCHDOG_TRIP) == FAILURE_TRANSIENT
    # Deterministic Python errors recur on retry -> permanent.
    assert classify_worker_failure("worker_error",
                                   "KeyError") == FAILURE_PERMANENT
    # ... unless the type itself is environmental.
    assert classify_worker_failure("worker_error",
                                   "OSError") == FAILURE_TRANSIENT


# -- convergence under kills and hangs (the acceptance criterion) --------


@pytest.mark.parametrize("workers", [2, 4])
def test_killed_worker_retries_and_converges(workers):
    """A chaos-killed worker never hangs or loses its shard: the
    supervisor relaunches it and the merged fingerprint is bit-identical
    to the undisturbed serial crawl."""
    serial = _serial_fingerprint()
    engine = _supervised(workers)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=1),))
    result = _supervised(workers, chaos=chaos,
                         config=SupervisorConfig(heartbeat_deadline=30.0)
                         ).run()
    assert result.complete
    assert result.dataset.fingerprint() == serial
    kinds = [event.kind for event in result.supervision.events]
    assert EVENT_WORKER_CRASHED in kinds and EVENT_RETRY in kinds
    crash = next(event for event in result.supervision.events
                 if event.kind == EVENT_WORKER_CRASHED)
    assert crash.shard == shard
    assert crash.failure_class == FAILURE_TRANSIENT
    assert str(CHAOS_KILL_EXIT_CODE) in crash.detail


@pytest.mark.parametrize("workers", [2, 4])
def test_hung_worker_trips_watchdog_and_converges(workers):
    """A wedged worker emits no heartbeats; the watchdog kills it, the
    retry converges, and the fingerprint is untouched."""
    serial = _serial_fingerprint()
    engine = _supervised(workers)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="hang", shard=shard,
                                          after_sites=1),))
    result = _supervised(
        workers, chaos=chaos,
        config=SupervisorConfig(heartbeat_deadline=1.5)
        ).run()
    assert result.complete
    assert result.dataset.fingerprint() == serial
    kinds = [event.kind for event in result.supervision.events]
    assert EVENT_WATCHDOG_TRIP in kinds and EVENT_RETRY in kinds


def test_kill_at_startup_restarts_shard_from_scratch():
    serial = _serial_fingerprint()
    engine = _supervised(2)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=0),))
    result = _supervised(2, chaos=chaos).run()
    assert result.complete
    assert result.dataset.fingerprint() == serial


def test_kill_retry_resumes_from_shard_checkpoint(tmp_path):
    """With checkpointing on, the relaunched worker resumes the killed
    shard from its last durable site instead of recrawling it — and the
    fingerprint still matches the serial run exactly."""
    serial = _serial_fingerprint()
    engine = _supervised(2)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=1),))
    result = _supervised(2, chaos=chaos,
                         checkpoint_dir=str(tmp_path)).run()
    assert result.complete
    assert result.dataset.fingerprint() == serial
    manifest = load_manifest(str(tmp_path))
    assert manifest["status"] == "complete"
    assert manifest["event_counts"].get(EVENT_WORKER_CRASHED, 0) >= 1


def test_poison_shard_is_quarantined_not_retried_forever():
    """A fault firing on every attempt exhausts the retry budget; the
    shard is quarantined and the partial result says so explicitly."""
    engine = _supervised(2)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=1, attempts=None),))
    result = _supervised(2, chaos=chaos,
                         config=SupervisorConfig(max_retries=2)).run()
    assert not result.complete
    assert result.incomplete_shards == (shard,)
    assert shard in result.supervision.quarantined
    terminal = result.supervision.quarantined[shard]
    assert terminal.kind == EVENT_QUARANTINE
    assert terminal.failure_class == FAILURE_TRANSIENT
    # 1 original + 2 retries, then give up.
    crashes = [event for event in result.supervision.events
               if event.kind == EVENT_WORKER_CRASHED]
    assert len(crashes) == 3
    # The salvage: every other shard's sites are in the dataset.
    expected = sum(len(engine.layout.info(index).domains)
                   for index in range(engine.layout.num_shards)
                   if index != shard)
    assert len(result.dataset.flows) == expected


def test_crawl_refuses_to_fingerprint_partial_merges():
    engine = _supervised(2)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=1, attempts=None),))
    with pytest.raises(IncompleteCrawlError) as excinfo:
        _supervised(2, chaos=chaos,
                    config=SupervisorConfig(max_retries=1)).crawl()
    assert excinfo.value.incomplete_shards == (shard,)
    assert excinfo.value.result is not None   # the salvage rides along
    assert not excinfo.value.result.complete


def test_supervision_events_surface_as_obs_counters():
    """Abnormal events (and only those) reach the trace: a clean run's
    merged trace stays bit-identical at every worker count."""
    engine = _supervised(2)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=1),))
    recorder = Recorder()
    result = _supervised(2, chaos=chaos, recorder=recorder).run()
    assert result.complete
    counters = {name for name in recorder.snapshot()["counters"]
                if name.startswith("supervisor.")}
    assert "supervisor.events.%s" % EVENT_WORKER_CRASHED in counters
    assert "supervisor.events.%s" % EVENT_RETRY in counters

    clean = Recorder()
    _supervised(2, recorder=clean).run()
    assert not [name for name in clean.snapshot()["counters"]
                if name.startswith("supervisor.")]


# -- graceful shutdown and resume ----------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_graceful_shutdown_drains_writes_manifest_and_resumes(tmp_path,
                                                              workers):
    """request_shutdown mid-crawl: in-flight shards drain, the study
    manifest marks the run interrupted, and a later run against the
    same checkpoint dir converges to the undisturbed fingerprint.
    In-process (workers=1) the running shard finishes and every other
    shard is left unfinished."""
    serial = _serial_fingerprint()
    engine = _supervised(workers, checkpoint_dir=str(tmp_path),
                         config=SupervisorConfig(drain_timeout=60.0))
    beats = []

    def sink(event):
        beats.append(event)
        if len(beats) == 1:
            engine.request_shutdown("test")

    engine.progress = sink
    result = engine.run()
    assert result.supervision.interrupted
    assert not result.complete
    assert result.supervision.unfinished      # something was left undone
    manifest = load_manifest(str(tmp_path))
    assert manifest["status"] == "interrupted"
    assert manifest["unfinished_shards"] == sorted(
        result.supervision.unfinished)
    assert manifest["completed_shards"] == sorted(
        r.index for r in result.supervision.results)
    if workers == 1:
        (finished,) = [r.index for r in result.supervision.results]
        assert sorted(result.supervision.unfinished) == [
            index for index in range(_NUM_SHARDS) if index != finished]

    resumed = ParallelCrawler(_population(), workers=4,
                              num_shards=_NUM_SHARDS,
                              checkpoint_dir=str(tmp_path)).run()
    assert resumed.complete
    assert resumed.dataset.fingerprint() == serial
    assert load_manifest(str(tmp_path))["status"] == "complete"


def test_request_shutdown_from_another_thread_wakes_a_silent_wait():
    """Another thread's request_shutdown ends a run whose only in-flight
    worker is hung: no heartbeat will ever wake the supervisor, and a
    signal would not either, so the shutdown request itself must — the
    run returns at the drain timeout, not at the 300 s watchdog."""
    chaos = ChaosPlan(faults=(WorkerFault(kind="hang", shard=0,
                                          after_sites=1),))
    hung_alone = threading.Event()
    seen = set()

    def sink(event):
        seen.add((event.shard, event.final))
        if {(0, False), (1, True)} <= seen:
            hung_alone.set()

    engine = ParallelCrawler(
        _population(), workers=2, num_shards=2, chaos=chaos, progress=sink,
        supervision=SupervisorConfig(heartbeat_deadline=300.0,
                                     drain_timeout=1.0))
    box = {}
    crawl = threading.Thread(target=lambda: box.update(result=engine.run()),
                             daemon=True)
    crawl.start()
    assert hung_alone.wait(60), "shard 1 never finished around the hang"
    time.sleep(0.5)     # let the supervisor reap shard 1 and block
    requested = time.monotonic()
    engine.request_shutdown("test")
    crawl.join(timeout=30)
    assert not crawl.is_alive(), "shutdown request did not wake the wait"
    assert time.monotonic() - requested < 6.0
    result = box["result"]
    assert result.supervision.interrupted
    assert result.supervision.unfinished == [0]
    assert [r.index for r in result.supervision.results] == [1]
    kinds = [event.kind for event in result.supervision.events]
    assert EVENT_DRAIN_KILL in kinds


def _run_with_a_torn_result(tmp_path, monkeypatch):
    """Run a crawl whose first attempt at one shard dies halfway through
    sending its result; returns (result, shard).  The crawl runs in a
    thread so a supervisor hang fails the test instead of stalling it."""
    shard = _target_shard(_supervised(2))
    marker = tmp_path / "torn"
    armed = []
    real_run_shard_job = parallel.run_shard_job
    real_send_bytes = Connection._send_bytes

    def run_shard_job(job, emit=None):
        result = real_run_shard_job(job, emit=emit)
        if job.shard.index == shard and not marker.exists():
            marker.write_text("first attempt")
            armed.append(True)      # the next frame sent is the result
        return result

    def send_bytes(self, buf):
        if not armed:
            return real_send_bytes(self, buf)
        # The header promises the whole result and 1000 bytes more, but
        # only half of the result follows before the worker dies.
        self._send(struct.pack("!i", len(buf) + 1000))
        self._send(bytes(buf[:len(buf) // 2]))
        time.sleep(0.3)             # linger: the parent starts reading
        os._exit(9)

    # Both patches reach the forked workers; the parent never arms.
    monkeypatch.setattr(parallel, "run_shard_job", run_shard_job)
    monkeypatch.setattr(Connection, "_send_bytes", send_bytes)
    engine = _supervised(2, config=SupervisorConfig(heartbeat_deadline=30.0))
    box = {}
    crawl = threading.Thread(target=lambda: box.update(result=engine.run()),
                             daemon=True)
    crawl.start()
    crawl.join(timeout=60)
    assert not crawl.is_alive(), "supervisor hung on a torn result frame"
    return box["result"], shard


def test_torn_result_frame_is_a_crash_not_a_hang(tmp_path, monkeypatch):
    """A worker that dies midway through sending its result leaves a
    truncated frame on its channel.  The supervisor must read that as a
    crash and retry the shard, never block on the frame's missing
    bytes."""
    serial = _serial_fingerprint()
    result, shard = _run_with_a_torn_result(tmp_path, monkeypatch)
    assert result.complete
    assert result.dataset.fingerprint() == serial
    crash = next(event for event in result.supervision.events
                 if event.kind == EVENT_WORKER_CRASHED)
    assert crash.shard == shard
    assert "exit code 9" in crash.detail
    assert EVENT_RETRY in [event.kind for event in result.supervision.events]


def test_study_crawl_resume_true_resumes_from_checkpoint(tmp_path):
    """Study.crawl(resume=True) picks up an interrupted parallel crawl
    from its checkpoint directory — and starts fresh when it is empty."""
    serial = _serial_fingerprint()
    checkpoint = str(tmp_path / "study-ckpt")
    config = StudyConfig(workers=2, num_shards=_NUM_SHARDS,
                         supervision=SupervisorConfig(drain_timeout=60.0))
    study = Study(_population(), config)
    engine_box = []
    original = study._parallel_engine

    def capturing(checkpoint_dir=None):
        engine = original(checkpoint_dir=checkpoint_dir)
        engine_box.append(engine)
        return engine

    study._parallel_engine = capturing
    seen = []

    def sink(event):
        seen.append(event)
        if len(seen) == 1:
            engine_box[0].request_shutdown("test")

    study.config.progress = sink
    outcome = study.crawl(checkpoint=checkpoint, resume=True)
    assert not outcome.complete and outcome.supervision.interrupted

    study.config.progress = None
    resumed = study.crawl(checkpoint=checkpoint, resume=True)
    assert resumed.complete
    assert resumed.dataset.fingerprint() == serial


def test_study_crawl_resume_true_requires_checkpoint():
    with pytest.raises(ValueError):
        Study(_population()).crawl(resume=True)


def test_study_run_raises_on_incomplete_crawl():
    engine = _supervised(2)
    shard = _target_shard(engine)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=shard,
                                          after_sites=1, attempts=None),))
    config = StudyConfig(workers=2, num_shards=_NUM_SHARDS, chaos=chaos,
                         supervision=SupervisorConfig(max_retries=1))
    with pytest.raises(IncompleteCrawlError):
        Study(_population(), config).run()


def test_sigterm_mid_study_resumes_bit_identical(tmp_path):
    """The real thing: SIGTERM a crawling process, then resume its
    checkpoint directory and get the undisturbed serial fingerprint.

    The interrupted run carries a hang fault firing on *every* attempt,
    so it can never complete before the signal lands — the interruption
    is deterministic, not a race against the crawl's speed.
    """
    serial = _serial_fingerprint()
    checkpoint_dir = str(tmp_path / "ckpt")
    probe = _supervised(2)
    shard = _target_shard(probe)
    script = textwrap.dedent("""
        import sys
        from repro.crawler import (ChaosPlan, ParallelCrawler,
                                   SupervisorConfig, WorkerFault)
        from repro.websim.generator import (GeneratorConfig,
                                            generate_population)
        population = generate_population(
            seed=5, config=GeneratorConfig(
                n_sites=10, n_trackers=4, leak_probability=0.6,
                confirmation_probability=0.4))
        chaos = ChaosPlan(faults=(WorkerFault(
            kind="hang", shard=%(shard)d, after_sites=1, attempts=None),))
        def sink(event):
            print("BEAT", flush=True)
        engine = ParallelCrawler(
            population, workers=2, num_shards=%(num_shards)d,
            chaos=chaos, checkpoint_dir=%(ckpt)r, progress=sink,
            supervision=SupervisorConfig(heartbeat_deadline=300.0,
                                         drain_timeout=3.0))
        result = engine.run()
        sys.exit(0 if result.complete else 130)
    """) % {"shard": shard, "num_shards": _NUM_SHARDS,
            "ckpt": checkpoint_dir}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
         env.get("PYTHONPATH", "")])
    process = subprocess.Popen([sys.executable, "-c", script],
                               stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = process.stdout.readline()   # first heartbeat: crawling
        assert line.strip() == "BEAT"
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=120)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode == 130       # interrupted, not crashed

    manifest = load_manifest(checkpoint_dir)
    assert manifest["status"] == "interrupted"

    resumed = ParallelCrawler(_population(), workers=2,
                              num_shards=_NUM_SHARDS,
                              checkpoint_dir=checkpoint_dir).run()
    assert resumed.complete
    assert resumed.dataset.fingerprint() == serial


# -- the study manifest --------------------------------------------------


def test_manifest_absent_means_fresh_start(tmp_path):
    assert load_manifest(str(tmp_path)) is None


def test_truncated_manifest_is_rejected_with_clear_error(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text('{"type": "study-man')
    with pytest.raises(CheckpointError) as excinfo:
        load_manifest(str(tmp_path))
    assert "manifest" in str(excinfo.value)


def test_foreign_manifest_is_rejected(tmp_path):
    (tmp_path / MANIFEST_NAME).write_text(json.dumps({"type": "other"}))
    with pytest.raises(CheckpointError):
        load_manifest(str(tmp_path))


@pytest.mark.parametrize("workers", [1, 2])
def test_manifest_layout_mismatch_rejected_before_crawling(tmp_path,
                                                          workers):
    _supervised(workers, checkpoint_dir=str(tmp_path)).run()
    other = ParallelCrawler(_population(), workers=workers,
                            num_shards=_NUM_SHARDS + 2,
                            checkpoint_dir=str(tmp_path))
    with pytest.raises(CheckpointError) as excinfo:
        other.run()
    assert "layout" in str(excinfo.value)


def test_supervisor_config_validates():
    with pytest.raises(ValueError):
        SupervisorConfig(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisorConfig(heartbeat_deadline=0)


# -- long-lived workers --------------------------------------------------

_WIDE_CONFIG = GeneratorConfig(n_sites=24, n_trackers=6, leak_probability=0.6,
                               confirmation_probability=0.4)


def _wide_population():
    return generate_population(seed=7, config=_WIDE_CONFIG)


def _count_spawns(monkeypatch):
    """Record the pid of every worker process the supervisor forks."""
    spawned = []
    real_spawn = ShardSupervisor._spawn

    def spawn(self, jobs):
        worker = real_spawn(self, jobs)
        spawned.append(worker.process.pid)
        return worker

    monkeypatch.setattr(ShardSupervisor, "_spawn", spawn)
    return spawned


def test_transient_worker_error_retries_to_the_serial_fingerprint(
        tmp_path, monkeypatch):
    """A job's attempt advances its fault-plan counters in the process
    that runs it, so a worker that reported an error must not run the
    retry.  Shard 1's first attempt crawls to the end and then raises a
    transient OSError; the retry must merge to the serial fingerprint.
    A slowed shard 0 keeps the other worker busy meanwhile, so a
    supervisor that reused the errored worker would hand it the retry."""
    plan = FaultPlan(seed=3, transient_rate=0.2)
    serial = ParallelCrawler(_wide_population(), workers=1, num_shards=4,
                             fault_plan=plan).crawl().fingerprint()
    marker = tmp_path / "raised"
    real_run_shard_job = parallel.run_shard_job

    def run_shard_job(job, emit=None):
        result = real_run_shard_job(job, emit=emit)
        if job.shard.index == 1 and not marker.exists():
            marker.write_text("attempt 0")
            raise OSError("injected after the crawl")
        return result

    monkeypatch.setattr(parallel, "run_shard_job", run_shard_job)
    slow = ChaosPlan(faults=(WorkerFault(kind="slow", shard=0, after_sites=1,
                                         delay=0.4),))
    result = ParallelCrawler(_wide_population(), workers=2, num_shards=4,
                             fault_plan=plan, chaos=slow).run()
    kinds = [event.kind for event in result.supervision.events]
    assert EVENT_WORKER_ERROR in kinds and EVENT_RETRY in kinds
    assert result.complete
    assert result.dataset.fingerprint() == serial


def test_clean_run_forks_one_worker_per_slot(monkeypatch):
    spawned = _count_spawns(monkeypatch)
    result = ParallelCrawler(_wide_population(), workers=2,
                             num_shards=8).run()
    assert result.complete
    assert not result.supervision.events
    assert len(spawned) == 2


def test_chaos_kill_forks_exactly_one_replacement(monkeypatch):
    spawned = _count_spawns(monkeypatch)
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=2,
                                          after_sites=1),))
    result = ParallelCrawler(_wide_population(), workers=2, num_shards=8,
                             chaos=chaos).run()
    assert result.complete
    assert [event.kind for event in result.supervision.events] == [
        EVENT_WORKER_CRASHED, EVENT_RETRY]
    assert len(spawned) == 3


def test_worker_killed_while_idle_is_replaced_without_a_charge(monkeypatch):
    """A worker that dies between shards costs its slot a fork, never a
    shard an attempt: no crash, retry or quarantine is recorded."""
    serial = ParallelCrawler(_wide_population(), workers=1,
                             num_shards=8).crawl().fingerprint()
    spawned = _count_spawns(monkeypatch)
    killed = []
    real_idle_worker = ShardSupervisor._idle_worker

    def idle_worker(self, jobs, pool):
        idle = [worker for worker in pool if worker.job is None]
        if idle and not killed:
            idle[0].process.kill()
            idle[0].process.join(10)
            killed.append(idle[0].process.pid)
        return real_idle_worker(self, jobs, pool)

    monkeypatch.setattr(ShardSupervisor, "_idle_worker", idle_worker)
    result = ParallelCrawler(_wide_population(), workers=2,
                             num_shards=8).run()
    assert killed, "no worker was ever idle with shards still pending"
    assert result.complete
    assert not result.supervision.events
    assert not result.supervision.quarantined
    assert len(spawned) == 3
    assert result.dataset.fingerprint() == serial


def test_no_worker_outlives_a_clean_run():
    result = ParallelCrawler(_wide_population(), workers=2,
                             num_shards=8).run()
    assert result.complete
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_drain():
    """Shutdown once shard 1 has finished, while shard 0's worker hangs:
    the hung worker is killed at the drain timeout and the idle one is
    stopped."""
    chaos = ChaosPlan(faults=(WorkerFault(kind="hang", shard=0, after_sites=0,
                                          attempts=None),))
    engine = ParallelCrawler(
        _wide_population(), workers=2, num_shards=8, chaos=chaos,
        supervision=SupervisorConfig(heartbeat_deadline=300.0,
                                     drain_timeout=0.5))

    def sink(event):
        if event.shard == 1 and event.final:
            engine.request_shutdown("test")

    engine.progress = sink
    result = engine.run()
    assert result.supervision.interrupted
    assert [r.index for r in result.supervision.results] == [1]
    assert EVENT_DRAIN_KILL in [event.kind
                                for event in result.supervision.events]
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_quarantine():
    chaos = ChaosPlan(faults=(WorkerFault(kind="kill", shard=2, after_sites=1,
                                          attempts=None),))
    result = ParallelCrawler(_wide_population(), workers=2, num_shards=8,
                             chaos=chaos,
                             supervision=SupervisorConfig(max_retries=1)
                             ).run()
    assert 2 in result.supervision.quarantined
    assert multiprocessing.active_children() == []


# -- the GC pause held across a parallel run -----------------------------


@pytest.mark.parametrize("enabled", [True, False])
def test_parallel_run_leaves_gc_as_it_found_it(gc_state, enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()
    result = _supervised(2).run()
    assert result.complete
    assert gc.isenabled() is enabled


def test_torn_result_leaves_gc_enabled(gc_state, tmp_path, monkeypatch):
    gc.enable()
    result, _ = _run_with_a_torn_result(tmp_path, monkeypatch)
    assert result.complete
    assert gc.isenabled()
