"""Supervised crash-safe shard execution.

:class:`ShardSupervisor` is the one shard executor of
:class:`~repro.crawler.ParallelCrawler`, at every worker count: it
dispatches shards one process each with at most ``workers`` in flight,
watches worker liveness, and survives every process-level failure — a
worker that segfaults, OOMs, hangs, or is killed never deadlocks the
study or silently loses its shard.  ``workers=1`` is the in-process case
of the same dispatch loop: each shard runs in the caller's process, so
there is nothing to watch and a Python error propagates to the caller.

Supervision model
-----------------
* **Per-shard dispatch, one pipe per worker.**  Each attempt of each
  shard runs in a fresh ``multiprocessing.Process`` that owns a private
  ``Pipe(duplex=False)``: its beats and then its terminal outcome travel
  over it in order, so one torn/killed worker can never corrupt another
  worker's channel.  The parent closes its copy of the write end right
  after the launch, so a worker that dies mid-message leaves an
  end-of-file on its pipe instead of a reader blocked forever.
* **Event-driven.**  The parent blocks in
  ``multiprocessing.connection.wait`` on every worker pipe, every
  process sentinel and a wakeup pipe that
  :meth:`~ShardSupervisor.request_shutdown` writes to, with the nearest
  watchdog or drain deadline as its timeout.  A fired sentinel drains
  its pipe to end-of-file, so a result sent just before the exit is
  never mistaken for a crash.
* **Liveness watchdog.**  Workers emit a start sentinel and then reuse
  the :mod:`repro.obs.progress` heartbeat stream (one
  :class:`~repro.obs.progress.HeartbeatEvent` per crawled site) as their
  liveness signal.  A dead process without a delivered result is
  *crashed*; a live process silent for longer than
  ``heartbeat_deadline`` wall seconds is *hung* and gets killed.  Both
  are declared lost and retried.
* **Bounded retry, then quarantine.**  Lost shards are requeued on a
  fresh process with an incremented attempt number.  Failures are
  classified under the same transient-vs-permanent taxonomy the crawl
  flows use (:data:`~repro.crawler.flows.FAILURE_TRANSIENT` /
  :data:`~repro.crawler.flows.FAILURE_PERMANENT`): crashes and hangs are
  transient and worth retrying; deterministic Python errors are
  permanent and quarantine the shard immediately.  A shard that stays
  transiently lost after ``max_retries`` retries is a *poison shard* and
  is quarantined too — never re-dispatched forever, never silently
  dropped.
* **Graceful shutdown.**  SIGINT/SIGTERM (or a programmatic
  :meth:`~ShardSupervisor.request_shutdown`) stops new dispatch, drains
  in-flight shards for ``drain_timeout`` seconds, kills whatever is
  still running (their per-site checkpoints are already durable), and
  writes a resumable study manifest — so ``Study.crawl(resume=True)``
  against the same checkpoint directory picks up exactly where the kill
  landed.  In-process (``workers=1``) the running shard finishes and the
  rest are left unfinished.
* **Partial-result salvage.**  Completed shards are always returned,
  explicitly marked incomplete when shards are missing; dataset
  fingerprints are only computed on complete merges (the
  bit-identical-at-any-worker-count invariant is stated over complete
  datasets only — :meth:`~repro.crawler.ParallelCrawler.crawl` raises
  :class:`IncompleteCrawlError` rather than fingerprinting a partial
  merge).

Determinism note: the supervisor reads the host's monotonic clock — a
*liveness* watchdog is meaningless against a simulated clock — but
nothing it observes ever feeds a dataset: shard results are pure
functions of ``(population spec, seed, shard)`` regardless of which
attempt produced them, so retries, kills, and resumes cannot move a
fingerprint.  The explicit justified DET101 suppressions below scope
the exception to exactly those liveness reads.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.progress import HeartbeatEvent
from .chaos import ChaosMonkey, ChaosPlan
from .checkpoint import CheckpointError, atomic_write_text
from .flows import FAILURE_PERMANENT, FAILURE_TRANSIENT
from .sharding import ShardLayout

#: File name of the resumable study manifest inside a checkpoint dir.
MANIFEST_NAME = "study-manifest.json"

#: Schema version of the study manifest; bump on incompatible changes.
MANIFEST_SCHEMA_VERSION = 1

#: Supervision event kinds (also the ``supervisor.events.*`` counters).
EVENT_WORKER_CRASHED = "worker_crashed"   # process died without a result
EVENT_WATCHDOG_TRIP = "watchdog_trip"     # no heartbeat within deadline
EVENT_WORKER_ERROR = "worker_error"       # worker raised a Python error
EVENT_RETRY = "retry"                     # shard requeued on a fresh worker
EVENT_QUARANTINE = "quarantine"           # shard given up on
EVENT_SHUTDOWN = "shutdown"               # graceful shutdown requested
EVENT_DRAIN_KILL = "drain_kill"           # in-flight worker killed at drain

#: Python exception types a worker can die of that are worth retrying:
#: environmental, not deterministic.  Everything else is permanent.
_TRANSIENT_ERROR_TYPES = frozenset({
    "OSError", "IOError", "TimeoutError", "ConnectionError",
    "ConnectionResetError", "BrokenPipeError", "EOFError", "MemoryError",
})

#: Seconds a worker gets to exit on its own (after its result) or on
#: SIGTERM (after a watchdog trip or drain) before SIGKILL.
KILL_GRACE = 5.0

#: Held from a worker's pipe creation until the parent has closed its
#: copy of the write end, so a supervisor launching in another thread
#: never forks a child that inherits (and keeps open) that write end.
_LAUNCH_LOCK = threading.Lock()


class SupervisorError(RuntimeError):
    """The supervisor itself failed (not a worker)."""


class IncompleteCrawlError(SupervisorError):
    """A merged dataset is missing shards; its fingerprint is undefined.

    ``result`` (when set) carries the partial
    :class:`~repro.crawler.ParallelCrawlResult` — completed shards are
    salvaged, never discarded — and ``incomplete_shards`` names what is
    missing.
    """

    def __init__(self, message: str, result: Optional[object] = None,
                 incomplete_shards: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.result = result
        self.incomplete_shards = tuple(incomplete_shards)


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervised executor (all picklable plain data).

    ``heartbeat_deadline`` is the wall-clock silence, in seconds, after
    which a live worker is declared hung; it must comfortably exceed
    the slowest single site crawl *plus* the worker's population-build
    time.  ``max_retries`` bounds the *transient* retries per shard
    before quarantine (``0`` = no retries).  ``drain_timeout`` is the
    graceful-shutdown budget for in-flight shards.
    """

    max_retries: int = 2
    heartbeat_deadline: float = 60.0
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.heartbeat_deadline <= 0:
            raise ValueError("heartbeat_deadline must be > 0")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")


@dataclass(frozen=True)
class SupervisionEvent:
    """One supervision decision, for reporting and obs counters."""

    kind: str
    shard: int = -1
    attempt: int = 0
    failure_class: str = ""     # transient | permanent | ""
    detail: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "shard": self.shard,
                "attempt": self.attempt,
                "failure_class": self.failure_class, "detail": self.detail}


@dataclass
class SupervisionOutcome:
    """Everything one supervised execution decided and salvaged.

    ``results`` holds every completed shard (complete or not);
    ``quarantined`` maps shard index → the terminal
    :class:`SupervisionEvent`; ``unfinished`` lists shards neither
    completed nor quarantined (shutdown landed first); ``interrupted``
    is True when a graceful shutdown cut the run short.
    """

    results: List[object] = field(default_factory=list)
    quarantined: Dict[int, SupervisionEvent] = field(default_factory=dict)
    unfinished: List[int] = field(default_factory=list)
    events: List[SupervisionEvent] = field(default_factory=list)
    interrupted: bool = False

    @property
    def complete(self) -> bool:
        return not self.quarantined and not self.unfinished

    @property
    def incomplete_shards(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.quarantined) | set(self.unfinished)))

    def event_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# The worker side.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Beat:
    """Worker → parent liveness message (picklable plain data).

    ``event`` is the crawl heartbeat riding along (``None`` for the
    start sentinel emitted before the population build).
    """

    shard: int
    attempt: int
    event: Optional[HeartbeatEvent] = None


@dataclass(frozen=True)
class _WorkerOutcome:
    """Worker → parent terminal message: a result or an error."""

    shard: int
    attempt: int
    result: Optional[object] = None     # ShardResult
    error_type: str = ""
    error: str = ""


def _supervised_worker_main(job, attempt: int, chaos: Optional[ChaosPlan],
                            conn) -> None:
    """Entry point of one supervised worker process.

    Runs exactly one shard attempt: emits the start sentinel, streams
    per-site heartbeats, and sends exactly one terminal
    :class:`_WorkerOutcome` last on ``conn`` — unless a (real or
    chaos-injected) crash or hang prevents it, which is precisely what
    the parent's watchdog is for.
    """
    # The parent owns shutdown policy: workers ignore the terminal's
    # SIGINT broadcast (the parent drains them instead) and die promptly
    # on the parent's targeted SIGTERM.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):        # non-main thread / exotic platform
        pass
    from .parallel import run_shard_job
    shard_index = job.shard.index
    monkey = ChaosMonkey(chaos.fault_for(shard_index, attempt)
                         if chaos is not None else None)
    conn.send(_Beat(shard=shard_index, attempt=attempt))
    monkey.on_start()

    def emit(event: HeartbeatEvent) -> None:
        conn.send(_Beat(shard=shard_index, attempt=attempt, event=event))
        if not event.final:
            monkey.on_site()

    try:
        result = run_shard_job(job, emit=emit)
    except BaseException as exc:    # noqa: BLE001 — forwarded, not dropped
        conn.send(_WorkerOutcome(
            shard=shard_index, attempt=attempt,
            error_type=type(exc).__name__, error=str(exc)))
    else:
        conn.send(_WorkerOutcome(shard=shard_index, attempt=attempt,
                                 result=result))


def classify_worker_failure(kind: str, error_type: str = "") -> str:
    """Transient-vs-permanent taxonomy for worker-level failures.

    Mirrors the crawl-level taxonomy of :mod:`repro.crawler.flows`:
    process deaths and hangs (``crashed``/``hung``) are *transient* —
    the environment failed, a fresh worker may succeed; a Python
    exception (``error``) is *permanent* unless its type is an
    environmental one (OS/IO/timeout/memory), because a deterministic
    error will recur on every retry.
    """
    if kind in (EVENT_WORKER_CRASHED, EVENT_WATCHDOG_TRIP):
        return FAILURE_TRANSIENT
    if error_type in _TRANSIENT_ERROR_TYPES:
        return FAILURE_TRANSIENT
    return FAILURE_PERMANENT


# ---------------------------------------------------------------------------
# The study manifest.
# ---------------------------------------------------------------------------

def write_manifest(checkpoint_dir: str, layout: ShardLayout,
                   outcome: SupervisionOutcome,
                   spec_description: str = "") -> str:
    """Atomically write the resumable study manifest; returns its path.

    The manifest is bookkeeping *about* the per-shard checkpoints: it
    names the layout (so a resume against a different layout fails
    loudly before any crawling), what completed, what was quarantined,
    and what the shutdown left unfinished.  Resume correctness never
    depends on it — the per-shard checkpoints are the durable state —
    but it makes interrupted studies self-describing.
    """
    completed = sorted(getattr(result, "index", -1)
                       for result in outcome.results)
    document = {
        "type": "study-manifest",
        "schema": MANIFEST_SCHEMA_VERSION,
        "status": "interrupted" if outcome.interrupted else (
            "complete" if outcome.complete else "partial"),
        "population": spec_description,
        "layout": {
            "digest": layout.digest(),
            "num_shards": layout.num_shards,
            "site_count": layout.site_count,
        },
        "completed_shards": completed,
        "quarantined_shards": sorted(outcome.quarantined),
        "unfinished_shards": sorted(outcome.unfinished),
        "event_counts": outcome.event_counts(),
        "events": [event.as_dict() for event in outcome.events[:200]],
    }
    samples = {getattr(result, "index", -1): sample
               for result in outcome.results
               for sample in [getattr(result, "resources", None)]
               if sample is not None}
    if samples:
        from ..obs.runtime import aggregate_resources
        document["resources"] = {
            "shards": {str(index): dict(samples[index])
                       for index in sorted(samples)},
            "totals": aggregate_resources(samples.values()),
        }
    path = os.path.join(checkpoint_dir, MANIFEST_NAME)
    return atomic_write_text(
        path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_manifest(checkpoint_dir: str) -> Optional[Dict[str, object]]:
    """Read the study manifest in ``checkpoint_dir``, if one exists.

    Returns ``None`` when no manifest is present (a fresh or pre-manifest
    checkpoint dir).  Raises :class:`~repro.crawler.CheckpointError` on
    a file that exists but is not a readable manifest (truncated JSON,
    wrong type, wrong schema) — never silently resumes against garbage.
    """
    path = os.path.join(checkpoint_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckpointError(
            "%s is not a readable study manifest (%s); delete it to "
            "restart the study from its per-shard checkpoints"
            % (path, exc)) from exc
    if not isinstance(document, dict) or \
            document.get("type") != "study-manifest":
        raise CheckpointError(
            "%s is not a study manifest (missing type marker)" % path)
    if document.get("schema") != MANIFEST_SCHEMA_VERSION:
        raise CheckpointError(
            "%s has manifest schema %r but this version reads %d"
            % (path, document.get("schema"), MANIFEST_SCHEMA_VERSION))
    return document


def validate_manifest_layout(manifest: Dict[str, object],
                             layout: ShardLayout,
                             checkpoint_dir: str) -> None:
    """Refuse to resume a manifest written under a different layout."""
    described = manifest.get("layout")
    if not isinstance(described, dict):
        return
    digest = described.get("digest")
    if digest is not None and digest != layout.digest():
        raise CheckpointError(
            "%s/%s was written under shard layout %s but the running "
            "layout is %s (%d shards); shard layouts must match exactly "
            "to resume" % (checkpoint_dir, MANIFEST_NAME, digest,
                           layout.digest(), layout.num_shards))


# ---------------------------------------------------------------------------
# The parent side.
# ---------------------------------------------------------------------------

class _WorkerHandle:
    """Parent-side bookkeeping for one in-flight worker attempt.

    Holds live process/pipe handles on purpose — this object never
    crosses a process boundary (the picklable currency is
    :class:`_Beat` / :class:`_WorkerOutcome`).
    """

    def __init__(self, job, attempt: int, process, conn,
                 launched_at: float) -> None:
        self.job = job
        self.attempt = attempt
        self.process = process           # statan: ignore[PKL303] -- parent-side handle; object never pickled
        self.conn = conn                 # statan: ignore[PKL303] -- parent-side handle; object never pickled
        self.last_beat = launched_at

    @property
    def shard(self) -> int:
        return self.job.shard.index


class ShardSupervisor:
    """Drives shard jobs to completion under supervision.

    ``workers`` caps the worker processes in flight; ``workers=1`` runs
    every shard in the caller's process instead.  ``progress``
    (optional) receives every worker
    :class:`~repro.obs.progress.HeartbeatEvent` that carries crawl
    progress — the same sink contract as the engine's, so live progress
    keeps streaming across retries and kills.  ``event_sink``
    (optional) receives every :class:`SupervisionEvent` the moment it
    is recorded — the live twin of ``outcome.events``, used by the
    service layer to fan supervision decisions out over SSE; like the
    progress sink it runs on the supervision thread and must not raise.
    ``chaos`` injects the deterministic worker-fault plan (tests/CI
    only).  ``checkpoint_dir`` is where the study manifest is written
    (and validated on resume); per-shard checkpoint paths ride on the
    jobs themselves.
    """

    def __init__(self, config: Optional[SupervisorConfig] = None,
                 workers: int = 2,
                 progress: Optional[Callable[[HeartbeatEvent], None]] = None,
                 chaos: Optional[ChaosPlan] = None,
                 checkpoint_dir: Optional[str] = None,
                 spec_description: str = "",
                 event_sink: Optional[
                     Callable[[SupervisionEvent], None]] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.config = config or SupervisorConfig()
        self.workers = workers
        self.progress = progress
        self.event_sink = event_sink
        self.chaos = chaos
        self.checkpoint_dir = checkpoint_dir
        self.spec_description = spec_description
        self._shutdown_reason: Optional[str] = None
        self._shutdown_at: Optional[float] = None
        # request_shutdown writes here to wake the event wait: under
        # PEP 475 neither a signal nor another thread's call would.
        self._wakeup_reader, self._wakeup_writer = \
            multiprocessing.Pipe(duplex=False)

    # -- shutdown --------------------------------------------------------

    def request_shutdown(self, reason: str = "requested") -> None:
        """Begin a graceful shutdown (idempotent, signal- and thread-safe).

        In-flight shards get ``drain_timeout`` seconds to finish; new
        dispatch stops immediately; the run returns a partial outcome
        with ``interrupted=True``.
        """
        if self._shutdown_reason is None:
            self._shutdown_reason = reason
            self._wakeup_writer.send_bytes(b"")

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown_reason is not None

    def _on_signal(self, signum, frame) -> None:
        self.request_shutdown("signal %d" % signum)

    # -- execution -------------------------------------------------------

    def run(self, jobs: Sequence[object],
            layout: Optional[ShardLayout] = None) -> SupervisionOutcome:
        """Execute ``jobs`` (ShardJobs) to a :class:`SupervisionOutcome`.

        Raises :class:`~repro.crawler.CheckpointError` immediately when
        a worker reports one (resume-layout mismatches must abort the
        study, not burn retries) or when an existing study manifest
        describes a different layout.  With ``workers=1`` every other
        exception a shard raises propagates as well.  SIGINT/SIGTERM
        request a graceful shutdown while this runs on the main thread.
        """
        if self.checkpoint_dir and layout is not None:
            manifest = load_manifest(self.checkpoint_dir)
            if manifest is not None:
                validate_manifest_layout(manifest, layout,
                                         self.checkpoint_dir)
        outcome = SupervisionOutcome()
        pending: List[Tuple[object, int]] = [(job, 0) for job in jobs]
        inflight: Dict[int, _WorkerHandle] = {}
        restore: List[Tuple[int, object]] = []
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    restore.append(
                        (signum, signal.signal(signum, self._on_signal)))
                except (ValueError, OSError):
                    pass
        try:
            self._loop(outcome, pending, inflight)
        finally:
            for signum, previous in restore:
                try:
                    signal.signal(signum, previous)
                except (ValueError, OSError, TypeError):
                    pass
            for handle in list(inflight.values()):
                self._retire(handle, inflight, kill=True)
        if self.checkpoint_dir and layout is not None:
            write_manifest(self.checkpoint_dir, layout, outcome,
                           spec_description=self.spec_description)
        return outcome

    # -- internals -------------------------------------------------------

    def _now(self) -> float:
        # Liveness is a wall-clock property; see the module docstring.
        return time.monotonic()     # statan: ignore[DET101] -- liveness watchdog; see module docstring

    def _record(self, outcome: SupervisionOutcome,
                event: SupervisionEvent) -> None:
        """Append one supervision decision and fan it out live."""
        outcome.events.append(event)
        if self.event_sink is not None:
            self.event_sink(event)

    def _loop(self, outcome: SupervisionOutcome,
              pending: List[Tuple[object, int]],
              inflight: Dict[int, _WorkerHandle]) -> None:
        from .parallel import run_shard_job
        while pending or inflight:
            while pending and len(inflight) < self.workers and \
                    not self.shutdown_requested:
                job, attempt = pending.pop(0)
                if self.workers == 1:
                    # In-process: the caller's own process crawls, so
                    # there is no liveness to watch and an error
                    # propagates instead of being retried.
                    outcome.results.append(
                        run_shard_job(job, emit=self.progress))
                else:
                    handle = self._launch(job, attempt)
                    inflight[handle.shard] = handle
            if self.shutdown_requested:
                self._drain(outcome, pending, inflight)
            if inflight:
                self._wait(outcome, pending, inflight)

    def _drain(self, outcome: SupervisionOutcome,
               pending: List[Tuple[object, int]],
               inflight: Dict[int, _WorkerHandle]) -> None:
        """Shutdown bookkeeping: pending shards will not run; in-flight
        shards drain until the timeout, then die (their checkpoints
        survive)."""
        if self._shutdown_at is None:
            self._shutdown_at = self._now()
            outcome.interrupted = True
            self._record(outcome, SupervisionEvent(
                kind=EVENT_SHUTDOWN, detail=self._shutdown_reason or ""))
        outcome.unfinished.extend(job.shard.index for job, _ in pending)
        del pending[:]
        if self._now() - self._shutdown_at < self.config.drain_timeout:
            return
        for handle in list(inflight.values()):
            self._record(outcome, SupervisionEvent(
                kind=EVENT_DRAIN_KILL, shard=handle.shard,
                attempt=handle.attempt,
                detail="drain timeout after %.1fs"
                       % self.config.drain_timeout))
            self._retire(handle, inflight, kill=True)
            outcome.unfinished.append(handle.shard)

    def _launch(self, job, attempt: int) -> _WorkerHandle:
        with _LAUNCH_LOCK:
            reader, writer = multiprocessing.Pipe(duplex=False)
            process = multiprocessing.Process(
                target=_supervised_worker_main,
                args=(job, attempt, self.chaos, writer), daemon=True,
                name="repro-shard-%03d-attempt-%d"
                     % (job.shard.index, attempt))
            process.start()
            # Only the worker may hold the write end: once it exits,
            # for whatever reason, the reader sees end-of-file.
            writer.close()
        return _WorkerHandle(job=job, attempt=attempt, process=process,
                             conn=reader, launched_at=self._now())

    def _wait(self, outcome: SupervisionOutcome,
              pending: List[Tuple[object, int]],
              inflight: Dict[int, _WorkerHandle]) -> None:
        """Block until a worker pipe or sentinel is ready, a shutdown is
        requested, or the nearest deadline passes; then act on it."""
        deadline = min(handle.last_beat for handle in inflight.values()) \
            + self.config.heartbeat_deadline
        if self._shutdown_at is not None:
            deadline = min(deadline,
                           self._shutdown_at + self.config.drain_timeout)
        waitables = [handle.conn for handle in inflight.values()]
        waitables += [handle.process.sentinel
                      for handle in inflight.values()]
        if not self.shutdown_requested:
            waitables.append(self._wakeup_reader)
        ready = set(wait(waitables, timeout=max(0.0,
                                                deadline - self._now())))
        for handle in list(inflight.values()):
            exited = handle.process.sentinel in ready
            if exited or handle.conn in ready:
                self._receive(outcome, pending, inflight, handle, exited)
        now = self._now()
        for handle in list(inflight.values()):
            silent = now - handle.last_beat
            if silent >= self.config.heartbeat_deadline:
                self._retire(handle, inflight, kill=True)
                self._handle_failure(
                    outcome, pending, handle, EVENT_WATCHDOG_TRIP,
                    detail="no heartbeat for %.1fs (deadline %.1fs); "
                           "worker killed"
                           % (silent, self.config.heartbeat_deadline))

    def _receive(self, outcome: SupervisionOutcome,
                 pending: List[Tuple[object, int]],
                 inflight: Dict[int, _WorkerHandle],
                 handle: _WorkerHandle, exited: bool) -> None:
        """Deliver a ready worker's beats; settle its shard once it has
        sent its outcome or is gone."""
        message: Optional[_WorkerOutcome] = None
        try:
            while message is None and handle.conn.poll():
                received = handle.conn.recv()
                if isinstance(received, _WorkerOutcome):
                    message = received      # always the last message
                    continue
                handle.last_beat = self._now()
                if self.progress is not None and received.event is not None:
                    self.progress(received.event)
        except (EOFError, OSError):
            # End of file, possibly mid-message: the worker is gone.
            exited = True
        if message is None and not exited:
            return
        self._retire(handle, inflight)
        if message is None:
            exitcode = handle.process.exitcode
            died_of = ("exit code %d" % exitcode if exitcode >= 0
                       else "signal %d" % -exitcode)
            self._handle_failure(outcome, pending, handle,
                                 EVENT_WORKER_CRASHED,
                                 detail="worker died (%s) without "
                                        "delivering a result" % died_of)
        elif message.result is not None:
            outcome.results.append(message.result)
        else:
            self._handle_failure(
                outcome, pending, handle, EVENT_WORKER_ERROR,
                error_type=message.error_type,
                detail="%s: %s" % (message.error_type, message.error))

    def _retire(self, handle: _WorkerHandle,
                inflight: Dict[int, _WorkerHandle],
                kill: bool = False) -> None:
        """Reap a worker and close its pipe.  A worker that is to be
        killed, or outlives :data:`KILL_GRACE` after its outcome, gets
        SIGTERM, then SIGKILL after another grace."""
        del inflight[handle.shard]
        process = handle.process
        if not kill:
            process.join(KILL_GRACE)
        if process.exitcode is None:
            process.terminate()
            process.join(KILL_GRACE)
        if process.exitcode is None:
            process.kill()
            process.join()
        handle.conn.close()

    def _handle_failure(self, outcome: SupervisionOutcome,
                        pending: List[Tuple[object, int]],
                        handle: _WorkerHandle, kind: str,
                        error_type: str = "", detail: str = "") -> None:
        """Classify a lost attempt: abort, retry, or quarantine."""
        if error_type == "CheckpointError":
            # Resume-layout mismatches poison every retry identically;
            # surface them as the library-level error they are.
            raise CheckpointError(detail.split(": ", 1)[-1] or detail)
        failure_class = classify_worker_failure(kind, error_type)
        self._record(outcome, SupervisionEvent(
            kind=kind, shard=handle.shard, attempt=handle.attempt,
            failure_class=failure_class, detail=detail))
        retryable = (failure_class == FAILURE_TRANSIENT
                     and handle.attempt < self.config.max_retries
                     and not self.shutdown_requested)
        if retryable:
            self._record(outcome, SupervisionEvent(
                kind=EVENT_RETRY, shard=handle.shard,
                attempt=handle.attempt + 1, failure_class=failure_class,
                detail="retrying after %s" % kind))
            pending.append((handle.job, handle.attempt + 1))
            return
        if self.shutdown_requested and failure_class == FAILURE_TRANSIENT:
            # Do not quarantine a shard we merely refused to retry
            # because shutdown landed: it is unfinished, not poison.
            outcome.unfinished.append(handle.shard)
            return
        terminal = SupervisionEvent(
            kind=EVENT_QUARANTINE, shard=handle.shard,
            attempt=handle.attempt, failure_class=failure_class,
            detail="quarantined after %d attempt(s): %s"
                   % (handle.attempt + 1, detail))
        self._record(outcome, terminal)
        outcome.quarantined[handle.shard] = terminal
