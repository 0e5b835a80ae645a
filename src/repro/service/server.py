"""The stdlib HTTP server and the bounded study-runner pool.

:class:`StudyService` is the whole service: a :class:`JobStore` rooted
at ``jobs_dir``, a bounded submission queue (full queue → HTTP 503 +
``Retry-After``, the explicit backpressure contract), ``runners``
worker *threads* that execute jobs via
:class:`~repro.service.jobs.JobRun` (the crawl itself still fans out
over supervised worker *processes* when ``workers > 1``), and a
:class:`ThreadingHTTPServer` front end.

Graceful shutdown (SIGTERM/SIGINT → :meth:`StudyService.begin_shutdown`)
drains, never drops: submissions start getting 503, every in-flight
crawl is asked to stop through the supervisor's existing drain path
(which writes the resumable ``study-manifest.json``), runner threads
exit after their current job lands in a terminal-or-resumable state,
and a restart's :meth:`JobStore.recover` requeues whatever was cut
short.

Threads, conditions and the listening socket are service-side state
that never crosses a process boundary; the ``PKL303`` suppressions
below mark those storage points, and the single wall-clock read in the
drain wait carries its ``DET101`` marker — liveness deadlines are the
one legitimate host-clock use, exactly as in the supervisor.
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import sys
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

from .. import __version__
from ..obs.progress import ProgressAggregator
from ..obs.runtime import RuntimeMetrics, wall_now
from .jobs import (
    JOB_STATES,
    JobRun,
    JobSpec,
    STATE_FAILED,
    STATE_RUNNING,
    SpecError,
)
from .routes import Router
from .store import JobRecord, JobStore

#: Schema version of the GET /healthz document; bump on shape changes.
HEALTH_SCHEMA_VERSION = 2


class QueueFullError(RuntimeError):
    """The bounded submission queue is full (HTTP 503 + Retry-After)."""

    def __init__(self, message: str, retry_after: int = 5) -> None:
        super().__init__(message)
        self.retry_after = retry_after


#: Seconds between the HTTP server's shutdown checks and between an
#: idle runner's checks of the stop flag.
POLL_INTERVAL = 0.1


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (plain picklable data).

    ``runners`` is the bounded study-runner pool size (``0`` accepts
    jobs without executing them — useful for tests and for a
    queue-only front end).  ``queue_size`` bounds the backlog;
    ``retry_after`` is the seconds hint a 503 carries.
    ``drain_timeout`` is how long :meth:`StudyService.close` waits for
    runner threads after a shutdown request before giving up on the
    join (the jobs themselves stay resumable either way).
    """

    host: str = "127.0.0.1"
    port: int = 8642
    jobs_dir: str = "jobs"
    runners: int = 1
    queue_size: int = 8
    retry_after: int = 5
    drain_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.runners < 0:
            raise ValueError("runners must be >= 0")
        if self.queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        if self.retry_after < 0:
            raise ValueError("retry_after must be >= 0")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")


class StudyService:
    """Queue, runner pool, artifact store, and HTTP front end."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.store = JobStore(self.config.jobs_dir)
        self.router = Router(self)
        #: Runtime ops telemetry, served by GET /metrics.  Counters and
        #: histograms accumulate on every request/job transition; the
        #: point-in-time gauges are refreshed at scrape time.
        self.metrics = RuntimeMetrics()
        # Seed the subscriber gauge so the series renders (at 0) even
        # before the first SSE client connects; the ± accounting lives
        # in the stream wrapper.
        self.metrics.add_gauge("repro_service_sse_subscribers", 0,
                               help="SSE event streams currently "
                                    "connected.")
        self._started = wall_now()
        self._queue: "queue_module.Queue[JobRecord]" = \
            queue_module.Queue(maxsize=self.config.queue_size)
        # The service never crosses a pickle boundary itself — only job
        # specs/events do — so parent-side thread primitives are fine.
        self._submit_lock = threading.Lock()   # statan: ignore[PKL303] -- parent-side only, never pickled
        self._stopping = threading.Event()     # statan: ignore[PKL303] -- parent-side only, never pickled
        self._accepting = False
        self._runners: List[threading.Thread] = []
        self._server: Optional[_ServiceHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Recover the store, start the runner pool, bind the socket.

        After ``start()`` the bound port is available as :attr:`port`
        (useful with ``port=0`` for an ephemeral port); call
        :meth:`serve_forever` (blocking) or :meth:`start_in_thread`.
        """
        for record in self.store.recover():
            try:
                self._queue.put_nowait(record)
            except queue_module.Full:
                # More interrupted jobs than queue slots: they stay
                # 'queued' on disk and a later restart (or a larger
                # queue) picks them up — recovery never drops a job.
                print("repro-serve: queue full at recovery; %s stays "
                      "queued on disk" % record.id, file=sys.stderr)
        for index in range(self.config.runners):
            thread = threading.Thread(target=self._runner_loop,
                                      name="repro-serve-runner-%d" % index,
                                      daemon=True)
            thread.start()
            self._runners.append(thread)
        self._server = _ServiceHTTPServer(
            (self.config.host, self.config.port), _Handler, service=self)
        # Publish under the submit lock: submit() reads _accepting under
        # it, and the lock's release/acquire pair is what makes the
        # runner pool + server setup above visible to submitting threads.
        with self._submit_lock:
            self._accepting = True

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0``)."""
        if self._server is None:
            return self.config.port
        return self._server.server_address[1]

    def serve_forever(self) -> None:
        """Serve HTTP until :meth:`begin_shutdown` (blocking)."""
        if self._server is None:
            raise RuntimeError("call start() before serve_forever()")
        self._server.serve_forever(poll_interval=POLL_INTERVAL)

    def start_in_thread(self) -> None:
        """``start()`` + serve on a background thread (tests, examples)."""
        self.start()
        thread = threading.Thread(target=self.serve_forever,
                                  name="repro-serve-http", daemon=True)
        thread.start()
        self._server_thread = thread

    def stopping(self) -> bool:
        """True once a shutdown has been requested (SSE streams check)."""
        return self._stopping.is_set()

    def handle_signal(self, signum: int, frame: object = None) -> None:
        """Signal-handler entry point: begin the graceful drain."""
        self.begin_shutdown("signal %d" % signum)

    def begin_shutdown(self, reason: str = "requested") -> None:
        """Stop accepting, drain in-flight studies (idempotent).

        Safe to call from a signal handler: everything here is either
        an Event set, a flag write, or delegated to another thread.
        """
        if self._stopping.is_set():
            return
        # Deliberately lock-free: a signal handler taking _submit_lock
        # could deadlock against the submit() it interrupted.  The write
        # is a monotonic one-way flip (True -> False) and _stopping.set()
        # below publishes it; worst case one in-flight submit() is
        # accepted during the drain, which the drain handles anyway.
        self._accepting = False  # statan: ignore[CON401] -- signal-safe one-way flip; taking the lock here could self-deadlock
        self._stopping.set()
        for record in self.store.live_records():
            run = record.run
            if run is not None:
                run.request_shutdown(reason)
        if self._server is not None:
            # shutdown() blocks until the serve loop exits, so it must
            # run off the serving thread (which a signal interrupts).
            threading.Thread(target=self._server.shutdown,
                             name="repro-serve-shutdown",
                             daemon=True).start()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Join the runner pool; True when every runner exited."""
        deadline = None
        if timeout is not None:
            # Drain bookkeeping only — job results never see this read.
            deadline = time.monotonic() + timeout  # statan: ignore[DET101] -- liveness deadline, never fingerprinted
        for thread in self._runners:
            remaining = None
            if deadline is not None:
                remaining = max(
                    0.0,
                    deadline - time.monotonic())  # statan: ignore[DET101] -- liveness deadline, never fingerprinted
            thread.join(remaining)
        return not any(thread.is_alive() for thread in self._runners)

    def close(self) -> None:
        """Full stop: drain, join runners, release the socket."""
        self.begin_shutdown("close")
        self.wait_stopped(timeout=self.config.drain_timeout)
        if self._server is not None:
            self._server.server_close()
        if self._server_thread is not None:
            self._server_thread.join(timeout=5.0)

    def __enter__(self) -> "StudyService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- submission ------------------------------------------------------

    def submit(self, document: object) -> JobRecord:
        """Validate, persist, and enqueue one submission.

        Raises :class:`~repro.service.jobs.SpecError` on a bad spec
        (400) and :class:`QueueFullError` when the bounded queue has no
        slot or the service is draining (503 + Retry-After).
        """
        started = wall_now()
        try:
            spec = JobSpec.from_dict(document)
            with self._submit_lock:
                if not self._accepting or self._stopping.is_set():
                    raise QueueFullError(
                        "service is shutting down; retry against the next "
                        "instance", retry_after=self.config.retry_after)
                if self._queue.full():
                    raise QueueFullError(
                        "job queue is full (%d queued); retry later"
                        % self.config.queue_size,
                        retry_after=self.config.retry_after)
                record = self.store.create(spec)
                # Cannot overflow: submissions are serialized by the lock
                # and runners only ever drain the queue.
                self._queue.put_nowait(record)
        except SpecError:
            self._count_submission("invalid")
            raise
        except QueueFullError:
            self._count_submission("rejected")
            raise
        self._count_submission("accepted")
        self.metrics.observe("repro_service_submit_seconds",
                             wall_now() - started,
                             help="Submission latency (validate + persist "
                                  "+ enqueue), seconds.")
        return record

    def _count_submission(self, outcome: str) -> None:
        self.metrics.inc("repro_service_submissions_total",
                         labels={"outcome": outcome},
                         help="Study submissions by outcome.")

    def health(self) -> Dict[str, object]:
        """The ``GET /healthz`` document."""
        states: Dict[str, int] = {}
        for record in self.store.live_records():
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "service": "repro-serve",
            "schema": HEALTH_SCHEMA_VERSION,
            "version": __version__,
            "accepting": self._accepting and not self._stopping.is_set(),
            "draining": self._stopping.is_set(),
            "uptime_seconds": round(wall_now() - self._started, 3),
            "queue": {"depth": self._queue.qsize(),
                      "capacity": self.config.queue_size},
            "runners": self.config.runners,
            "states": states,
        }

    def refresh_runtime_gauges(self) -> None:
        """Recompute the point-in-time gauges (called at scrape time)."""
        metrics = self.metrics
        metrics.set_gauge("repro_service_queue_depth",
                          self._queue.qsize(),
                          help="Jobs waiting in the bounded queue.")
        metrics.set_gauge("repro_service_queue_capacity",
                          self.config.queue_size,
                          help="Bounded queue capacity.")
        metrics.set_gauge("repro_service_uptime_seconds",
                          round(wall_now() - self._started, 3),
                          help="Seconds since the service started.")
        metrics.set_gauge("repro_service_accepting",
                          1.0 if (self._accepting
                                  and not self._stopping.is_set()) else 0.0,
                          help="1 while accepting submissions, 0 while "
                               "draining.")
        states: Dict[str, int] = {}
        for record in self.store.list():
            states[record.state] = states.get(record.state, 0) + 1
        # Known states always render (a zero is a signal too); any
        # state the store invents later still shows up.
        for state in sorted(set(JOB_STATES) | set(states)):
            metrics.set_gauge("repro_service_jobs", states.get(state, 0),
                              labels={"state": state},
                              help="Jobs by state.")

    # -- the runner pool -------------------------------------------------

    def _runner_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                record = self._queue.get(timeout=POLL_INTERVAL)
            except queue_module.Empty:
                continue
            try:
                self._run_job(record)
            except Exception as exc:  # noqa: BLE001 — a runner never dies
                record.state = STATE_FAILED
                record.error = "%s: %s" % (type(exc).__name__, exc)
                self.store.write_status(record)
                if not record.log.closed:
                    record.log.append({"type": "end", "job": record.id,
                                       "state": record.state,
                                       "fingerprint": "",
                                       "error": record.error})
                    record.log.close()

    def _run_job(self, record: JobRecord) -> None:
        resuming = record.recovered and \
            os.path.exists(record.progress_path)
        record.attempts += 1
        record.state = STATE_RUNNING
        record.log.append({"type": "state", "job": record.id,
                           "state": STATE_RUNNING,
                           "attempt": record.attempts})
        self.store.write_status(record)
        # The durable heartbeat log appends across resumes so the SSE
        # replay (rebuilt from it after a restart) keeps the full
        # history of every attempt.
        aggregator = ProgressAggregator(jsonl_path=record.progress_path,
                                        append=resuming)
        log = record.log
        unsubscribe = aggregator.subscribe(
            lambda event: log.append(event.as_dict()))
        record.aggregator = aggregator
        run = JobRun(
            record.spec, checkpoint_dir=record.checkpoint_dir,
            progress=aggregator,
            supervision_sink=lambda event: log.append(
                dict(event.as_dict(), type="supervision")))
        record.run = run
        run_started = wall_now()
        try:
            outcome = run.execute()
        finally:
            record.run = None
            unsubscribe()
            record.progress_snapshot = aggregator.snapshot()
            record.aggregator = None
            aggregator.close()
        self.metrics.observe("repro_service_job_run_seconds",
                             wall_now() - run_started,
                             help="Wall-clock study execution time, "
                                  "seconds.")
        self.metrics.inc("repro_service_jobs_finished_total",
                         labels={"state": outcome.state},
                         help="Finished job executions by terminal "
                              "state.")
        record.state = outcome.state
        record.error = outcome.error
        record.resumable = outcome.resumable
        record.fingerprint = outcome.fingerprint
        record.supervision = outcome.supervision
        if outcome.result is not None:
            self.store.write_result(record, outcome.result)
        if outcome.recorder is not None and outcome.recorder.span_count():
            from ..obs import write_trace
            write_trace(outcome.recorder, record.trace_path)
        self.store.write_status(record)
        record.log.append({"type": "end", "job": record.id,
                           "state": record.state,
                           "fingerprint": record.fingerprint,
                           "error": record.error})
        record.log.close()


class _ServiceHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`StudyService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler_class, service: StudyService
                 ) -> None:
        self.service = service
        super().__init__(address, handler_class)


class _Handler(BaseHTTPRequestHandler):
    """Reads the request, delegates to the router, writes the response.

    HTTP/1.0 on purpose: every response closes the connection, so
    Content-Length is optional on the SSE stream and there is no
    keep-alive state to manage — the simplest thing that is correct
    for both JSON bodies and long-lived event streams.
    """

    server_version = "repro-serve/" + __version__

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_PUT(self) -> None:
        self._dispatch("PUT")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        body = self.rfile.read(length) if length > 0 else b""
        service = self.server.service  # type: ignore[attr-defined]
        metrics = service.metrics
        headers = {key.lower(): value
                   for key, value in self.headers.items()}
        try:
            response = service.router.route(method, self.path, body,
                                            headers=headers)
        except Exception as exc:  # noqa: BLE001 — surfaced as a 500
            payload = json.dumps(
                {"error": "internal error: %s: %s"
                          % (type(exc).__name__, exc)}).encode("utf-8")
            self._count_request(method, 500, len(payload))
            self.send_response(500)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        for name, value in response.headers:
            self.send_header(name, value)
        if response.stream is None:
            self._count_request(method, response.status,
                                len(response.body))
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            self.wfile.write(response.body)
            return
        self._count_request(method, response.status, 0)
        self.end_headers()
        try:
            for chunk in response.stream:
                self.wfile.write(chunk)
                self.wfile.flush()
                metrics.inc("repro_http_bytes_sent_total", len(chunk),
                            help="Response payload bytes written.")
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client hung up; nothing to clean beyond the socket

    def _count_request(self, method: str, status: int,
                       body_bytes: int) -> None:
        metrics = self.server.service.metrics  # type: ignore[attr-defined]
        metrics.inc("repro_http_requests_total",
                    labels={"method": method, "status": str(status)},
                    help="HTTP requests served, by method and status.")
        if body_bytes:
            metrics.inc("repro_http_bytes_sent_total", body_bytes,
                        help="Response payload bytes written.")

    def log_message(self, format: str, *args: object) -> None:
        # Quiet by default: the service's own status lines go to
        # stderr; per-request logs are the platform's job (see
        # docs/SERVICE.md deployment notes).
        pass


__all__ = ["QueueFullError", "ServiceConfig", "StudyService"]
