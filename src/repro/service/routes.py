"""HTTP routing: (method, path) → handler → :class:`Response`.

Deliberately framework-free: the router is a plain object that maps a
parsed request onto the :class:`~repro.service.server.StudyService` and
returns a :class:`Response` value the server layer writes out.  Keeping
the mapping out of the socket code makes every endpoint testable
without a listening port (``tests/test_service_http.py`` drives both).

Endpoints (full reference with examples in docs/SERVICE.md)::

    GET  /healthz               service + queue health
    GET  /metrics               Prometheus text exposition
    POST /studies               submit a job spec       202 | 400 | 503
    GET  /studies               list jobs
    GET  /studies/{id}          status + supervision    200 | 404
    GET  /studies/{id}/result   attribution output      200 | 404 | 409
    GET  /studies/{id}/trace    JSONL trace download    200 | 404 | 409
    GET  /studies/{id}/events   SSE progress stream     200 | 404
                                (honors Last-Event-ID reconnects)
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

from ..obs.exposition import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.exposition import render_prometheus
from .jobs import STATE_COMPLETE, SpecError
from .sse import stream_log
from .store import JobRecord


@dataclass
class Response:
    """One HTTP response, body or stream (never both)."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()
    #: When set, the server writes these chunks as they come (SSE) and
    #: sends no Content-Length; ``body`` must stay empty.
    stream: Optional[Iterator[bytes]] = None


def json_response(status: int, document: Dict[str, object],
                  headers: Tuple[Tuple[str, str], ...] = ()) -> Response:
    body = (json.dumps(document, sort_keys=True) + "\n"
            ).encode("utf-8")
    return Response(status=status, body=body, headers=headers)


def error_response(status: int, message: str,
                   headers: Tuple[Tuple[str, str], ...] = (),
                   **extra: object) -> Response:
    document: Dict[str, object] = {"error": message}
    document.update(extra)
    return json_response(status, document, headers=headers)


class Router:
    """Maps requests onto a :class:`StudyService`."""

    def __init__(self, service) -> None:
        self.service = service

    def route(self, method: str, path: str, body: bytes = b"",
              headers: Optional[Mapping[str, str]] = None) -> Response:
        headers = headers or {}
        parts = [part for part in path.split("?", 1)[0].split("/") if part]
        if not parts or parts == ["healthz"]:
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._health()
        if parts == ["metrics"]:
            if method != "GET":
                return self._method_not_allowed("GET")
            return self._metrics()
        if parts[0] != "studies" or len(parts) > 3:
            return error_response(404, "no such resource: /%s"
                                  % "/".join(parts))
        if len(parts) == 1:
            if method == "POST":
                return self._submit(body)
            if method == "GET":
                return self._list()
            return self._method_not_allowed("GET, POST")
        record = self.service.store.get(parts[1])
        if record is None:
            return error_response(404, "no such job: %s" % parts[1])
        if method != "GET":
            return self._method_not_allowed("GET")
        if len(parts) == 2:
            return json_response(200, record.status_document())
        tail = parts[2]
        if tail == "result":
            return self._result(record)
        if tail == "trace":
            return self._trace(record)
        if tail == "events":
            return self._events(record, headers)
        return error_response(404, "no such resource under %s: %s"
                              % (record.id, tail))

    # -- handlers --------------------------------------------------------

    def _method_not_allowed(self, allow: str) -> Response:
        return error_response(405, "method not allowed",
                              headers=(("Allow", allow),))

    def _health(self) -> Response:
        return json_response(200, self.service.health())

    def _metrics(self) -> Response:
        # Gauges (queue depth, jobs by state, uptime) are refreshed at
        # scrape time; counters and histograms accumulate at every
        # request/job transition.
        self.service.refresh_runtime_gauges()
        body = render_prometheus(self.service.metrics).encode("utf-8")
        return Response(status=200, body=body,
                        content_type=METRICS_CONTENT_TYPE)

    def _list(self) -> Response:
        return json_response(200, {
            "jobs": [record.summary()
                     for record in self.service.store.list()],
        })

    def _submit(self, body: bytes) -> Response:
        from .server import QueueFullError
        try:
            document = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            return error_response(400, "request body is not JSON: %s" % exc)
        try:
            record = self.service.submit(document)
        except SpecError as exc:
            return error_response(400, str(exc))
        except QueueFullError as exc:
            # Explicit backpressure: the queue is bounded, and a full
            # queue is the client's signal to come back, not a reason
            # for the service to buffer without limit.
            return error_response(
                503, str(exc),
                headers=(("Retry-After", str(exc.retry_after)),),
                retry_after=exc.retry_after)
        return json_response(202, {
            "id": record.id,
            "state": record.state,
            "location": "/studies/%s" % record.id,
            "events": "/studies/%s/events" % record.id,
        }, headers=(("Location", "/studies/%s" % record.id),))

    def _result(self, record: JobRecord) -> Response:
        if record.state != STATE_COMPLETE:
            return error_response(
                409, "job %s has no result (state: %s)"
                     % (record.id, record.state),
                state=record.state, job_error=record.error,
                resumable=record.resumable)
        document = self.service.store.read_result(record)
        if document is None:
            return error_response(404, "result.json is missing for %s"
                                  % record.id)
        return json_response(200, document)

    def _trace(self, record: JobRecord) -> Response:
        if not record.terminal:
            return error_response(
                409, "job %s is still %s; the trace is written when it "
                     "finishes" % (record.id, record.state),
                state=record.state)
        if not os.path.exists(record.trace_path):
            return error_response(404, "job %s recorded no trace"
                                  % record.id)
        with open(record.trace_path, "rb") as handle:
            body = handle.read()
        return Response(status=200, body=body,
                        content_type="application/x-ndjson")

    def _events(self, record: JobRecord,
                headers: Mapping[str, str]) -> Response:
        # SSE reconnect: frame ids are event-log indexes, so a client
        # that last saw id N resumes at N + 1.  A garbage or negative
        # header degrades to a full replay — never an error, per the
        # EventSource contract.
        start_index = 0
        last_id = headers.get("last-event-id", "").strip()
        if last_id:
            try:
                start_index = max(0, int(last_id) + 1)
            except ValueError:
                start_index = 0
        stream = stream_log(record.log,
                            should_stop=self.service.stopping,
                            start_index=start_index)
        return Response(
            status=200, content_type="text/event-stream",
            headers=(("Cache-Control", "no-cache"),
                     ("Connection", "close")),
            stream=self._gauge_subscribers(stream))

    def _gauge_subscribers(self, stream: Iterator[bytes]
                           ) -> Iterator[bytes]:
        """Track live SSE followers in the runtime metrics."""
        metrics = self.service.metrics
        metrics.add_gauge("repro_service_sse_subscribers", 1,
                          help="SSE event streams currently connected.")
        try:
            for chunk in stream:
                yield chunk
        finally:
            metrics.add_gauge("repro_service_sse_subscribers", -1)


__all__ = ["Response", "Router", "error_response", "json_response"]
