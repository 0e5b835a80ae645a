"""Fault-injecting wrapper around the synthetic web's origin servers.

:class:`FaultyServer` sits between the browser and a
:class:`~repro.websim.server.WebServer` and consults a
:class:`~repro.netsim.faults.FaultPlan` before every exchange.  Injected
transport faults surface as :class:`~repro.netsim.faults.NetworkError`
raises (the request never reaches the origin — no cookies are minted, no
accounts mutate); injected HTTP faults surface as real 429/5xx responses;
slow responses surface as a copy of the origin's genuine answer that
carries a ``latency_seconds`` the client may refuse to wait for.  Fault
injection never writes onto the origin's response, which the server may
share with every other exchange.
"""

from __future__ import annotations

from typing import Optional

from ..netsim import Headers, HttpRequest, HttpResponse
from ..netsim.faults import (
    FAULT_DEAD,
    FAULT_RESET,
    FAULT_SLOW,
    FAULT_TIMEOUT,
    ConnectionReset,
    ConnectionTimeout,
    FaultPlan,
    http_fault_status,
)
from ..psl import default_list


class FaultyServer:
    """Drop-in ``handle()``-compatible wrapper injecting planned faults."""

    def __init__(self, server, plan: FaultPlan) -> None:
        self.server = server
        self.plan = plan

    def handle(self, request: HttpRequest) -> HttpResponse:
        origin = self._origin(request.url.host)
        kind = self.plan.next_fault(origin)
        if kind is None:
            return self.server.handle(request)
        if kind == FAULT_DEAD:
            # A dead origin looks exactly like a timeout — the client can
            # only infer permanence from repetition (circuit breaker).
            raise ConnectionTimeout(origin, kind=FAULT_TIMEOUT)
        if kind == FAULT_TIMEOUT:
            raise ConnectionTimeout(origin)
        if kind == FAULT_RESET:
            raise ConnectionReset(origin)
        if kind == FAULT_SLOW:
            response = self.server.handle(request)
            return HttpResponse(status=response.status,
                                headers=response.headers,
                                body=response.body,
                                latency_seconds=self.plan.slow_seconds,
                                page=response.page)
        status = http_fault_status(kind)
        headers = Headers([("Content-Type", "text/plain")])
        if status == 429:
            headers.set("Retry-After", "1")
        return HttpResponse(status=status or 500, headers=headers,
                            body=b"injected fault: " + kind.encode("ascii"))

    @staticmethod
    def _origin(host: str) -> str:
        return default_list().registrable_domain(host) or host


def wrap_server(server, plan: Optional[FaultPlan]):
    """Wrap ``server`` when a plan is given; identity otherwise."""
    if plan is None:
        return server
    return FaultyServer(server, plan)
