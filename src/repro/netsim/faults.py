"""Deterministic fault injection for the synthetic network (§3.2).

The live web the paper crawled was flaky — 22 of 348 candidate sites were
unreachable and others failed mid-flow — yet the synthetic web is perfectly
reliable.  :class:`FaultPlan` restores that hostility on purpose: a seeded,
fully deterministic schedule of transient failures (connection timeouts,
resets, HTTP 429/5xx, slow responses, flaky DNS) and permanent ones (dead
origins) that the server wrapper (:class:`repro.websim.faults.FaultyServer`)
and resolver wrapper (:class:`repro.dnssim.flaky.FlakyResolver`) consult on
every exchange.

Determinism contract
--------------------
Every decision is a pure function of ``(seed, namespace, origin, n)`` where
``n`` is a per-origin request counter.  Two crawls with the same seed see
the identical fault sequence; a crawl checkpointed mid-run and resumed
continues the same sequence because the counters travel with the plan.

Convergence contract
--------------------
A single *streak* counter per registrable origin is shared by the DNS gate
and the HTTP gate, because one client request consults both.  At most
``max_consecutive`` faults are injected back-to-back per origin across the
two gates combined; once the cap is hit both gates force pass-through until
an HTTP exchange completes (only the HTTP gate — the end of a full
exchange — resets the streak).  A request therefore fails at most
``max_consecutive`` times before succeeding, so a client whose retry budget
exceeds ``max_consecutive`` and whose circuit-breaker threshold also
exceeds it is *guaranteed* to converge to the fault-free crawl's results
on any origin that is not dead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .stamps import ChangeStamps

# Fault kinds.
FAULT_TIMEOUT = "timeout"            # connect/read timeout
FAULT_RESET = "reset"                # connection reset by peer
FAULT_HTTP_429 = "http_429"          # rate limited
FAULT_HTTP_500 = "http_500"          # origin bug
FAULT_HTTP_503 = "http_503"          # origin overloaded
FAULT_SLOW = "slow_response"         # response slower than client patience
FAULT_DNS = "dns_timeout"            # resolver did not answer in time
FAULT_DEAD = "dead_origin"           # origin permanently gone

#: Transient kinds the plan draws from (uniformly, seeded).
TRANSIENT_FAULT_KINDS = (
    FAULT_TIMEOUT,
    FAULT_RESET,
    FAULT_HTTP_429,
    FAULT_HTTP_500,
    FAULT_HTTP_503,
    FAULT_SLOW,
)

#: HTTP statuses a resilient client treats as retryable.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

#: The namespace streak changes are stamped under; no counter uses it.
_STREAK = "streak"

_HTTP_FAULT_STATUS = {
    FAULT_HTTP_429: 429,
    FAULT_HTTP_500: 500,
    FAULT_HTTP_503: 503,
}


def http_fault_status(kind: str) -> Optional[int]:
    """The HTTP status an injected fault surfaces as (None = no response)."""
    return _HTTP_FAULT_STATUS.get(kind)


class NetworkError(Exception):
    """A transport-level failure: no HTTP response came back.

    From the client's point of view every transport failure looks
    transient — permanence can only be *inferred*, by repeated failure
    (which is what the crawl engine's circuit breaker does).
    """

    def __init__(self, origin: str, kind: str = FAULT_TIMEOUT,
                 latency: float = 0.0) -> None:
        super().__init__("%s talking to %s" % (kind, origin))
        self.origin = origin
        self.kind = kind
        self.latency = latency


class ConnectionTimeout(NetworkError):
    """The origin did not answer within the client's patience."""


class ConnectionReset(NetworkError):
    """The origin dropped the connection mid-exchange."""

    def __init__(self, origin: str, kind: str = FAULT_RESET,
                 latency: float = 0.0) -> None:
        super().__init__(origin, kind=kind, latency=latency)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (the ground-truth failure log)."""

    origin: str      # registrable domain (or DNS name) the fault hit
    kind: str        # one of the FAULT_* kinds
    sequence: int    # per-origin exchange counter at injection time


class FaultPlan:
    """Seeded, reproducible fault schedule over the synthetic network.

    ``transient_rate`` is the per-exchange probability of a transient
    fault; ``dns_rate`` the per-lookup probability of a resolver timeout
    (defaults to half the transient rate).  Dead origins come from
    ``dead_origins`` (explicit) plus a seeded ``dead_rate`` draw per
    origin.  All randomness is a hash of ``(seed, namespace, key, n)`` —
    there is no hidden RNG state beyond the per-origin counters, and those
    are pickled with the plan so a resumed crawl continues the stream.
    """

    def __init__(self, seed: int = 0, transient_rate: float = 0.1,
                 dead_rate: float = 0.0, dns_rate: Optional[float] = None,
                 max_consecutive: int = 2, slow_seconds: float = 45.0,
                 dead_origins: Iterable[str] = ()) -> None:
        if not 0.0 <= transient_rate < 1.0:
            raise ValueError("transient_rate must be in [0, 1)")
        if not 0.0 <= dead_rate < 1.0:
            raise ValueError("dead_rate must be in [0, 1)")
        if max_consecutive < 0:
            raise ValueError("max_consecutive must be >= 0")
        self.seed = seed
        self.transient_rate = transient_rate
        self.dead_rate = dead_rate
        self.dns_rate = (transient_rate / 2.0 if dns_rate is None
                         else dns_rate)
        self.max_consecutive = max_consecutive
        self.slow_seconds = slow_seconds
        self.dead_origins: FrozenSet[str] = frozenset(dead_origins)
        #: (namespace, key) -> exchanges seen so far.
        self._counters: Dict[Tuple[str, str], int] = {}
        #: origin -> consecutive faults injected so far, shared across the
        #: DNS and HTTP gates (the convergence contract's streak counter).
        self._streaks: Dict[str, int] = {}
        self.events: List[FaultEvent] = []
        #: Changes to counters, stamped by their (namespace, key) slot,
        #: and to streaks, stamped as (_STREAK, key).
        self._changes: ChangeStamps[Tuple[str, str]] = ChangeStamps()

    # -- decisions -------------------------------------------------------

    def is_dead(self, origin: str) -> bool:
        """Whether ``origin`` is permanently gone under this plan."""
        if origin in self.dead_origins:
            return True
        if self.dead_rate <= 0.0:
            return False
        return self._ratio("dead", origin, 0) < self.dead_rate

    def next_fault(self, origin: str) -> Optional[str]:
        """Fault decision for the next HTTP exchange with ``origin``.

        The HTTP gate is the end of a complete exchange: any pass —
        forced or natural — resets the origin's fault streak.
        """
        seq = self._advance("http", origin)
        if self.is_dead(origin):
            self.events.append(FaultEvent(origin, FAULT_DEAD, seq))
            return FAULT_DEAD
        streak = self._streaks.get(origin, 0)
        if streak >= self.max_consecutive:
            # Forced pass-through: bounds every fault burst so retrying
            # clients provably converge (see module docstring).
            self._set_streak(origin, 0)
            return None
        if (self.transient_rate > 0.0
                and self._ratio("http", origin, seq) < self.transient_rate):
            kind = TRANSIENT_FAULT_KINDS[
                int(self._ratio("http:kind", origin, seq)
                    * len(TRANSIENT_FAULT_KINDS))]
            self._set_streak(origin, streak + 1)
            self.events.append(FaultEvent(origin, kind, seq))
            return kind
        self._set_streak(origin, 0)
        return None

    def next_dns_fault(self, host: str,
                       origin: Optional[str] = None) -> Optional[str]:
        """Fault decision for the next DNS lookup of ``host``.

        ``origin`` (the host's registrable domain) keys the shared fault
        streak; a DNS pass does *not* reset the streak — the exchange is
        not complete until the HTTP gate answers — which is what keeps the
        two gates' bursts jointly bounded by ``max_consecutive``.
        """
        key = origin or host
        seq = self._advance("dns", key)
        streak = self._streaks.get(key, 0)
        if streak >= self.max_consecutive:
            return None
        if (self.dns_rate > 0.0
                and self._ratio("dns", key, seq) < self.dns_rate):
            self._set_streak(key, streak + 1)
            self.events.append(FaultEvent(key, FAULT_DNS, seq))
            return FAULT_DNS
        return None

    # -- lifecycle -------------------------------------------------------

    @property
    def journal_version(self) -> int:
        """A counter that every change to a counter or streak advances."""
        return self._changes.version

    def journal_changes(self, since: Optional[int] = None
                        ) -> Tuple[Dict[Tuple[str, str], int],
                                   Dict[str, int]]:
        """The per-origin counters and streaks changed after version
        ``since`` (all of them with ``since=None``), for a checkpoint
        record (the event log is journaled as appended events)."""
        if since is None:
            return dict(self._counters), dict(self._streaks)
        counters: Dict[Tuple[str, str], int] = {}
        streaks: Dict[str, int] = {}
        for slot in self._changes.changed_since(since):
            namespace, key = slot
            if namespace == _STREAK:
                streaks[key] = self._streaks[key]
            else:
                counters[slot] = self._counters[slot]
        return counters, streaks

    def apply_journal_changes(
            self, changes: Tuple[Dict[Tuple[str, str], int],
                                 Dict[str, int]]) -> None:
        """Adopt counters and streaks from :meth:`journal_changes`."""
        counters, streaks = changes
        self._counters.update(counters)
        self._streaks.update(streaks)

    def fresh_copy(self) -> "FaultPlan":
        """A new plan with this plan's configuration and zero history.

        Same seed, rates and dead origins; empty counters, streaks and
        event log.  This is how a parallel crawl hands each shard its own
        plan: fault decisions are a pure function of ``(seed, namespace,
        origin, n)``, so every shard that starts its counters from zero
        draws the identical per-origin fault stream no matter which
        worker process executes it (or in which order).
        """
        return FaultPlan(seed=self.seed, transient_rate=self.transient_rate,
                         dead_rate=self.dead_rate, dns_rate=self.dns_rate,
                         max_consecutive=self.max_consecutive,
                         slow_seconds=self.slow_seconds,
                         dead_origins=self.dead_origins)

    # -- observability ---------------------------------------------------

    def failure_log(self) -> Tuple[FaultEvent, ...]:
        """Every fault injected so far, in order."""
        return tuple(self.events)

    def fault_counts(self) -> Dict[str, int]:
        """{fault kind: injections so far}."""
        counts: Dict[str, int] = {}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    # -- internals -------------------------------------------------------

    def _advance(self, namespace: str, key: str) -> int:
        slot = (namespace, key)
        seq = self._counters.get(slot, 0)
        self._counters[slot] = seq + 1
        self._changes.stamp(slot)
        return seq

    def _set_streak(self, key: str, streak: int) -> None:
        self._streaks[key] = streak
        self._changes.stamp((_STREAK, key))

    def _ratio(self, namespace: str, key: str, n: int) -> float:
        """Deterministic uniform draw in [0, 1)."""
        material = "%d:%s:%s:%d" % (self.seed, namespace, key, n)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:7], "big") / float(1 << 56)
