"""Client-side resilience: retry policy, backoff, circuit breakers.

The crawl engine's answer to :mod:`repro.netsim.faults`: every network
exchange gets an attempt budget with exponential backoff and deterministic
jitter, a per-request timeout that slow responses must beat, and a
per-origin circuit breaker that stops hammering origins that keep failing
— the repeatedly-failing site is *quarantined* and reported under the
§3.2 failure taxonomy instead of being retried forever or silently lost.

Everything is deterministic: jitter is a hash of (origin, attempt), so a
crawl replays identically and a checkpointed crawl resumes bit-identically.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..netsim.stamps import ChangeStamps


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt budget + backoff schedule for one network exchange.

    ``max_attempts`` must exceed the fault plan's ``max_consecutive`` for
    the convergence guarantee (the defaults do: 4 > 2).
    """

    max_attempts: int = 4
    base_delay: float = 0.25        # seconds before the first retry
    backoff_factor: float = 2.0
    max_delay: float = 8.0
    jitter: float = 0.1             # +/- fraction applied to each delay
    request_timeout: float = 30.0   # responses slower than this time out

    def backoff_delay(self, attempt: int, key: str = "") -> float:
        """Delay before retry number ``attempt`` (1-based), jittered.

        The jitter is a deterministic hash of ``(key, attempt)`` so a
        replayed or resumed crawl waits the exact same simulated time.
        """
        raw = min(self.base_delay * self.backoff_factor ** (attempt - 1),
                  self.max_delay)
        material = "backoff:%s:%d" % (key, attempt)
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        unit = int.from_bytes(digest[:7], "big") / float(1 << 56)
        return raw * (1.0 + self.jitter * (2.0 * unit - 1.0))


@dataclass
class RequestFailure:
    """Why the last document load failed (read by the flow runner)."""

    origin: str
    kind: str                 # FAULT_* kind, "nxdomain", or "http_<status>"
    attempts: int
    circuit_open: bool = False


class CircuitBreakerRegistry:
    """Per-origin consecutive-failure counter with a trip threshold.

    Only transport-level failures count (timeouts, resets, DNS timeouts):
    an origin that keeps *answering* — even with 5xx — is degraded, not
    dead.  Once open, a breaker stays open for the rest of the crawl; the
    origin is quarantined and every further exchange is skipped.

    For checkpoint journals the registry stamps every origin it records
    with a change counter, as :class:`~repro.netsim.CookieJar` does, so
    :meth:`journal_changes` hands out just the origins recorded since an
    earlier :attr:`journal_version`.
    """

    #: Consecutive transport failures that open an origin's breaker.
    threshold = 3

    def __init__(self) -> None:
        self._consecutive: Dict[str, int] = {}
        self._open: Set[str] = set()
        self._changes: ChangeStamps[str] = ChangeStamps()

    def record_failure(self, origin: str) -> None:
        count = self._consecutive.get(origin, 0) + 1
        self._consecutive[origin] = count
        if count >= self.threshold:
            self._open.add(origin)
        self._changes.stamp(origin)

    def record_success(self, origin: str) -> None:
        self._consecutive[origin] = 0
        self._changes.stamp(origin)

    def is_open(self, origin: str) -> bool:
        return origin in self._open

    def open_origins(self) -> List[str]:
        """Quarantined origins, sorted for stable reporting."""
        return sorted(self._open)

    # -- checkpoint journal ---------------------------------------------

    @property
    def journal_version(self) -> int:
        """A counter that every recorded success or failure advances."""
        return self._changes.version

    def journal_changes(self, since: Optional[int] = None
                        ) -> List[Tuple[str, int, bool]]:
        """``(origin, consecutive failures, open)`` for each origin
        recorded after version ``since`` (every origin with
        ``since=None``), for a checkpoint record."""
        origins: Iterable[str] = (self._consecutive if since is None
                                  else self._changes.changed_since(since))
        return [(origin, self._consecutive[origin], origin in self._open)
                for origin in origins]

    def apply_journal_changes(
            self, changes: List[Tuple[str, int, bool]]) -> None:
        """Adopt origins from :meth:`journal_changes`."""
        for origin, count, is_open in changes:
            self._consecutive[origin] = count
            if is_open:
                self._open.add(origin)
