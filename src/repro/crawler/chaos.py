"""Deterministic worker-fault injection for the supervised crawl.

The fault-injection layer of :mod:`repro.netsim.faults` hardens the
*simulated network*; this module hardens the *executor* by letting tests
and CI kill, hang, or slow real worker processes at exact, seeded points
— so every supervision path (watchdog trip, retry, quarantine, drain) is
exercised reproducibly instead of waiting for a real OOM-kill to find
the bugs.

A :class:`ChaosPlan` is a picklable tuple of :class:`WorkerFault`
directives.  The supervisor ships the plan to every worker it launches
(together with the worker's attempt number for its shard); the worker
installs it around its heartbeat stream and, when a fault's trigger
``(shard, sites completed, attempt)`` matches, the fault fires:

* ``kill`` — the process exits immediately via ``os._exit`` (no Python
  cleanup, no result), exactly like a segfault or OOM kill;
* ``hang`` — the process stops making progress (sleeps forever) while
  staying alive, exactly like a deadlocked or wedged worker; only the
  supervisor's heartbeat watchdog can detect it;
* ``slow`` — every subsequent heartbeat is delayed by ``delay``
  seconds, for exercising watchdog deadlines against live-but-slow
  workers.

Faults fire *after* the triggering site's heartbeat (and its checkpoint,
when checkpointing is on) has been delivered, so "kill after site K"
leaves exactly K sites of durable progress.  ``attempts`` bounds the
attempt indexes a fault fires on (default: only the first attempt, so a
supervisor retry converges); ``attempts=None`` fires on every attempt —
the poison-shard case that must end in quarantine.

Chaos is a *worker-process* concern: plans are inert in serial
(in-process) crawls, and :class:`~repro.crawler.ParallelCrawler` refuses
to combine a chaos plan with ``workers=1`` rather than killing the
caller's own process.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

#: The supported fault kinds (also the ``--chaos`` spec verbs).
KIND_KILL = "kill"
KIND_HANG = "hang"
KIND_SLOW = "slow"
CHAOS_KINDS = (KIND_KILL, KIND_HANG, KIND_SLOW)

#: Exit code a chaos-killed worker dies with (visible in supervision
#: events; distinct from clean exit and from signal deaths).
CHAOS_KILL_EXIT_CODE = 86

#: The ``--chaos`` spec grammar, echoed by parse errors.
CHAOS_SPEC_GRAMMAR = (
    "KIND:SHARD[:AFTER_SITES[:ATTEMPTS]] where KIND is kill|hang|slow, "
    "SHARD is the target shard index, AFTER_SITES is how many sites the "
    "shard completes before the fault fires (default 1; 0 fires at "
    "startup), and ATTEMPTS is how many worker attempts the fault fires "
    "on (default 1; '*' means every attempt). Examples: 'kill:0', "
    "'hang:2:1', 'slow:1:0:*'"
)


class ChaosError(ValueError):
    """A chaos spec could not be parsed or applied."""


@dataclass(frozen=True)
class WorkerFault:
    """One seeded process-level fault directive.

    ``shard`` is the target shard index; ``after_sites`` the number of
    completed sites that triggers the fault (0 = at worker startup,
    before the first site); ``attempts`` the number of initial attempt
    indexes the fault fires on (``None`` = every attempt); ``delay``
    the per-heartbeat delay, in wall seconds, for ``slow`` faults.
    """

    kind: str
    shard: int
    after_sites: int = 1
    attempts: Optional[int] = 1
    delay: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ChaosError("unknown chaos fault kind %r (expected %s)"
                             % (self.kind, "|".join(CHAOS_KINDS)))
        if self.shard < 0:
            raise ChaosError("chaos fault shard must be >= 0")
        if self.after_sites < 0:
            raise ChaosError("chaos fault after_sites must be >= 0")
        if self.attempts is not None and self.attempts < 1:
            raise ChaosError("chaos fault attempts must be >= 1 or None")

    def fires_on_attempt(self, attempt: int) -> bool:
        return self.attempts is None or attempt < self.attempts

    def describe(self) -> str:
        scope = ("every attempt" if self.attempts is None
                 else "first %d attempt(s)" % self.attempts)
        return ("%s shard %d after %d site(s) (%s)"
                % (self.kind, self.shard, self.after_sites, scope))


@dataclass(frozen=True)
class ChaosPlan:
    """A picklable, deterministic worker-fault plan.

    Plain data end to end (PKL301–303 hold): the plan crosses the
    process boundary with each worker launch and decides every fault as
    a pure function of ``(shard, sites completed, attempt)`` — the same
    plan against the same layout misbehaves identically on every run.
    """

    faults: Tuple[WorkerFault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def fault_for(self, shard: int, attempt: int) -> Optional[WorkerFault]:
        """The first fault armed for ``(shard, attempt)``, if any."""
        for fault in self.faults:
            if fault.shard == shard and fault.fires_on_attempt(attempt):
                return fault
        return None

    def describe(self) -> str:
        if not self.faults:
            return "no chaos"
        return "; ".join(fault.describe() for fault in self.faults)


def parse_chaos_spec(spec: str) -> WorkerFault:
    """Parse one ``--chaos`` spec into a :class:`WorkerFault`.

    Raises :class:`ChaosError` whose message echoes the supported
    grammar (:data:`CHAOS_SPEC_GRAMMAR`) on any malformed spec.
    """
    def fail(why: str) -> "ChaosError":
        return ChaosError("--chaos %r: %s; expected %s"
                          % (spec, why, CHAOS_SPEC_GRAMMAR))

    parts = spec.strip().split(":")
    if not 2 <= len(parts) <= 4:
        raise fail("expected 2-4 colon-separated fields")
    kind = parts[0].strip().lower()
    if kind not in CHAOS_KINDS:
        raise fail("unknown fault kind %r" % parts[0])
    try:
        shard = int(parts[1])
    except ValueError:
        raise fail("shard %r is not an integer" % parts[1]) from None
    after_sites = 1
    if len(parts) >= 3:
        try:
            after_sites = int(parts[2])
        except ValueError:
            raise fail("after-sites %r is not an integer"
                       % parts[2]) from None
    attempts: Optional[int] = 1
    if len(parts) == 4:
        if parts[3].strip() == "*":
            attempts = None
        else:
            try:
                attempts = int(parts[3])
            except ValueError:
                raise fail("attempts %r is not an integer or '*'"
                           % parts[3]) from None
    try:
        return WorkerFault(kind=kind, shard=shard, after_sites=after_sites,
                           attempts=attempts)
    except ChaosError as exc:
        raise fail(str(exc)) from None


def parse_chaos_plan(specs) -> Optional[ChaosPlan]:
    """Parse a sequence of ``--chaos`` specs (``None``/empty → ``None``)."""
    if not specs:
        return None
    return ChaosPlan(faults=tuple(parse_chaos_spec(spec) for spec in specs))


class ChaosMonkey:
    """The worker-side fault executor for one ``(shard, attempt)``.

    Built inside the worker process from the pickled plan; never crosses
    the process boundary itself.  :meth:`on_start` runs before the first
    site, :meth:`on_site` after each completed site's heartbeat.
    """

    def __init__(self, fault: Optional[WorkerFault]) -> None:
        self.fault = fault
        self.sites_completed = 0

    # Wall-clock sleeps are this module's *purpose* — chaos manipulates
    # real process liveness, which the simulated clock cannot model.
    # Faults fire after the dataset-affecting work of the triggering
    # site is already durable, so determinism of the merged fingerprint
    # is untouched (asserted in tests/test_supervisor_chaos.py).

    def on_start(self) -> None:
        if self.fault is not None and self.fault.after_sites == 0:
            self._fire()

    def on_site(self) -> None:
        self.sites_completed += 1
        if self.fault is None:
            return
        if self.fault.kind == KIND_SLOW:
            if self.sites_completed >= self.fault.after_sites:
                time.sleep(self.fault.delay)
            return
        if self.sites_completed == self.fault.after_sites:
            self._fire()

    def _fire(self) -> None:
        assert self.fault is not None
        if self.fault.kind == KIND_KILL:
            # Die the way a segfault dies: immediately, no cleanup, no
            # result, no exception crossing the pipe.
            os._exit(CHAOS_KILL_EXIT_CODE)
        if self.fault.kind == KIND_HANG:
            while True:     # stay alive but wedge until the watchdog acts
                time.sleep(3600)
