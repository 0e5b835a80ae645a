"""Parallel sharded crawl engine.

Fans a population's site list out over a pool of worker *processes* and
deterministically merges the per-shard results back into one
:class:`~repro.crawler.CrawlDataset`.  The engine's contract (asserted in
``tests/test_parallel_crawl.py``) is **fingerprint invariance**: for a
fixed ``(population, seed, shard layout)``, the merged dataset's
:meth:`~repro.crawler.CrawlDataset.fingerprint` is bit-identical no
matter how many workers execute the shards — one in-process worker
(``workers=1``, the serial reference) or any pool size, with or without
fault injection, with or without checkpoint interruptions.

How the invariance is achieved
------------------------------
* **Shards, not sites, are the unit of state.**  Each shard is crawled
  by a completely independent :class:`~repro.crawler.CrawlSession` —
  its own browser (cookie jar, capture log, simulated clock), mailbox
  and circuit breakers — built from a *picklable*
  :class:`PopulationSpec`, never from live server objects.  Worker
  processes rebuild the synthetic web locally (population construction
  is seeded and cheap), so nothing mutable is shared across processes.
* **Fault plans are per-shard and order-free.**  Every shard receives a
  :meth:`~repro.netsim.faults.FaultPlan.fresh_copy` of the study plan.
  Fault decisions are a pure function of ``(seed, namespace, origin,
  per-origin counter)`` — namespaced per-origin, not per-process-order —
  so a shard draws the identical fault stream wherever and whenever it
  runs.
* **The merge is deterministic.**  Shard results are concatenated in
  shard-index order (capture log, cookie snapshots, mailbox, flow
  outcomes), which depends only on the layout.

The deliberate semantic consequence: browser state never spans shards,
so cookie-based cross-site linkage exists only *within* a shard.  The
paper's subject — PII-leakage-based tracking, where the identifier is a
hash of the persona's email — is unaffected, because that identifier is
recomputed identically on every site regardless of shard placement.

Execution is *supervised* at every worker count (see
:mod:`repro.crawler.supervisor`): with ``workers > 1`` the shards run on
at most ``workers`` long-lived, watched worker processes, with
heartbeat-based liveness detection, bounded retry of lost shards,
poison-shard quarantine, and graceful SIGINT/SIGTERM shutdown that
leaves a resumable study manifest behind; ``workers=1`` runs the shards
in-process through the same dispatch loop and manifest.
Supervision never moves a fingerprint: a shard's result is the same pure
function of ``(population, seed, shard)`` whichever attempt produced it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field as dataclasses_field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..core.assets import CompiledStudyAssets
from ..mailsim import Mailbox
from ..netsim import CaptureLog
from ..netsim.faults import FaultEvent, FaultPlan
from ..obs import Recorder, merge_recorders
from ..obs.progress import HeartbeatEvent
from ..obs.runtime import gc_paused
from ..websim.population import Population
from .chaos import ChaosPlan
from .runner import CrawlDataset, CrawlSession, StudyCrawler, step_session
from .sharding import ShardInfo, ShardLayout
from .supervisor import (
    IncompleteCrawlError,
    ShardSupervisor,
    SupervisionOutcome,
    SupervisorConfig,
)

#: A parent-side heartbeat sink (e.g. a
#: :class:`~repro.obs.progress.ProgressAggregator`).
ProgressSink = Callable[[HeartbeatEvent], None]


# ---------------------------------------------------------------------------
# Population specs: picklable recipes the parent builds a web from.
# ---------------------------------------------------------------------------

class PopulationSpec:
    """A picklable recipe for building a :class:`Population`.

    The parallel engine builds it once, in the parent; the service and
    the study manifest name a crawl by it (:meth:`describe`).  ``build``
    must be deterministic: two calls (in any process) return populations
    that crawl identically.
    """

    def build(self) -> Population:
        """Construct the population; must be deterministic."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable identity (for logs and errors)."""
        return type(self).__name__


@dataclass(frozen=True)
class CalibratedPopulationSpec(PopulationSpec):
    """The paper-calibrated 404-site shopping population."""

    @gc_paused
    def build(self) -> Population:
        from ..websim.shopping import build_study_population
        return build_study_population().population

    def describe(self) -> str:
        return "calibrated shopping population"


@dataclass(frozen=True)
class GeneratedPopulationSpec(PopulationSpec):
    """A seeded random population (see :mod:`repro.websim.generator`).

    ``config`` is a :class:`~repro.websim.generator.GeneratorConfig`
    (frozen, hence picklable); ``None`` means the generator's defaults.
    """

    seed: int = 0
    config: Optional[object] = None

    @gc_paused
    def build(self) -> Population:
        from ..websim.generator import generate_population
        return generate_population(seed=self.seed, config=self.config)

    def describe(self) -> str:
        return "generated population (seed=%d)" % self.seed


# ---------------------------------------------------------------------------
# Shard jobs and results (the pool's picklable currency).
# ---------------------------------------------------------------------------

@dataclass
class ShardJob:
    """Everything one worker needs to crawl one shard.

    ``population`` is the engine's own object, shared by every job of a
    crawl: pickling the job list writes it once.
    """

    population: Population
    shard: ShardInfo
    profile: Optional[object] = None          # BrowserProfile
    consent_policy: Optional[str] = None
    automated: bool = False
    fault_plan: Optional[FaultPlan] = None    # fresh per-shard copy
    retry_policy: Optional[object] = None     # RetryPolicy
    extension: Optional[object] = None        # ContentBlocker
    firewall: Optional[object] = None         # OutboundFirewall
    checkpoint_path: Optional[str] = None
    #: Record a per-shard observability trace (spans + metrics) and
    #: ship it back with the result.  Off by default: tracing must
    #: never be a tax on untraced crawls.
    trace: bool = False
    #: Emit per-site :class:`~repro.obs.progress.HeartbeatEvent`\ s
    #: while crawling.  Like tracing, off by default and — invariantly
    #: — never an influence on the dataset fingerprint.
    progress: bool = False
    #: Sample process resources (CPU/RSS/GC via
    #: :class:`~repro.obs.runtime.ResourceSampler`) at heartbeat time
    #: and attach them to each event plus the shard result.  Pure ops
    #: telemetry: requires ``progress`` to have a channel to ride, and
    #: never touches the dataset or the trace.
    resources: bool = False


@dataclass
class ShardResult:
    """One shard's finished crawl, as returned by a worker.

    ``dataset.population`` is stripped (``None``) before crossing the
    process boundary — the parent re-attaches its own population during
    the merge — so the synthetic web is never pickled back N times.
    ``recorder`` carries the shard's trace when the job asked for one;
    it is a plain picklable value object (PKL301-303 hold) whose
    content depends only on the shard, never on which worker ran it.
    """

    index: int
    dataset: CrawlDataset
    fault_events: Tuple[FaultEvent, ...] = ()
    recorder: Optional[Recorder] = None
    #: The shard's final resource sample (CPU/GC deltas over the whole
    #: attempt, peak RSS) when the job asked for resource telemetry.
    #: Identical to the final heartbeat's sample by construction.
    resources: Optional[Dict[str, float]] = None


def _session_for_job(job: ShardJob) -> CrawlSession:
    """Build (or resume) the crawl session a job describes."""
    if job.checkpoint_path and os.path.exists(job.checkpoint_path):
        return CrawlSession.load(job.checkpoint_path, job.population,
                                 expect_shard=job.shard)
    crawler = StudyCrawler(
        job.population, profile=job.profile, extension=job.extension,
        firewall=job.firewall, consent_policy=job.consent_policy,
        automated=job.automated, fault_plan=job.fault_plan,
        retry_policy=job.retry_policy,
        recorder=Recorder() if job.trace else None)
    return crawler.start(shard=job.shard)


def run_shard_job(job: ShardJob,
                  emit: Optional[ProgressSink] = None) -> ShardResult:
    """Crawl one shard to completion (the worker-process entry point).

    Resumes from ``job.checkpoint_path`` when a valid checkpoint exists
    (a mismatched layout raises
    :class:`~repro.crawler.CheckpointError`), checkpoints after every
    site when a path is configured, and returns the finished
    :class:`ShardResult`.  Runs identically in-process and in a worker.

    ``emit`` receives one :class:`~repro.obs.progress.HeartbeatEvent`
    per crawled site (plus a final completion marker); under the
    supervised executor it doubles as the worker's liveness signal.
    Emission only *reads* crawl state — a crawl with progress on
    finishes with the identical dataset.
    """
    session = _session_for_job(job)
    final_sample = step_session(session, shard=session.shard.index,
                                checkpoint=job.checkpoint_path, emit=emit,
                                resources=job.resources)
    # No save after finishing: the last per-site record already holds
    # every site, so a re-run of a complete shard loads it and finishes
    # again to the same result (finish() is deterministic).
    dataset = session.finish()
    plan = session.fault_plan
    stripped = CrawlDataset(
        profile_name=dataset.profile_name, log=dataset.log,
        flows=dataset.flows, mailbox=dataset.mailbox,
        persona=dataset.persona, population=None)
    # A resumed-from-untraced-checkpoint session carries a NullRecorder
    # even when the job asks for tracing; ship a recorder only when it
    # actually recorded.
    recorder = (session.recorder
                if job.trace and session.recorder.enabled else None)
    return ShardResult(index=session.shard.index, dataset=stripped,
                       fault_events=tuple(plan.events) if plan else (),
                       recorder=recorder, resources=final_sample)


# ---------------------------------------------------------------------------
# The merge step.
# ---------------------------------------------------------------------------

def merge_shard_datasets(results: Sequence[ShardResult],
                         population: Population) -> CrawlDataset:
    """Recombine per-shard results into one :class:`CrawlDataset`.

    Results are concatenated in shard-index order: capture-log entries,
    end-of-crawl cookie snapshots, mailbox messages and flow outcomes.
    ``population`` is re-attached as the merged dataset's universe.
    Raises :class:`ValueError` on an empty result list, on two shards
    reporting the same site, or on mismatched personas/profiles (which
    would mean the shards did not come from one study).
    """
    ordered = sorted(results, key=lambda result: result.index)
    if not ordered:
        raise ValueError("no shard results to merge")
    first = ordered[0].dataset
    log = CaptureLog()
    flows: Dict[str, object] = {}
    mailbox = Mailbox(first.mailbox.address)
    for result in ordered:
        dataset = result.dataset
        if dataset.persona.email != first.persona.email or \
                dataset.profile_name != first.profile_name:
            # Redacted: this message ends up in logs/tracebacks, which
            # are exactly the unintended PII sinks the paper is about.
            from ..reporting.redact import redact_email
            raise ValueError(
                "shard %d was crawled as (%s, %s), not (%s, %s); refusing "
                "to merge shards from different studies"
                % (result.index, redact_email(dataset.persona.email),
                   dataset.profile_name, redact_email(first.persona.email),
                   first.profile_name))
        overlap = set(flows) & set(dataset.flows)
        if overlap:
            raise ValueError("sites crawled by more than one shard: %s"
                             % ", ".join(sorted(overlap)))
        log.entries.extend(dataset.log.entries)
        log.stored_cookies.extend(dataset.log.stored_cookies)
        flows.update(dataset.flows)
        mailbox.absorb(dataset.mailbox)
    return CrawlDataset(profile_name=first.profile_name, log=log,
                        flows=flows, mailbox=mailbox,
                        persona=first.persona, population=population)


# ---------------------------------------------------------------------------
# The engine.
# ---------------------------------------------------------------------------

@dataclass
class ParallelCrawlResult:
    """Everything a parallel crawl produced, beyond the dataset itself."""

    dataset: CrawlDataset
    layout: ShardLayout
    workers: int
    #: A plan carrying the concatenated per-shard fault events (for
    #: crawl-health reporting); ``None`` when no faults were injected.
    fault_plan: Optional[FaultPlan] = None
    #: (shard index, sites crawled, capture entries) per shard.
    shard_stats: Tuple[Tuple[int, int, int], ...] = ()
    #: The merged per-shard trace (shard recorders folded together in
    #: layout order) when the engine was constructed with a recorder;
    #: its snapshot is identical at every worker count.
    recorder: Optional[Recorder] = None
    #: False when shards are missing from the merge (quarantined by the
    #: supervisor or left unfinished by a graceful shutdown).  The
    #: dataset then carries only the salvaged shards; its fingerprint is
    #: deliberately *not* part of the invariance contract — only
    #: complete merges are fingerprinted.
    complete: bool = True
    #: The shard indexes missing from an incomplete merge.
    incomplete_shards: Tuple[int, ...] = ()
    #: The supervised execution's decisions (retries, watchdog trips,
    #: quarantines, shutdown) and its salvage.
    supervision: SupervisionOutcome = dataclasses_field(
        default_factory=SupervisionOutcome)
    #: Per-shard resource samples (``{shard index: sample}``) when the
    #: engine ran with ``resources=True``; empty otherwise.  Ops
    #: telemetry only — see :mod:`repro.obs.runtime`.
    resources: Dict[int, Dict[str, float]] = dataclasses_field(
        default_factory=dict)


class ParallelCrawler:
    """Crawls a population's shards over supervised worker processes.

    ``population`` may be a live :class:`Population` or any
    :class:`PopulationSpec`, which is built once, in the parent.
    ``workers=1`` (the default) runs every shard sequentially in-process
    — the serial reference the fingerprint contract is stated against;
    ``workers=N`` fans the same shards out over at most N supervised
    processes (see :class:`~repro.crawler.supervisor.ShardSupervisor`)
    and merges to the bit-identical dataset.  ``num_shards`` defaults to
    :func:`~repro.crawler.sharding.default_shard_count` and is
    deliberately independent of ``workers``.

    ``assets`` (a :class:`~repro.core.assets.CompiledStudyAssets`)
    threads a study's compile-once bundle through the engine: given a
    spec, the engine crawls the bundle's population instead of building
    one, so every shard and the merged dataset's ``population`` are the
    study's own object.

    ``supervision`` (a :class:`~repro.crawler.SupervisorConfig`) tunes
    the executor's watchdog deadline, retry budget, and shutdown drain;
    ``chaos`` (a :class:`~repro.crawler.ChaosPlan`) injects the seeded
    worker-fault plan into every launched worker.  Chaos manipulates
    real processes, so it requires ``workers >= 2`` — with ``workers=1``
    the shards run in the caller's own process, which a fault would kill
    or hang.

    ``checkpoint_dir`` enables per-shard checkpointing: each shard
    writes ``shard-NNN.ckpt`` after every site, and a later crawl with
    the same directory resumes every shard from wherever it stopped
    (missing checkpoints restart that shard from scratch; checkpoints
    from a different layout raise
    :class:`~repro.crawler.CheckpointError`).

    ``recorder`` (a :class:`repro.obs.Recorder`) turns on per-shard
    tracing: every worker records its shard's spans and metrics into a
    local recorder, the results travel back with the
    :class:`ShardResult`, and the engine folds them into ``recorder``
    in shard-layout order — so the merged trace, like the dataset
    fingerprint, is bit-identical at every worker count.

    ``progress`` (any callable taking a
    :class:`~repro.obs.progress.HeartbeatEvent`, typically a
    :class:`~repro.obs.progress.ProgressAggregator`) turns on live
    per-site heartbeats: workers stream events to the parent over their
    private pipe and the supervisor hands them to the sink while shards
    run.  Events arrive in completion order — progress is
    a *live view*, deliberately outside every determinism contract —
    but emission never mutates crawl state, so the merged dataset and
    trace stay bit-identical with progress on or off.

    ``resources=True`` makes every shard attach a CPU/RSS/GC sample
    (:class:`~repro.obs.runtime.ResourceSampler` deltas) to each
    heartbeat and to its :class:`ShardResult`; the engine collects the
    final per-shard samples into ``result.resources``.  Ops telemetry
    only: it rides the progress channel and never perturbs the dataset
    fingerprint or the merged trace (pinned in
    ``tests/test_obs_resources.py``).

    ``supervision_sink`` (any callable taking a
    :class:`~repro.crawler.supervisor.SupervisionEvent`) receives every
    supervision decision live as the supervised executor records it —
    the event-stream twin of ``result.supervision.events``, used by the
    service layer for SSE fan-out.

    Raises :class:`ValueError` for ``workers < 1`` or an invalid shard
    count.
    """

    def __init__(self, population, workers: int = 1,
                 num_shards: Optional[int] = None,
                 assets: Optional[CompiledStudyAssets] = None,
                 profile: Optional[object] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[object] = None,
                 consent_policy: Optional[str] = None,
                 automated: bool = False,
                 extension: Optional[object] = None,
                 firewall: Optional[object] = None,
                 checkpoint_dir: Optional[str] = None,
                 recorder: Optional[Recorder] = None,
                 progress: Optional[ProgressSink] = None,
                 resources: bool = False,
                 supervision: Optional[SupervisorConfig] = None,
                 chaos: Optional[ChaosPlan] = None,
                 supervision_sink: Optional[Callable] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chaos is not None and chaos.faults and workers < 2:
            raise ValueError(
                "a chaos plan requires workers >= 2: faults kill or hang "
                "the executing process, and with workers=1 that process "
                "is the caller's own")
        self.spec: Optional[PopulationSpec] = None
        self._population: Optional[Population] = None
        if isinstance(population, PopulationSpec):
            self.spec = population
            if assets is not None:
                self._population = assets.population
        else:
            self._population = population
        self.assets = assets
        self.workers = workers
        self.num_shards = num_shards
        self.profile = profile
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.consent_policy = consent_policy
        self.automated = automated
        self.extension = extension
        self.firewall = firewall
        self.checkpoint_dir = checkpoint_dir
        self.recorder = recorder
        self.progress = progress
        self.resources = resources
        self.supervision = supervision
        self.chaos = chaos
        self.supervision_sink = supervision_sink
        self._layout: Optional[ShardLayout] = None
        self._supervisor: Optional[ShardSupervisor] = None

    # -- layout ----------------------------------------------------------

    def population(self) -> Population:
        """The population every shard crawls (built once, in the parent)."""
        if self._population is None:
            self._population = self.spec.build()
        return self._population

    @property
    def layout(self) -> ShardLayout:
        """The deterministic shard layout this crawl executes."""
        if self._layout is None:
            self._layout = ShardLayout.for_domains(
                self.population().sites, self.num_shards)
        return self._layout

    def shard_session(self, index: int) -> CrawlSession:
        """A fresh in-process session for shard ``index``.

        Builds exactly the session a worker would build (the engine's
        population, its own fresh fault plan) — useful for tests and for
        stepping a single shard by hand.  Raises :class:`IndexError` on an
        out-of-range index.
        """
        return _session_for_job(self._job(index, checkpointed=False))

    # -- execution -------------------------------------------------------

    def request_shutdown(self, reason: str = "requested") -> None:
        """Gracefully stop a :meth:`run` in progress.

        Signal- and thread-safe and idempotent; a no-op before the
        supervisor exists.  With ``workers=1`` the running shard
        finishes first.
        """
        if self._supervisor is not None:
            self._supervisor.request_shutdown(reason)

    def crawl(self) -> CrawlDataset:
        """Run all shards and return the *complete* merged dataset.

        Raises :class:`~repro.crawler.IncompleteCrawlError` (carrying
        the salvaged partial result) when shards were quarantined or a
        shutdown interrupted the run — callers of this convenience API
        get a fingerprint-safe dataset or an explicit error, never a
        silently partial merge.  Use :meth:`run` to work with partial
        results.
        """
        result = self.run()
        if not result.complete:
            raise IncompleteCrawlError(
                "crawl incomplete: shards %s missing from the merge "
                "(%s); resume from the checkpoint directory or inspect "
                "result.supervision"
                % (", ".join(str(index)
                             for index in result.incomplete_shards),
                   "interrupted" if result.supervision.interrupted
                   else "quarantined"),
                result=result,
                incomplete_shards=result.incomplete_shards)
        return result.dataset

    @gc_paused
    def run(self) -> ParallelCrawlResult:
        """Execute every shard under supervision and merge.

        Returns a :class:`ParallelCrawlResult`; for complete runs its
        ``dataset`` fingerprint depends only on ``(population, fault
        seed, layout)`` — never on ``workers``, faults, retries, or
        interruptions.  Incomplete runs (quarantined shards, graceful
        shutdown) return the salvaged shards with ``complete=False``.
        Raises :class:`~repro.crawler.CheckpointError` when resuming
        against a mismatched shard layout, and
        :class:`~repro.crawler.IncompleteCrawlError` only when *no*
        shard completed (there is nothing to merge).
        """
        jobs = [self._job(index) for index in range(self.layout.num_shards)]
        if self.checkpoint_dir:
            os.makedirs(self.checkpoint_dir, exist_ok=True)
        self._supervisor = ShardSupervisor(
            config=self.supervision, workers=self.workers,
            progress=self.progress, chaos=self.chaos,
            checkpoint_dir=self.checkpoint_dir,
            spec_description=self._describe(),
            event_sink=self.supervision_sink)
        try:
            outcome = self._supervisor.run(jobs, layout=self.layout)
        finally:
            self._supervisor = None
        if not outcome.results:
            raise IncompleteCrawlError(
                "no shard completed (%s); the per-shard checkpoints in "
                "%r hold whatever progress was made"
                % ("interrupted" if outcome.interrupted
                   else "all shards lost", self.checkpoint_dir),
                incomplete_shards=outcome.incomplete_shards)
        dataset = merge_shard_datasets(outcome.results, self.population())
        ordered = sorted(outcome.results, key=lambda r: r.index)
        merged_plan = None
        if self.fault_plan is not None:
            merged_plan = self.fault_plan.fresh_copy()
            for result in ordered:
                merged_plan.events.extend(result.fault_events)
        stats = tuple(
            (result.index, len(result.dataset.flows),
             len(result.dataset.log.entries))
            for result in ordered)
        merged_recorder = None
        if self.recorder is not None:
            # Shard recorders merge in layout order, so the combined
            # trace — like the dataset fingerprint — cannot depend on
            # which worker ran which shard, or on the worker count.
            merged_recorder = merge_recorders(
                [result.recorder for result in ordered
                 if result.recorder is not None])
            self.recorder.adopt(merged_recorder)
            if outcome.events:
                # Supervision decisions are abnormal by definition, so
                # they only ever reach the trace when something actually
                # went wrong — a clean run's trace stays bit-identical
                # at every worker count (the CI invariance gate).
                for kind, count in sorted(outcome.event_counts().items()):
                    self.recorder.count("supervisor.events.%s" % kind,
                                        count)
        return ParallelCrawlResult(
            dataset=dataset, layout=self.layout, workers=self.workers,
            fault_plan=merged_plan, shard_stats=stats,
            recorder=merged_recorder, complete=outcome.complete,
            incomplete_shards=outcome.incomplete_shards,
            supervision=outcome,
            resources={result.index: dict(result.resources)
                       for result in ordered
                       if result.resources is not None})

    # -- internals -------------------------------------------------------

    def _describe(self) -> str:
        if self.spec is not None:
            return self.spec.describe()
        return "prebuilt population (%d sites)" % len(self._population.sites)

    def _job(self, index: int, checkpointed: bool = True) -> ShardJob:
        checkpoint_path = None
        if checkpointed and self.checkpoint_dir:
            checkpoint_path = os.path.join(self.checkpoint_dir,
                                           "shard-%03d.ckpt" % index)
        plan = self.fault_plan.fresh_copy() if self.fault_plan else None
        return ShardJob(population=self.population(),
                        shard=self.layout.info(index),
                        profile=self.profile,
                        consent_policy=self.consent_policy,
                        automated=self.automated, fault_plan=plan,
                        retry_policy=self.retry_policy,
                        extension=self.extension, firewall=self.firewall,
                        checkpoint_path=checkpoint_path,
                        trace=self.recorder is not None,
                        progress=self.progress is not None,
                        resources=self.resources)
