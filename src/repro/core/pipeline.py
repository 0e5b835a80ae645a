"""End-to-end study pipeline.

:class:`Study` is the library's one-call entry point: build the calibrated
synthetic web (or accept a custom population), crawl it with the
measurement browser, detect PII leakage, and run the downstream analyses.
Every individual stage remains available for piecemeal use; this facade
wires them together the way the paper's methodology chains them:

    §3 data collection -> §4 leak detection -> §5 tracking analysis
    -> §6 policy audit (and, via :mod:`repro.protection` /
    :mod:`repro.blocklist`, the §7 countermeasure studies).

Crawling goes through the single entry point :meth:`Study.crawl`, which
dispatches on ``config.workers`` (serial session vs. sharded
multi-process engine) and handles checkpoint/resume for both.  The
pipeline is observable end to end: give the config a
:class:`repro.obs.Recorder` (``StudyConfig.with_observability()``) and
every stage — crawl, token generation, detection, analysis — records
spans and counters without perturbing a single byte of the dataset
fingerprint.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..browser import BrowserProfile, RetryPolicy, vanilla_firefox
from ..crawler import CrawlDataset, CrawlSession, StudyCrawler
from ..crawler.runner import step_session
from ..mailsim import KIND_MARKETING
from ..netsim.faults import FaultPlan
from ..obs import NULL_RECORDER, Recorder
from ..obs.runtime import gc_paused
from ..policy import PolicyVerdict, classify_policies, policies_for_sites
from ..policy import table3 as policy_table3
from ..tracking import PersistenceAnalyzer, PersistenceReport
from .analysis import LeakAnalysis
from .assets import CompiledStudyAssets
from .heuristics import HeuristicDetector, SuspectedLeak
from .leakmodel import LeakEvent
from .tokens import CandidateTokenSet, TokenSetConfig


class StudyConfig:
    """Tunables for a full study run (all fields keyword-only).

    ``fault_plan`` injects seeded network faults into the crawl (see
    :mod:`repro.netsim.faults`); when set, the crawler runs its resilient
    network path with ``retry_policy`` (defaulting to a standard
    :class:`~repro.browser.RetryPolicy`).

    ``workers`` selects the crawl engine: ``1`` (default) is the
    historical single-session serial crawl; ``N > 1`` fans the
    population's shards out over N worker processes via
    :class:`~repro.crawler.ParallelCrawler` and merges to a dataset
    whose fingerprint is invariant to the worker count.  ``num_shards``
    pins the shard layout (default:
    :func:`~repro.crawler.default_shard_count`, which is independent of
    ``workers`` so fingerprints stay comparable across machines).

    ``recorder`` opts the whole pipeline into structured tracing (see
    :mod:`repro.obs`); prefer :meth:`with_observability` over setting
    it by hand.  ``None`` (the default) records nothing and costs
    nothing.

    ``progress`` is a live heartbeat sink — any callable taking a
    :class:`repro.obs.progress.HeartbeatEvent`, typically a
    :class:`repro.obs.progress.ProgressAggregator` — fed one event per
    crawled site by whichever crawl engine runs.  Like tracing,
    progress never changes a dataset fingerprint.

    ``resources=True`` attaches CPU/RSS/GC samples
    (:class:`repro.obs.runtime.ResourceSampler`) to each heartbeat, so
    per-shard cost lands in ``progress.jsonl``, the study manifest and
    the progress snapshot.  It needs a ``progress`` sink to ride on
    (inert otherwise, except through the parallel engine's
    ``result.resources``) and, like progress itself, never changes a
    dataset fingerprint or a trace.

    ``supervision`` (a :class:`~repro.crawler.SupervisorConfig`) tunes
    the supervised parallel executor — watchdog heartbeat deadline,
    per-shard retry budget, graceful-shutdown drain timeout; ``None``
    uses the defaults.  ``chaos`` (a :class:`~repro.crawler.ChaosPlan`)
    injects seeded worker faults for supervision testing; it requires
    ``workers > 1``.  Both are inert on the serial path.

    ``assets`` (a :class:`~repro.core.assets.CompiledStudyAssets`)
    supplies a prebuilt compile-once bundle — token index, PSL — for
    the hot path; ``None`` (the default) lets the study compile its own
    on first use.  Pass one to share compiled state across several
    studies over the same population.
    """

    _FIELDS = ("profile", "token_config", "fault_plan", "retry_policy",
               "workers", "num_shards", "recorder", "progress",
               "resources", "supervision", "chaos", "assets")

    def __init__(self, *,
                 profile: Optional[BrowserProfile] = None,
                 token_config: Optional[TokenSetConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 workers: int = 1,
                 num_shards: Optional[int] = None,
                 recorder: Optional[Recorder] = None,
                 progress: Optional[object] = None,
                 resources: bool = False,
                 supervision: Optional[object] = None,
                 chaos: Optional[object] = None,
                 assets: Optional[CompiledStudyAssets] = None) -> None:
        self.profile = profile
        self.token_config = token_config
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self.workers = workers
        self.num_shards = num_shards
        self.recorder = recorder
        self.progress = progress
        self.resources = resources
        self.supervision = supervision
        self.chaos = chaos
        self.assets = assets

    def replace(self, **changes: object) -> "StudyConfig":
        """A copy of this config with ``changes`` applied.

        Raises :class:`TypeError` for names that are not config fields.
        """
        unknown = set(changes) - set(self._FIELDS)
        if unknown:
            raise TypeError("unknown StudyConfig field(s): %s"
                            % ", ".join(sorted(unknown)))
        values = {name: getattr(self, name) for name in self._FIELDS}
        values.update(changes)
        return StudyConfig(**values)

    def with_observability(self,
                           recorder: Optional[Recorder] = None
                           ) -> "StudyConfig":
        """A copy of this config with tracing enabled.

        ``recorder`` defaults to a fresh :class:`repro.obs.Recorder`
        (deterministic tick clock).  This is the supported way to turn
        tracing on — through config, not a side-channel global — so two
        studies can trace independently in one process.
        """
        return self.replace(recorder=recorder or Recorder())

    def __repr__(self) -> str:
        parts = ", ".join("%s=%r" % (name, getattr(self, name))
                          for name in self._FIELDS)
        return "StudyConfig(%s)" % parts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StudyConfig):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self._FIELDS)


@dataclass
class CrawlOutcome:
    """What :meth:`Study.crawl` produced.

    ``fault_plan`` carries the executed fault events (merged across
    shards for a parallel crawl) for crawl-health reporting; ``None``
    when no faults were injected.  ``recorder`` is the study's recorder
    when tracing was enabled — after a parallel crawl it already holds
    the per-shard traces merged in layout order.

    ``complete`` is False when a supervised parallel crawl came back
    partial (shards quarantined, or a graceful shutdown landed first) —
    the dataset then holds only the salvaged shards and its fingerprint
    is not covered by the invariance contract.  ``incomplete_shards``
    names what is missing and ``supervision`` (a
    :class:`~repro.crawler.SupervisionOutcome`) carries the executor's
    decisions: retries, watchdog trips, quarantines, shutdown.
    """

    dataset: CrawlDataset
    fault_plan: Optional[FaultPlan] = None
    recorder: Optional[Recorder] = None
    complete: bool = True
    incomplete_shards: tuple = ()
    supervision: Optional[object] = None


@dataclass
class StudyResult:
    """Everything a full study run produced."""

    dataset: CrawlDataset
    tokens: CandidateTokenSet
    events: List[LeakEvent]
    analysis: LeakAnalysis
    persistence: PersistenceReport
    policy_verdicts: List[PolicyVerdict]
    leaking_request_count: int
    #: Heuristic findings (salted/unknown identifiers) the exact detector
    #: could not confirm — disjoint from ``events`` by construction.
    suspected_leaks: List[SuspectedLeak] = field(default_factory=list)

    @property
    def table3_counts(self) -> Dict[str, int]:
        return policy_table3(self.policy_verdicts)

    def marketing_mail_counts(self) -> Dict[str, int]:
        """{'inbox': n, 'spam': m} marketing-only counts (§4.2.3)."""
        mailbox = self.dataset.mailbox
        return {
            "inbox": len(mailbox.messages(folder="inbox",
                                          kind=KIND_MARKETING)),
            "spam": len(mailbox.messages(folder="spam",
                                         kind=KIND_MARKETING)),
        }

    def third_party_mail_senders(self) -> List[str]:
        """Mail senders that are leak receivers (paper observed none)."""
        receivers = set(self.analysis.receivers())
        return [domain for domain in self.dataset.mailbox.sender_domains()
                if domain in receivers]

    def quarantined_sites(self) -> List[str]:
        """Sites the resilient crawl gave up on (never silently dropped)."""
        return self.dataset.quarantined_sites()


class Study:
    """The full reproduction pipeline over a population.

    ``population`` is the synthetic web to study; ``config`` a
    :class:`StudyConfig` (defaults apply when omitted);
    ``population_spec`` an optional picklable
    :class:`~repro.crawler.PopulationSpec` recipe that names the
    population in the parallel engine's study manifest; every shard
    crawls ``population`` itself either way.  The instance exposes
    each stage separately (:meth:`crawler`, :meth:`crawl`,
    :meth:`analyze`) plus the one-call :meth:`run`.
    """

    def __init__(self, population,
                 config: Optional[StudyConfig] = None,
                 population_spec=None) -> None:
        self.population = population
        self.config = config or StudyConfig()
        self.population_spec = population_spec
        self._assets: Optional[CompiledStudyAssets] = None

    def assets(self) -> CompiledStudyAssets:
        """The study's compile-once asset bundle.

        ``config.assets`` when one was supplied, otherwise a bundle
        compiled (lazily, once) from this study's population, spec and
        token config.  Every stage — parallel fan-out, detection,
        analysis — draws from this single bundle.
        """
        if self.config.assets is not None:
            return self.config.assets
        if self._assets is None:
            self._assets = CompiledStudyAssets.for_population(
                self.population, population_spec=self.population_spec,
                token_config=self.config.token_config)
        return self._assets

    @classmethod
    @gc_paused
    def calibrated(cls, config: Optional[StudyConfig] = None) -> "Study":
        """A study over the paper-calibrated shopping population.

        Returns a :class:`Study` whose ``spec`` attribute carries the
        full calibrated :class:`~repro.websim.shopping` study spec and
        whose ``population_spec`` is the cheap picklable
        :class:`~repro.crawler.CalibratedPopulationSpec` recipe.
        """
        from ..crawler import CalibratedPopulationSpec
        from ..websim.shopping import build_study_population
        spec = build_study_population()
        study = cls(spec.population, config=config,
                    population_spec=CalibratedPopulationSpec())
        study.spec = spec
        return study

    # -- crawling --------------------------------------------------------

    def crawler(self) -> StudyCrawler:
        """The configured serial crawler (fault plan and retries applied)."""
        profile = self.config.profile or vanilla_firefox()
        return StudyCrawler(self.population, profile=profile,
                            fault_plan=self.config.fault_plan,
                            retry_policy=self.config.retry_policy,
                            recorder=self.config.recorder)

    def crawl(self, checkpoint: Optional[str] = None,
              resume: Optional[str] = None) -> CrawlOutcome:
        """Crawl the population — the single crawl entry point.

        Dispatches on ``config.workers``: ``1`` runs the serial
        :class:`~repro.crawler.CrawlSession`, ``N > 1`` the sharded
        :class:`~repro.crawler.ParallelCrawler`; either way the
        resulting dataset's fingerprint depends only on (population,
        fault seed, shard layout).

        ``checkpoint``/``resume`` follow the CLI semantics: for a
        serial crawl they name a checkpoint *file* (saved after every
        site / loaded before crawling); for a parallel crawl they name
        a *directory* of per-shard checkpoints (resume simply points at
        the directory a previous run checkpointed into).
        ``resume=True`` means "resume from ``checkpoint``" with
        resume-or-start semantics: whatever state the interrupted run
        left there (per-shard checkpoints plus the study manifest a
        graceful shutdown wrote) is picked up exactly, and a clean
        directory/missing file simply starts fresh — so one invocation
        is safe to re-run until it completes.  Raises
        :class:`~repro.crawler.CheckpointError` (or :class:`OSError`)
        when a resume source is unusable, and :class:`ValueError` for
        ``resume=True`` without a ``checkpoint`` target.
        """
        resume_or_start = resume is True
        if resume_or_start:
            if not checkpoint:
                raise ValueError(
                    "crawl(resume=True) resumes from the checkpoint "
                    "target; pass checkpoint= as well")
            resume = checkpoint
        recorder = self.config.recorder
        rec = recorder or NULL_RECORDER
        with rec.span("crawl", kind="stage"):
            if self.config.workers > 1:
                engine = self._parallel_engine(
                    checkpoint_dir=resume or checkpoint)
                result = engine.run()
                return CrawlOutcome(dataset=result.dataset,
                                    fault_plan=result.fault_plan,
                                    recorder=recorder,
                                    complete=result.complete,
                                    incomplete_shards=result.incomplete_shards,
                                    supervision=result.supervision)
            if resume is not None and \
                    (os.path.exists(resume) or not resume_or_start):
                session = CrawlSession.load(resume, self.population,
                                            expect_shard=None)
            else:
                session = self.crawler().start()
            emit = self.config.progress
            step_session(session, shard=0, checkpoint=checkpoint, emit=emit,
                         resources=emit is not None and self.config.resources)
            dataset = session.finish()
            if recorder is not None and session.recorder is not recorder:
                # A resumed session carries its own (pickled) recorder;
                # graft its history under this study's crawl span.
                recorder.adopt(session.recorder)
            return CrawlOutcome(dataset=dataset,
                                fault_plan=session.fault_plan,
                                recorder=recorder)

    def _parallel_engine(self, checkpoint_dir: Optional[str] = None):
        """The sharded multi-process engine for this study's population."""
        from ..crawler import ParallelCrawler
        return ParallelCrawler(self.population_spec or self.population,
                               assets=self.assets(),
                               workers=self.config.workers,
                               num_shards=self.config.num_shards,
                               profile=self.config.profile or vanilla_firefox(),
                               fault_plan=self.config.fault_plan,
                               retry_policy=self.config.retry_policy,
                               checkpoint_dir=checkpoint_dir,
                               recorder=self.config.recorder,
                               progress=self.config.progress,
                               resources=self.config.resources,
                               supervision=self.config.supervision,
                               chaos=self.config.chaos)

    # -- the pipeline ----------------------------------------------------

    @gc_paused
    def run(self) -> StudyResult:
        """Crawl, detect, and analyze; returns the combined result.

        Uses the serial engine for ``config.workers == 1`` and the
        sharded parallel engine otherwise; either way the analysis runs
        over the complete merged dataset.  Raises
        :class:`~repro.crawler.IncompleteCrawlError` when a supervised
        crawl came back partial — the one-call pipeline never analyzes
        (or fingerprints) an incomplete merge; use :meth:`crawl` +
        :meth:`analyze` to work with salvaged partial datasets
        explicitly.
        """
        rec = self.config.recorder or NULL_RECORDER
        with rec.span("study"):
            outcome = self.crawl()
            if not outcome.complete:
                from ..crawler import IncompleteCrawlError
                raise IncompleteCrawlError(
                    "study crawl incomplete: shards %s missing (see "
                    "outcome.supervision); rerun or resume before "
                    "analysis" % ", ".join(
                        str(index)
                        for index in outcome.incomplete_shards),
                    incomplete_shards=outcome.incomplete_shards)
            return self.analyze(outcome.dataset)

    @gc_paused
    def analyze(self, dataset: CrawlDataset) -> StudyResult:
        """Detect and analyze an existing (possibly partial) dataset.

        Works on datasets from interrupted-and-resumed or fault-heavy
        crawls: analysis runs over whatever the crawl captured, sites the
        crawl quarantined stay visible via ``dataset.status_counts()``
        and are never silently dropped.
        """
        recorder = self.config.recorder
        rec = recorder or NULL_RECORDER
        population = dataset.population
        if population is self.population:
            assets = self.assets()
        else:
            # A dataset from some other population (loaded from disk,
            # partial salvage, ...): compile a one-off bundle for it.
            assets = CompiledStudyAssets.for_population(
                population, token_config=self.config.token_config)

        with rec.span("tokens", kind="stage"):
            tokens = assets.tokens()
            # The funnel counters a fresh per-call construction would
            # have recorded, replayed so traces stay bit-identical.
            assets.replay_token_funnel(recorder)
        with rec.span("detect", kind="stage"):
            detector = assets.detector(recorder=recorder)
            detection = detector.run(dataset.log)
            events = detection.events
            leaking_request_count = detection.leaking_entry_count
        with rec.span("analysis", kind="stage"):
            analysis = LeakAnalysis(events)
            persistence = PersistenceAnalyzer(events).report()
            rec.count("analysis.receivers", len(analysis.receivers()))
        with rec.span("heuristics", kind="stage"):
            heuristics = HeuristicDetector(
                known_tokens={event.token for event in events})
            suspected = heuristics.detect(dataset.log)
            rec.count("heuristics.suspected_leaks", len(suspected))
        with rec.span("policy", kind="stage"):
            site_classes = {
                domain: population.sites[domain].policy_class
                for domain in analysis.senders()
                if domain in population.sites
                and population.sites[domain].policy_class is not None}
            verdicts = classify_policies(policies_for_sites(site_classes))
            rec.count("policy.verdicts", len(verdicts))

        return StudyResult(
            dataset=dataset,
            tokens=tokens,
            events=events,
            analysis=analysis,
            persistence=persistence,
            policy_verdicts=verdicts,
            leaking_request_count=leaking_request_count,
            suspected_leaks=suspected,
        )
