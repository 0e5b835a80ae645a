"""Study job specs and their execution.

A *job* is one study run submitted over HTTP: a :class:`JobSpec`
(parsed and validated from the ``POST /studies`` JSON body) plus the
lifecycle state the service tracks for it.  The spec is deliberately
plain, immutable data — it is written to disk, travels through the
runner queue, and may cross a process boundary, so the PKL301–303
pickle-safety rules apply to this module (it is inside the statan
pickle scope).

Execution goes through :class:`JobRun`, which drives the same engines
the CLI does — :class:`~repro.crawler.ParallelCrawler` for the crawl
(so per-shard checkpoints, supervision, and the resumable
``study-manifest.json`` all work unchanged) and
:meth:`~repro.core.pipeline.Study.analyze` for the downstream funnel.
Because the crawl is wrapped in the identical ``crawl`` stage span and
the sharded fingerprint is worker-count-invariant, a job's served result
is bit-identical to the same spec run in-process: via ``Study.crawl()``
at ``workers >= 2`` (asserted in ``tests/test_service_http.py``), and
via the one-worker :class:`~repro.crawler.ParallelCrawler` at
``workers=1``, where ``Study.crawl()`` runs the unsharded serial
session instead (see :meth:`JobSpec.study_config`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..obs import Recorder
from ..obs.progress import HeartbeatEvent

#: Schema version of submitted job specs; bump on incompatible changes.
SPEC_SCHEMA_VERSION = 1

#: Schema version of result.json documents.
RESULT_SCHEMA_VERSION = 1

#: Job lifecycle states (queued -> running -> complete|partial|failed).
STATE_QUEUED = "queued"
STATE_RUNNING = "running"
STATE_COMPLETE = "complete"
STATE_PARTIAL = "partial"
STATE_FAILED = "failed"

JOB_STATES = (STATE_QUEUED, STATE_RUNNING, STATE_COMPLETE, STATE_PARTIAL,
              STATE_FAILED)

#: States a job can never leave.
TERMINAL_STATES = (STATE_COMPLETE, STATE_PARTIAL, STATE_FAILED)

_KINDS = ("study", "crowd")
_POPULATIONS = ("generated", "calibrated")

#: Spec fields that only shape a ``"generated"`` population.
_GENERATOR_FIELDS = ("seed", "sites", "trackers", "leak_probability",
                     "confirmation_probability")


class SpecError(ValueError):
    """A submitted job spec is invalid (HTTP 400, never enqueued)."""


@dataclass(frozen=True)
class JobSpec:
    """One validated study submission (plain picklable data).

    ``population`` selects the synthetic web: ``"generated"`` builds a
    seeded random population from the ``seed``/``sites``/``trackers``/
    probability knobs (:mod:`repro.websim.generator`); ``"calibrated"``
    is the paper-calibrated 404-site shopping web (:meth:`from_dict`
    rejects a document that also sets a generator knob).  ``kind``
    selects the pipeline: ``"study"`` is the full §3–§6 funnel;
    ``"crowd"`` the crowdsourced panel expansion
    (``contributors``/``overlap``).  ``workers``/``shards`` mirror
    :class:`~repro.core.pipeline.StudyConfig`; ``fault_rate``/
    ``fault_seed`` inject the seeded network-fault plan.
    """

    kind: str = "study"
    population: str = "generated"
    seed: int = 0
    sites: int = 12
    trackers: int = 4
    leak_probability: float = 0.5
    confirmation_probability: float = 0.2
    workers: int = 1
    shards: Optional[int] = None
    fault_rate: Optional[float] = None
    fault_seed: int = 0
    contributors: int = 3
    overlap: float = 0.5
    label: str = ""

    # -- parsing ---------------------------------------------------------

    @classmethod
    def from_dict(cls, document: object) -> "JobSpec":
        """Parse and validate a ``POST /studies`` body.

        Raises :class:`SpecError` — with a message that names the bad
        field — for anything that is not a valid spec.  Unknown keys
        are rejected rather than ignored so a typo (``worker`` for
        ``workers``) fails loudly instead of silently running the
        default.
        """
        if not isinstance(document, dict):
            raise SpecError("spec must be a JSON object, not %s"
                            % type(document).__name__)
        known = {
            "kind": str, "population": str, "seed": int, "sites": int,
            "trackers": int, "leak_probability": float,
            "confirmation_probability": float, "workers": int,
            "shards": int, "fault_rate": float, "fault_seed": int,
            "contributors": int, "overlap": float, "label": str,
        }
        unknown = sorted(set(document) - set(known) - {"schema"})
        if unknown:
            raise SpecError("unknown spec field(s): %s (known: %s)"
                            % (", ".join(unknown),
                               ", ".join(sorted(known))))
        schema = document.get("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecError("spec schema %r is not supported (this "
                            "service reads %d)"
                            % (schema, SPEC_SCHEMA_VERSION))
        values: Dict[str, object] = {}
        for name, value in document.items():
            if name == "schema":
                continue
            expected = known[name]
            if value is None and name in ("shards", "fault_rate"):
                values[name] = None
                continue
            if expected is float and isinstance(value, int) and \
                    not isinstance(value, bool):
                value = float(value)
            if not isinstance(value, expected) or isinstance(value, bool):
                raise SpecError("field %r must be %s, got %r"
                                % (name, expected.__name__, value))
            values[name] = value
        if values.get("population") == "calibrated":
            ignored = [name for name in _GENERATOR_FIELDS if name in values]
            if ignored:
                raise SpecError("population 'calibrated' is the fixed "
                                "paper web and takes no generator "
                                "settings; remove: %s" % ", ".join(ignored))
        spec = cls(**values)  # type: ignore[arg-type]
        spec.validate()
        return spec

    @classmethod
    def from_stored(cls, document: object) -> "JobSpec":
        """Parse a job directory's persisted ``spec.json``.

        Earlier versions wrote every generator field into a calibrated
        spec, which :meth:`from_dict` now rejects.  Those fields never
        shaped a calibrated job, so they are dropped here and a job
        directory written before the rejection still loads.
        """
        if isinstance(document, dict) and \
                document.get("population") == "calibrated":
            document = {name: value for name, value in document.items()
                        if name not in _GENERATOR_FIELDS}
        return cls.from_dict(document)

    def validate(self) -> None:
        """Range-check every field; raises :class:`SpecError`."""
        if self.kind not in _KINDS:
            raise SpecError("kind must be one of %s, got %r"
                            % ("/".join(_KINDS), self.kind))
        if self.population not in _POPULATIONS:
            raise SpecError("population must be one of %s, got %r"
                            % ("/".join(_POPULATIONS), self.population))
        if self.workers < 1:
            raise SpecError("workers must be >= 1, got %d" % self.workers)
        if self.shards is not None and self.shards < 1:
            raise SpecError("shards must be >= 1, got %d" % self.shards)
        if self.sites < 1:
            raise SpecError("sites must be >= 1, got %d" % self.sites)
        if self.trackers < 1:
            raise SpecError("trackers must be >= 1, got %d" % self.trackers)
        for name in ("leak_probability", "confirmation_probability",
                     "overlap"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SpecError("%s must be within [0, 1], got %r"
                                % (name, value))
        if self.fault_rate is not None and \
                not 0.0 <= self.fault_rate <= 1.0:
            raise SpecError("fault_rate must be within [0, 1], got %r"
                            % self.fault_rate)
        if self.contributors < 1:
            raise SpecError("contributors must be >= 1, got %d"
                            % self.contributors)
        if len(self.label) > 200:
            raise SpecError("label must be at most 200 characters")

    def as_dict(self) -> Dict[str, object]:
        """The canonical JSON form (round-trips through from_dict).

        A calibrated spec leaves out the generator fields, which it
        neither uses nor accepts.
        """
        document: Dict[str, object] = {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "population": self.population,
            "seed": self.seed,
            "sites": self.sites,
            "trackers": self.trackers,
            "leak_probability": self.leak_probability,
            "confirmation_probability": self.confirmation_probability,
            "workers": self.workers,
            "shards": self.shards,
            "fault_rate": self.fault_rate,
            "fault_seed": self.fault_seed,
            "contributors": self.contributors,
            "overlap": self.overlap,
            "label": self.label,
        }
        if self.population == "calibrated":
            for name in _GENERATOR_FIELDS:
                del document[name]
        return document

    def describe(self) -> str:
        """One-line human-readable identity (logs, status documents)."""
        if self.population == "calibrated":
            base = "calibrated population"
        else:
            base = ("generated population (seed=%d, sites=%d)"
                    % (self.seed, self.sites))
        return "%s %s, workers=%d" % (self.kind, base, self.workers)

    # -- engine recipes --------------------------------------------------

    def population_spec(self):
        """The picklable population recipe this spec describes."""
        from ..crawler.parallel import (CalibratedPopulationSpec,
                                        GeneratedPopulationSpec)
        if self.population == "calibrated":
            return CalibratedPopulationSpec()
        from ..websim.generator import GeneratorConfig
        config = GeneratorConfig(
            n_sites=self.sites, n_trackers=self.trackers,
            leak_probability=self.leak_probability,
            confirmation_probability=self.confirmation_probability)
        return GeneratedPopulationSpec(seed=self.seed, config=config)

    def fault_plan(self):
        """The seeded network FaultPlan, or ``None`` for a clean crawl."""
        if self.fault_rate is None:
            return None
        from ..netsim.faults import FaultPlan
        return FaultPlan(seed=self.fault_seed,
                         transient_rate=self.fault_rate)

    def study_config(self, recorder: Optional[Recorder] = None,
                     progress: Optional[object] = None):
        """The equivalent :class:`~repro.core.pipeline.StudyConfig`.

        At ``workers >= 2`` this is the exact config under which
        ``Study.crawl()`` reproduces a served job's fingerprint bit for
        bit.  At ``workers=1`` ``Study.crawl()`` runs the unsharded
        serial session, whose fingerprint differs from the sharded one
        the service always runs; the served job then equals
        ``ParallelCrawler(spec.population_spec(), workers=1,
        num_shards=spec.shards, fault_plan=spec.fault_plan())``.
        """
        from ..core.pipeline import StudyConfig
        return StudyConfig(workers=self.workers, num_shards=self.shards,
                           fault_plan=self.fault_plan(),
                           recorder=recorder, progress=progress)


@dataclass
class JobOutcome:
    """What one :meth:`JobRun.execute` produced."""

    state: str
    result: Optional[Dict[str, object]] = None
    recorder: Optional[Recorder] = None
    error: str = ""
    resumable: bool = False
    fingerprint: str = ""
    supervision: Optional[Dict[str, object]] = None
    incomplete_shards: Tuple[int, ...] = ()


def supervision_summary(outcome) -> Dict[str, object]:
    """A JSON-able digest of a :class:`SupervisionOutcome`."""
    return {
        "complete": outcome.complete,
        "interrupted": outcome.interrupted,
        "event_counts": outcome.event_counts(),
        "quarantined_shards": sorted(outcome.quarantined),
        "unfinished_shards": sorted(set(outcome.unfinished)),
    }


def study_result_document(spec: JobSpec, result,
                          total_sites: int) -> Dict[str, object]:
    """The Table-2-style attribution document ``GET .../result`` serves.

    Built from a :class:`~repro.core.pipeline.StudyResult`; contains no
    raw PII — receivers, senders and parameter names are domains and
    keys, and the fingerprint is a digest, never the persona.
    """
    persistence = result.persistence
    return {
        "schema": RESULT_SCHEMA_VERSION,
        "kind": "study",
        "spec": spec.as_dict(),
        "fingerprint": result.dataset.fingerprint(),
        "total_sites": total_sites,
        "headline": result.analysis.headline(total_sites=total_sites),
        "leaking_request_count": result.leaking_request_count,
        "suspected_leak_count": len(result.suspected_leaks),
        "statuses": result.dataset.status_counts(),
        "quarantined_sites": result.quarantined_sites(),
        "marketing_mail": result.marketing_mail_counts(),
        "table2": {
            "cross_site_receivers": list(persistence.cross_site_receivers),
            "persistent_receivers": list(persistence.persistent_receivers),
            "rows": [
                {"receiver": row.receiver, "senders": row.senders,
                 "methods": row.methods, "encoding": row.encoding,
                 "parameters": row.parameters}
                for row in persistence.rows
            ],
        },
        "policy": result.table3_counts,
    }


def crowd_result_document(spec: JobSpec, crowd_result) -> Dict[str, object]:
    """The merged crowd-study document (no dataset, no fingerprint)."""
    document: Dict[str, object] = {
        "schema": RESULT_SCHEMA_VERSION,
        "kind": "crowd",
        "spec": spec.as_dict(),
    }
    document.update(crowd_result.as_dict())
    return document


class JobRun:
    """One executing job: builds the engine, runs crawl + analysis.

    The service's runner threads drive this; ``request_shutdown``
    forwards a graceful drain to the supervised crawl engine (the
    PR-6 shutdown path), so a SIGTERM'd service leaves the job
    ``partial`` with a resumable ``study-manifest.json`` in its
    checkpoint directory.  ``progress`` is the standard heartbeat sink;
    ``supervision_sink`` receives every
    :class:`~repro.crawler.SupervisionEvent` live (the service fans
    them out over SSE).
    """

    def __init__(self, spec: JobSpec,
                 checkpoint_dir: Optional[str] = None,
                 progress: Optional[Callable[[HeartbeatEvent], None]] = None,
                 supervision_sink: Optional[Callable] = None,
                 resources: bool = True) -> None:
        self.spec = spec
        self.checkpoint_dir = checkpoint_dir
        self.progress = progress
        self.supervision_sink = supervision_sink
        #: Per-shard CPU/RSS/GC accounting, on by default for served
        #: jobs: samples ride the heartbeat channel (never the recorder),
        #: so the trace and fingerprint stay identical to a CLI run
        #: without telemetry.
        self.resources = resources
        self._engine: Optional[object] = None

    def request_shutdown(self, reason: str = "requested") -> None:
        """Gracefully drain the in-flight crawl (idempotent, thread-safe).

        A no-op before the crawl engine exists and after it finished.
        With ``workers=1`` the running shard finishes first.
        """
        engine = self._engine
        if engine is not None:
            engine.request_shutdown(reason)

    def execute(self) -> JobOutcome:
        """Run the job to a terminal :class:`JobOutcome` (never raises)."""
        try:
            if self.spec.kind == "crowd":
                return self._execute_crowd()
            return self._execute_study()
        except Exception as exc:  # noqa: BLE001 — reported, not dropped
            return JobOutcome(state=STATE_FAILED,
                              error="%s: %s" % (type(exc).__name__, exc))

    # -- internals -------------------------------------------------------

    def _execute_study(self) -> JobOutcome:
        from ..core.pipeline import Study, StudyConfig
        from ..crawler import ParallelCrawler
        recorder = Recorder()
        pspec = self.spec.population_spec()
        engine = ParallelCrawler(
            pspec, workers=self.spec.workers, num_shards=self.spec.shards,
            fault_plan=self.spec.fault_plan(),
            checkpoint_dir=self.checkpoint_dir, recorder=recorder,
            progress=self.progress, resources=self.resources,
            supervision_sink=self.supervision_sink)
        self._engine = engine
        try:
            # The identical stage span Study.crawl() opens, so a served
            # trace diffs clean against a CLI-run one for the same spec.
            with recorder.span("crawl", kind="stage"):
                result = engine.run()
        finally:
            self._engine = None
        supervision = supervision_summary(result.supervision)
        if not result.complete:
            return JobOutcome(
                state=STATE_PARTIAL, recorder=recorder,
                error="crawl incomplete: shards %s missing (%s)"
                      % (", ".join(str(index) for index
                                   in result.incomplete_shards),
                         "interrupted" if result.supervision.interrupted
                         else "quarantined"),
                resumable=self.checkpoint_dir is not None,
                supervision=supervision,
                incomplete_shards=result.incomplete_shards)
        study = Study(engine.population(),
                      config=StudyConfig(recorder=recorder),
                      population_spec=pspec)
        analysis = study.analyze(result.dataset)
        document = study_result_document(
            self.spec, analysis, total_sites=len(engine.population().sites))
        return JobOutcome(state=STATE_COMPLETE, result=document,
                          recorder=recorder,
                          fingerprint=str(document["fingerprint"]),
                          supervision=supervision)

    def _execute_crowd(self) -> JobOutcome:
        from ..crowd.study import CrowdStudy, make_panel
        population = self.spec.population_spec().build()
        panel = make_panel(sorted(population.sites),
                           n_contributors=self.spec.contributors,
                           overlap=self.spec.overlap)
        study = CrowdStudy(population, panel)
        reports = []
        total = len(panel)
        for index, (contributor, report) in enumerate(study.run_iter()):
            reports.append(report)
            if self.progress is not None:
                # One heartbeat per finished contributor: the shared SSE
                # schema, with the panel standing in for the shard axis.
                self.progress(HeartbeatEvent(
                    shard=0, crawled=index + 1, total=total,
                    domain=contributor.name, status="contributor",
                    final=index + 1 == total))
        crowd_result = study.merge(reports)
        document = crowd_result_document(self.spec, crowd_result)
        return JobOutcome(state=STATE_COMPLETE, result=document)


__all__ = [
    "JOB_STATES", "JobOutcome", "JobRun", "JobSpec",
    "RESULT_SCHEMA_VERSION", "SPEC_SCHEMA_VERSION", "STATE_COMPLETE",
    "STATE_FAILED", "STATE_PARTIAL", "STATE_QUEUED", "STATE_RUNNING",
    "SpecError", "TERMINAL_STATES", "crowd_result_document",
    "study_result_document", "supervision_summary",
]
