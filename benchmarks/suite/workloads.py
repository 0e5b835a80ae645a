"""The benchmark's four workloads.

Each workload is a closed loop inside this one process: it starts the
next study only after the previous one has finished and been checked.
At most two worker processes (``study-parallel``) or one HTTP
connection at a time (``service-jobs``) carry the load.  A run makes a
fixed number of studies (:meth:`Workload.studies`), so a faster commit
does the same work as a slower one, not more.

A workload's :meth:`~Workload.rep` runs one study and returns a
:class:`Rep` holding its wall and CPU time, measured around the calls
a user of the program makes, and the errors the output checks found.
The checks run outside the timed region.  With a tracer, the rep's
timed region becomes a root span, and heartbeats carry resource
samples for the per-layer metrics (see ``layers.py``).
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import hashes
from repro.blocklist import AdblockExtension, BlocklistEvaluator
from repro.core import (
    CompiledStudyAssets,
    LeakAnalysis,
    Study,
    StudyConfig,
)
from repro.core.assets import clear_process_assets
from repro.crawler import (
    GeneratedPopulationSpec,
    ParallelCrawler,
    StudyCrawler,
)
from repro.datasets import paper
from repro.service import JobRun, JobSpec, ServiceConfig, StudyService
from repro.websim.generator import GeneratorConfig

from tracer import Tracer, cpu_seconds

#: Shard layout of both study workloads: fixed and independent of the
#: worker count, so their merged fingerprints are comparable.
SHARDS = 8

#: Merged-dataset fingerprints pinned by (seed, sites).  Serial and
#: parallel crawls of the generated web must both give the study pin;
#: the calibrated web ignores the seed; the service pins the
#: fingerprints of its first jobs.
PINNED_STUDY = {
    (404, 404):
        "77abd62213a0f0be2a338a93efa908d955734ebc34c5ae0011dcf81b0f738b05",
}
PINNED_PAPER = (
    "4dbe2635b79b834cf7ceea8f499b248b4bec6517e3638c30259aae5869942241")
PINNED_JOBS = {
    (404, 24): (
        "0aa8f0cfec5d",
        "98ee0dd3d7f4",
        "e07ac5701ba1",
        "d29cc30b862b",
    ),
}

#: Paper §4/§7.2 numbers the calibrated web must reproduce.
PAPER_SENDERS = 130
PAPER_RESIDUAL_SENDERS = 22
TABLE4_TOLERANCE_POINTS = 8.0

#: Upper bound on one HTTP exchange, SSE stream included.
HTTP_TIMEOUT = 120.0


@dataclass(frozen=True)
class Options:
    """Input sizes; the defaults are the benchmark, tests shrink them."""

    sites: int = 404            # generated web of the study workloads
    job_sites: int = 24         # generated web of one service job
    min_reps: int = 1           # studies a run makes however short


@dataclass
class Rep:
    """One study: its cost, its checks and what the trace needs."""

    index: int
    wall: float = 0.0
    cpu: float = 0.0
    errors: List[str] = field(default_factory=list)
    fingerprint: str = ""
    #: (arrival time, heartbeat dict) for every crawl heartbeat.
    beats: List[Tuple[float, Dict[str, object]]] = field(
        default_factory=list)
    #: Client-side timings of a service job (``service.*`` metrics).
    service: Dict[str, float] = field(default_factory=dict)
    #: The rep's root span when traced.
    span: Optional[object] = None


class _Timed:
    """Wall and CPU time of a block, opened as a rep root span if traced."""

    def __init__(self, tracer: Optional[Tracer], rep: Rep,
                 name: str) -> None:
        self.tracer = tracer
        self.rep = rep
        self.name = name

    def __enter__(self) -> "_Timed":
        self.cpu = cpu_seconds()
        self.start = time.perf_counter()
        if self.tracer is not None:
            self.rep.span = self.tracer.start(self.name, rep=self.rep.index,
                                              start=self.start)
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self.rep.cpu = cpu_seconds() - self.cpu
        self.rep.wall = end - self.start
        if self.tracer is not None:
            self.tracer.finish(self.rep.span, end=end)


def _heartbeat_sink(rep: Rep) -> Callable[[object], None]:
    def sink(event) -> None:
        rep.beats.append((time.perf_counter(), event.as_dict()))
    return sink


def _cold_start() -> None:
    """Drop process memos and garbage so every study starts cold."""
    clear_process_assets()
    hashes.clear_chain_cache()
    gc.collect()


class Workload:
    """A closed loop of studies; subclasses define one study."""

    name = ""
    #: Worker processes of the crawl (``supervisor.slot_idle_s``).
    workers = 1
    #: Seconds of one study on the reference host (see README.md).  A
    #: run makes ``--seconds / nominal_s`` studies, so its length is
    #: fixed by ``--seconds`` and the same on every commit compared,
    #: whatever the speed of the code.
    nominal_s = 1.0

    def __init__(self, seed: int, options: Options, workdir: str) -> None:
        self.seed = seed
        self.options = options
        self.workdir = workdir
        self._reference: Dict[object, str] = {}

    def studies(self, seconds: float) -> int:
        """How many studies a run of ``seconds`` makes."""
        return max(self.options.min_reps, round(seconds / self.nominal_s))

    def prepare(self) -> None:
        """Bring the system up before the first timed study."""

    def rep(self, index: int, tracer: Optional[Tracer]) -> Rep:
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Run-level cross-checks after the last study."""
        return []

    def close(self) -> None:
        """Stop everything :meth:`prepare` started."""

    def _check_fingerprint(self, rep: Rep, key: object,
                           pinned: Optional[str]) -> None:
        reference = self._reference.setdefault(key, rep.fingerprint)
        if pinned is not None and not rep.fingerprint.startswith(pinned):
            rep.errors.append("fingerprint %s is not the pinned %s"
                              % (rep.fingerprint[:16], pinned[:16]))
        elif rep.fingerprint != reference:
            rep.errors.append("fingerprint %s differs from the first "
                              "study's %s" % (rep.fingerprint[:16],
                                              reference[:16]))


class StudyWorkload(Workload):
    """One cold study of the generated web per rep (``study-*``)."""

    def __init__(self, seed: int, options: Options, workdir: str,
                 workers: int) -> None:
        super().__init__(seed, options, workdir)
        self.name = "study-serial" if workers == 1 else "study-parallel"
        self.workers = workers
        self.nominal_s = 2.7 if workers == 1 else 3.2
        self.spec = GeneratedPopulationSpec(seed=seed, config=GeneratorConfig(
            n_sites=options.sites, n_trackers=20, leak_probability=0.5,
            confirmation_probability=0.2))

    def rep(self, index: int, tracer: Optional[Tracer]) -> Rep:
        _cold_start()
        rep = Rep(index)
        traced = tracer is not None
        with _Timed(tracer, rep, "study"):
            assets = CompiledStudyAssets.for_population(
                self.spec.build(), population_spec=self.spec)
            crawl = ParallelCrawler(
                self.spec, workers=self.workers, num_shards=SHARDS,
                assets=assets,
                progress=_heartbeat_sink(rep) if traced else None,
                resources=traced).run()
            result = Study(crawl.dataset.population,
                           config=StudyConfig(assets=assets)
                           ).analyze(crawl.dataset)
        if not crawl.complete:
            rep.errors.append("crawl incomplete: shards %s missing"
                              % list(crawl.incomplete_shards))
            return rep
        if len(crawl.dataset.flows) != self.options.sites:
            rep.errors.append("crawled %d of %d sites"
                              % (len(crawl.dataset.flows),
                                 self.options.sites))
        if not result.events:
            rep.errors.append("no leak detected")
        rep.fingerprint = crawl.dataset.fingerprint()
        self._check_fingerprint(
            rep, "study", PINNED_STUDY.get((self.seed, self.options.sites)))
        return rep


class PaperWorkload(Workload):
    """The paper-calibrated study plus its §7.2 blocklist evaluation."""

    name = "paper-calibrated"
    nominal_s = 5.3

    def rep(self, index: int, tracer: Optional[Tracer]) -> Rep:
        _cold_start()
        rep = Rep(index)
        config = None
        if tracer is not None:
            config = StudyConfig(progress=_heartbeat_sink(rep),
                                 resources=True)
        with _Timed(tracer, rep, "study"):
            study = Study.calibrated(config=config)
            result = study.run()
            detector = study.assets().detector()
            table4 = BlocklistEvaluator(detector).evaluate(
                result.dataset.log)
            population = study.population
            protected = StudyCrawler(
                population, extension=AdblockExtension.with_default_lists()
            ).crawl(sites=[population.sites[domain]
                           for domain in study.spec.leaking_domains])
            residual = LeakAnalysis(detector.detect(protected.log)).senders()
        senders = len(result.analysis.senders())
        if senders != PAPER_SENDERS:
            rep.errors.append("%d leaking senders, the paper has %d"
                              % (senders, PAPER_SENDERS))
        if len(residual) != PAPER_RESIDUAL_SENDERS:
            rep.errors.append("%d senders leak under the adblocker, "
                              "expected %d" % (len(residual),
                                               PAPER_RESIDUAL_SENDERS))
        measured = table4.senders["combined"]["total"].pct
        published = paper.TABLE4_SENDERS["combined"]["total"][1]
        if abs(measured - published) >= TABLE4_TOLERANCE_POINTS:
            rep.errors.append("Table 4 combined senders %.1f%% vs the "
                              "paper's %.1f%%" % (measured, published))
        rep.fingerprint = result.dataset.fingerprint()
        self._check_fingerprint(rep, "paper", PINNED_PAPER)
        return rep


class ServiceClient:
    """An in-process StudyService and a one-connection HTTP client."""

    def __init__(self, workdir: str) -> None:
        self.jobs_dir = os.path.join(workdir, "jobs")
        self.service = StudyService(ServiceConfig(
            host="127.0.0.1", port=0, jobs_dir=self.jobs_dir, runners=1,
            queue_size=8))
        self.service.start_in_thread()
        deadline = time.monotonic() + 30.0
        while self._request("GET", "/healthz")[0] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError("service never answered /healthz")
            time.sleep(0.01)

    def close(self) -> None:
        self.service.close()

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.service.port,
                                          timeout=HTTP_TIMEOUT)

    def _request(self, method: str, path: str,
                 body: Optional[bytes] = None) -> Tuple[int, bytes]:
        connection = self._connection()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def run_job(self, document: Dict[str, object], index: int,
                tracer: Optional[Tracer]) -> Rep:
        """Submit, follow the SSE stream to ``end``, fetch the result.

        The job's time runs from the POST to the result received; its
        CPU is the whole process's, service threads included.
        """
        rep = Rep(index)
        cpu_before = cpu_seconds()
        started = time.perf_counter()
        if tracer is not None:
            rep.span = tracer.start("job", rep=index, start=started)
            tracer.foreign_parent = rep.span
        try:
            exchange = self._exchange(document, rep)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            rep.errors.append("%s: %s" % (type(exc).__name__, exc))
            exchange = None
        received = exchange.received if exchange else time.perf_counter()
        rep.cpu = cpu_seconds() - cpu_before
        rep.wall = received - started
        if tracer is not None:
            tracer.foreign_parent = None
            tracer.finish(rep.span, end=received)
        if exchange is None:
            return rep
        if tracer is not None:
            _record_job_spans(tracer, rep.span, started, exchange)
        rep.fingerprint = str(exchange.end.get("fingerprint", ""))
        if exchange.end.get("state") != "complete":
            rep.errors.append("job ended %s: %s"
                              % (exchange.end.get("state"),
                                 exchange.end.get("error")))
        if exchange.result.get("fingerprint") != rep.fingerprint:
            rep.errors.append("result fingerprint differs from the end "
                              "event's")
        crawled = sum(exchange.result.get("statuses", {}).values())
        if crawled != document["sites"]:
            rep.errors.append("crawled %d of %d sites"
                              % (crawled, document["sites"]))
        rep.service = {
            "submit_ms": 1e3 * (exchange.posted - started),
            "queue_wait_s": exchange.running - started,
            "run_s": exchange.ended - exchange.running,
            "result_ms": 1e3 * (received - exchange.ended),
            "sse_events": float(exchange.events),
            "artifact_bytes": float(_tree_bytes(
                os.path.join(self.jobs_dir, exchange.job))),
        }
        return rep

    def _exchange(self, document: Dict[str, object],
                  rep: Rep) -> "_Exchange":
        status, body = self._request("POST", "/studies",
                                     json.dumps(document).encode("utf-8"))
        posted = time.perf_counter()
        if status != 202:
            raise ValueError("POST /studies answered %d" % status)
        job = json.loads(body)["id"]
        running, ended, end, events = self._follow(job, rep)
        status, body = self._request("GET", "/studies/%s/result" % job)
        received = time.perf_counter()
        if status != 200:
            raise ValueError("GET result answered %d" % status)
        return _Exchange(job=job, posted=posted, running=running,
                         ended=ended, received=received, end=end,
                         result=json.loads(body), events=events)

    def _follow(self, job: str, rep: Rep
                ) -> Tuple[float, float, Dict[str, object], int]:
        """Read the job's SSE stream up to its ``end`` event."""
        connection = self._connection()
        running = ended = 0.0
        end: Dict[str, object] = {}
        events = 0
        try:
            connection.request("GET", "/studies/%s/events" % job)
            response = connection.getresponse()
            if response.status != 200:
                raise ValueError("GET events answered %d" % response.status)
            name = ""
            for raw in response:
                line = raw.decode("utf-8").rstrip("\r\n")
                if line.startswith("event:"):
                    name = line[len("event:"):].strip()
                    continue
                if not line.startswith("data:"):
                    continue
                now = time.perf_counter()
                data = json.loads(line[len("data:"):])
                events += 1
                if name == "heartbeat":
                    rep.beats.append((now, data))
                elif name == "state" and data.get("state") == "running" \
                        and not running:
                    running = now
                elif name == "end":
                    ended = now
                    end = data
                    break
        finally:
            connection.close()
        if not ended:
            raise ValueError("event stream closed before the end event")
        return running or ended, ended, end, events


@dataclass
class _Exchange:
    """What the client saw of one job, with perf_counter arrival times."""

    job: str
    posted: float
    running: float
    ended: float
    received: float
    end: Dict[str, object]
    result: Dict[str, object]
    events: int


def _record_job_spans(tracer: Tracer, root, started: float,
                      exchange: _Exchange) -> None:
    """The client's own phases of a traced job.  What the service does
    in between is traced on its runner thread; the queue wait and the
    event delivery stay unattributed, in the residual."""
    tracer.record("submit", root, started, exchange.posted)
    tracer.record("result", root, exchange.ended, exchange.received)


def _tree_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(parent, name))
               for parent, _, names in os.walk(directory) for name in names)


class ServiceWorkload(Workload):
    """Closed-loop jobs against an in-process StudyService."""

    name = "service-jobs"
    nominal_s = 1.6

    def __init__(self, seed: int, options: Options, workdir: str) -> None:
        super().__init__(seed, options, workdir)
        self.client: Optional[ServiceClient] = None

    def document(self, index: int) -> Dict[str, object]:
        """Job ``index``'s ``POST /studies`` body: a small generated-web
        study with fault injection on."""
        return {"seed": self.seed + index, "sites": self.options.job_sites,
                "workers": 1, "fault_rate": 0.05, "fault_seed": index}

    def prepare(self) -> None:
        self.client = ServiceClient(self.workdir)

    def rep(self, index: int, tracer: Optional[Tracer]) -> Rep:
        rep = self.client.run_job(self.document(index), index, tracer)
        if rep.fingerprint:
            pins = PINNED_JOBS.get((self.seed, self.options.job_sites), ())
            self._check_fingerprint(
                rep, index, pins[index] if index < len(pins) else None)
        return rep

    def verify(self) -> List[str]:
        """The first job, run through the library, must match the
        fingerprint the service served for it."""
        served = self._reference.get(0)
        if served is None:
            return []
        outcome = JobRun(JobSpec.from_dict(self.document(0))).execute()
        if outcome.fingerprint != served:
            return ["library run of job 0 gives %s, the service served %s"
                    % (outcome.fingerprint[:16], served[:16])]
        return []

    def close(self) -> None:
        if self.client is not None:
            self.client.close()


WORKLOADS = ("study-serial", "study-parallel", "paper-calibrated",
             "service-jobs")


def make_workload(name: str, seed: int, options: Options,
                  workdir: str) -> Workload:
    if name == "study-serial":
        return StudyWorkload(seed, options, workdir, workers=1)
    if name == "study-parallel":
        return StudyWorkload(seed, options, workdir, workers=2)
    if name == "paper-calibrated":
        return PaperWorkload(seed, options, workdir)
    if name == "service-jobs":
        return ServiceWorkload(seed, options, workdir)
    raise KeyError("unknown workload %r" % name)

