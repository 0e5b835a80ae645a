"""Study-level crawl orchestration.

Runs the §3.2 authentication flow over an entire population with a single
browser session (one persona, one cookie jar — cross-site tracking only
exists because state persists across sites), collects the combined capture
log, mailbox and per-site flow outcomes, and delivers each successful
site's marketing-mail campaign afterwards (the §4.2.3 e-mail analysis).

The crawl itself runs inside a :class:`CrawlSession` — an incremental,
picklable engine that can be stepped one site at a time, checkpointed to
disk mid-crawl, and resumed to a bit-identical final dataset.  Under a
seeded :class:`~repro.netsim.faults.FaultPlan` the session's browser
retries transient failures with backoff, quarantines origins whose
circuit breaker trips, and classifies every failed flow under the
transient-vs-permanent taxonomy — no site silently disappears.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, \
    Sequence, Tuple

from ..browser import (
    Browser,
    BrowserProfile,
    ContentBlocker,
    OutboundFirewall,
    RetryPolicy,
    ensure_protocol,
    vanilla_firefox,
)
from ..core.persona import Persona
from ..mailsim import ConfirmationMailHook, Mailbox
from ..netsim import CaptureLog
from ..netsim.faults import FaultPlan
from ..obs import NULL_RECORDER, Recorder
from ..obs.recorder import Span
from ..obs.progress import HeartbeatEvent, final_heartbeat, step_heartbeat
from ..obs.runtime import ResourceSampler, gc_paused
from ..websim.faults import wrap_server
from ..websim.population import Population
from ..websim.site import Website
from .checkpoint import (
    CheckpointError,
    append_record,
    read_journal,
    start_journal,
)
from .flows import STATUS_QUARANTINED, AuthFlowRunner, FlowResult
from .sharding import ShardInfo

#: Sentinel for :meth:`CrawlSession.load`'s ``expect_shard`` parameter:
#: "the caller has no expectation, skip the layout check".
ANY_SHARD = object()


def population_digest(population: Population,
                      sites: Sequence[Website]) -> str:
    """Identity of the part of ``population`` a session over ``sites``
    crawls, for checkpoint resumes.

    Folds the ``repr`` of every one of those sites (auth setup, embedded
    trackers and their leak behaviour, DNS, consent, mail) and of every
    tracker service.  A checkpoint keeps this digest instead of the
    population, and a resume against a population whose digest differs
    is refused.  The fields are strings, numbers, tuples and dicts in
    build order, so the digest is the same in every process.
    """
    digest = hashlib.sha256()
    for site in sites:
        digest.update(repr(site).encode("utf-8"))
    digest.update(b"\x00")
    for service in population.catalog.services():
        digest.update(repr(service).encode("utf-8"))
    return digest.hexdigest()


@dataclass
class _JournalMark:
    """How much of a session its checkpoint journal at ``path`` holds:
    the journal's length, how many items of each append-only collection
    it has, and the ``journal_version`` of the cookie jar, the fault
    plan and the circuit breakers at the last save (``None``: none yet,
    so each goes in whole)."""

    path: str
    end: int = 0
    sites: int = 0
    entries: int = 0
    cookies: Optional[int] = None
    fault_plan: Optional[int] = None
    breaker: Optional[int] = None
    messages: int = 0
    events: int = 0
    spans: int = 0


class _JournalRecord(NamedTuple):
    """One checkpoint journal record: what a session appended since the
    previous record, plus its small mutable state as it stands now."""

    next_index: int
    entries: list
    flows: List[Tuple[str, FlowResult]]
    messages: list
    fault_events: list
    spans: List[Span]
    cookies: Tuple[bool, list]
    browser: Tuple[object, ...]
    server: Tuple[object, ...]
    fault_plan: Optional[Tuple[object, ...]]
    breaker: Optional[list]
    firewall: object
    recorder: Optional[Tuple[object, ...]]


def _firewall_state(firewall: object) -> object:
    """The state of a firewall that keeps some across requests (it
    offers ``journal_state``, as :class:`~repro.mitigation.PiiFirewall`
    does for its counters), else ``None``."""
    journal_state = getattr(firewall, "journal_state", None)
    return None if journal_state is None else journal_state()


@dataclass
class CrawlDataset:
    """Everything one crawl produced: the input to all analysis.

    Bundles the full HTTP capture log, the per-site :class:`FlowResult`
    outcomes, the persona's mailbox and the crawled population.  This is
    the artifact the leak detector, tracking analysis and reporting all
    consume — and the unit of the reproducibility contract:
    :meth:`fingerprint` digests every exchange, cookie, flow outcome and
    mail message, and must be bit-identical across replays, resumed
    crawls and parallel crawls at any worker count (DESIGN.md §7)."""

    profile_name: str
    log: CaptureLog
    flows: Dict[str, FlowResult]
    mailbox: Mailbox
    persona: Persona
    population: Population

    def successful_sites(self) -> List[str]:
        return [domain for domain, flow in self.flows.items()
                if flow.succeeded]

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for flow in self.flows.values():
            counts[flow.status] = counts.get(flow.status, 0) + 1
        return counts

    def quarantined_sites(self) -> List[str]:
        """Sites the circuit breaker gave up on (sorted)."""
        return sorted(domain for domain, flow in self.flows.items()
                      if flow.status == STATUS_QUARANTINED)

    def failure_class_counts(self) -> Dict[str, int]:
        """{'transient': n, 'permanent': m} over the failed flows."""
        counts: Dict[str, int] = {}
        for flow in self.flows.values():
            if flow.failure_class is not None:
                counts[flow.failure_class] = \
                    counts.get(flow.failure_class, 0) + 1
        return counts

    def retried_flow_count(self) -> int:
        """Flows whose final page load consumed more than one attempt."""
        return sum(1 for flow in self.flows.values() if flow.attempts > 1)

    def fingerprint(self) -> str:
        """Stable digest of everything observable in this dataset.

        Two crawls are *the same crawl* iff their fingerprints match:
        every capture-log exchange (URLs, headers, bodies, timestamps,
        block verdicts), the end-of-crawl cookie store, every flow
        outcome and every mailbox message is folded in.  This is the
        equality the checkpoint/resume invariant is stated over.
        """
        digest = hashlib.sha256()

        def fold(*parts: object) -> None:
            digest.update(repr(parts).encode("utf-8"))
            digest.update(b"\x00")

        fold("profile", self.profile_name)
        fold("persona", self.persona.email)
        for entry in self.log.entries:
            request = entry.request
            response = entry.response
            fold("entry", request.method, str(request.url),
                 request.headers.items(), request.body,
                 request.resource_type, round(request.timestamp, 6),
                 None if response is None else (response.status,
                                                response.headers.items(),
                                                response.body),
                 entry.site, entry.stage, entry.page_url, entry.blocked_by)
        for cookie in self.log.stored_cookies:
            fold("cookie", cookie)
        for domain in sorted(self.flows):
            flow = self.flows[domain]
            fold("flow", domain, flow.status, flow.block_reason,
                 flow.attempts, flow.failure_kind)
        fold("mail-address", self.mailbox.address)
        for message in self.mailbox.messages():
            fold("mail", message)
        return digest.hexdigest()


class CrawlSession:
    """A resumable in-flight crawl over one population.

    The session owns every piece of mutable crawl state — browser (cookie
    jar, capture log, tracker storage, circuit breakers, clock), mailbox,
    fault-plan counters and the pending site queue: :meth:`save` journals
    it, :meth:`load` resumes it, and a resumed session finishes with a
    dataset whose :meth:`CrawlDataset.fingerprint` equals an
    uninterrupted run's.
    """

    def __init__(self, crawler: "StudyCrawler",
                 sites: Optional[Iterable[Website]] = None,
                 shard: Optional[ShardInfo] = None) -> None:
        """Start a fresh session over ``crawler``'s population.

        ``sites`` restricts the crawl to an explicit site sequence
        (default: the whole population in population order).  ``shard``
        stamps the session with its :class:`~repro.crawler.sharding.ShardInfo`
        identity — when given and ``sites`` is omitted, the shard's own
        domain sequence is crawled.  Raises :class:`KeyError` if a shard
        domain is not in the population.
        """
        population = crawler.population
        self.shard = shard
        #: Observability sink for this session.  Shard sessions record
        #: everything under one "shard" root span; a serial session
        #: records site spans directly under whatever span its (shared)
        #: recorder currently has open.  Picklable, so the trace
        #: survives checkpoint/resume along with the rest of the state.
        self.recorder: Recorder = crawler.recorder or NULL_RECORDER
        if sites is None and shard is not None:
            sites = [population.sites[domain] for domain in shard.domains]
        self.population = population
        self.profile = crawler.profile
        self.persona = population.persona
        self.mailbox = Mailbox(self.persona.email)
        self.server = population.build_server(
            mail_hook=ConfirmationMailHook(self.mailbox))
        #: The session's own copy of the crawler's plan, so the crawler's
        #: plan is never consumed and every session draws the same faults.
        self.fault_plan = (None if crawler.fault_plan is None
                           else crawler.fault_plan.fresh_copy())
        self.browser = Browser(
            profile=crawler.profile,
            server=wrap_server(self.server, self.fault_plan),
            resolver=population.resolver(fault_plan=self.fault_plan),
            catalog=population.catalog,
            extension=crawler.extension, firewall=crawler.firewall,
            consent_policy=crawler.consent_policy,
            retry_policy=crawler.retry_policy)
        self.runner = AuthFlowRunner(self.browser, self.persona,
                                     self.mailbox,
                                     automated=crawler.automated)
        self._sites: List[Website] = (list(sites) if sites is not None
                                      else population.site_list())
        self._next_index = 0
        self.flows: Dict[str, FlowResult] = {}
        self._finished = False
        self._root_span = None
        if shard is not None and self.recorder.enabled:
            self._root_span = self.recorder.start_span(
                "shard", start=self.browser.clock.now(),
                index=shard.index, sites=len(self._sites))
        #: Site spans already under the span this session records into
        #: when it started (a shared study recorder may hold some).
        self._span_base = len(self._span_target())
        self._journal: Optional[_JournalMark] = None

    # -- progress --------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._next_index >= len(self._sites)

    @property
    def crawled_count(self) -> int:
        return self._next_index

    @property
    def remaining_sites(self) -> List[str]:
        return [site.domain for site in self._sites[self._next_index:]]

    # -- execution -------------------------------------------------------

    def step(self) -> Optional[FlowResult]:
        """Crawl the next pending site; None when nothing is left.

        With an enabled recorder, each site becomes a span (stamped
        with deterministic simulated-clock times) whose children are
        one point-span per captured request, plus per-status flow
        counters and site-level histograms — the per-site/per-request
        layer of the study → stage → shard → site → request hierarchy.
        """
        if self.done:
            return None
        site = self._sites[self._next_index]
        recorder = self.recorder
        entries_before = len(self.browser.log.entries)
        sim_start = self.browser.clock.now()
        recorder.start_span("site", start=sim_start, domain=site.domain)
        result = self.runner.run(site)
        sim_end = self.browser.clock.now()
        new_entries = self.browser.log.entries[entries_before:]
        if recorder.enabled:
            for entry in new_entries:
                recorder.add_span(
                    "request", start=entry.request.timestamp,
                    end=entry.request.timestamp,
                    host=entry.request.url.host, stage=entry.stage,
                    blocked=entry.was_blocked)
        recorder.end_span(end=sim_end)
        recorder.count("crawl.sites")
        recorder.count("crawl.flows.%s" % result.status)
        recorder.count("crawl.requests", len(new_entries))
        if result.attempts > 1:
            recorder.count("crawl.retried_flows")
        recorder.observe("crawl.site_sim_seconds", sim_end - sim_start)
        recorder.observe("crawl.site_requests", len(new_entries))
        self.flows[site.domain] = result
        self._next_index += 1
        return result

    @gc_paused
    def run(self) -> CrawlDataset:
        """Crawl everything still pending and finish."""
        while not self.done:
            self.step()
        return self.finish()

    def finish(self) -> CrawlDataset:
        """Deliver post-crawl mail, snapshot cookies, build the dataset.

        Idempotent: finishing twice neither re-delivers marketing mail
        nor duplicates the cookie snapshot.
        """
        if not self._finished:
            # Marketing campaigns arrive after the crawl completes
            # (§4.2.3) — only for the sites actually crawled so far.
            for site in self._sites[:self._next_index]:
                if not self.flows[site.domain].succeeded:
                    continue
                inbox_count, spam_count = site.marketing_mail
                if inbox_count:
                    self.mailbox.deliver_marketing(site.domain, inbox_count,
                                                   spam=False)
                if spam_count:
                    self.mailbox.deliver_marketing(site.domain, spam_count,
                                                   spam=True)
            self.browser.snapshot_cookies()
            if self._root_span is not None and self._root_span.end is None:
                self.recorder.end_span(end=self.browser.clock.now())
            self._finished = True
        return CrawlDataset(profile_name=self.profile.name,
                            log=self.browser.log, flows=self.flows,
                            mailbox=self.mailbox, persona=self.persona,
                            population=self.population)

    # -- persistence -----------------------------------------------------

    def _span_target(self) -> List[Span]:
        """The span list each step appends its site span to."""
        current = self.recorder.current_span
        return current.children if current is not None \
            else self.recorder.roots

    def _snapshot(self) -> Dict[str, object]:
        """The journal snapshot: this session's starting configuration.

        It holds no capture entries and no population: :meth:`load`
        rebuilds the server, resolver and catalog from the population its
        caller supplies, checked against the digest kept here.  The
        recorder must not hold this session's site spans while the
        snapshot is pickled (see :meth:`save`).
        """
        browser = self.browser
        plan = self.fault_plan
        return {
            "population": population_digest(self.population, self._sites),
            "sites": [site.domain for site in self._sites],
            "profile": self.profile,
            "automated": self.runner.automated,
            "consent_policy": browser.consent_policy,
            "retry_policy": browser.retry_policy,
            # Records carry the firewall's counters (_firewall_state) and
            # the fault plan's counters and events.
            "extension": browser.extension,
            "firewall": browser.firewall,
            "fault_plan": None if plan is None else plan.fresh_copy(),
            "recorder": self.recorder,
            "root_span": self._root_span,
        }

    def _record(self, mark: _JournalMark) -> _JournalRecord:
        """Everything that changed since ``mark``, as one journal record."""
        domains = [site.domain
                   for site in self._sites[mark.sites:self._next_index]]
        plan = self.fault_plan
        breaker = self.browser.breaker
        recorder = self.recorder
        return _JournalRecord(
            next_index=self._next_index,
            entries=self.browser.log.entries[mark.entries:],
            flows=[(domain, self.flows[domain]) for domain in domains],
            messages=self.mailbox.since(mark.messages),
            fault_events=[] if plan is None else plan.events[mark.events:],
            spans=self._span_target()[mark.spans:],
            cookies=self.browser.jar.journal_changes(mark.cookies),
            browser=self.browser.journal_state(domains),
            server=self.server.journal_state(domains),
            fault_plan=(None if plan is None
                        else plan.journal_changes(mark.fault_plan)),
            breaker=(None if breaker is None
                     else breaker.journal_changes(mark.breaker)),
            firewall=_firewall_state(self.browser.firewall),
            recorder=((recorder.metrics, recorder.clock)
                      if recorder.enabled else None))

    def _apply(self, record: _JournalRecord) -> None:
        """Replay one journal record onto this (loading) session."""
        self._next_index = record.next_index
        self.browser.log.entries.extend(record.entries)
        self.flows.update(record.flows)
        for message in record.messages:
            self.mailbox.deliver(message)
        if self.fault_plan is not None:
            self.fault_plan.events.extend(record.fault_events)
            self.fault_plan.apply_journal_changes(record.fault_plan)
        if record.breaker is not None:
            self.browser.breaker.apply_journal_changes(record.breaker)
        self._span_target().extend(record.spans)
        self.browser.jar.apply_journal_changes(record.cookies)
        self.browser.restore_journal_state(record.browser)
        self.server.restore_journal_state(record.server)
        if record.firewall is not None:
            self.browser.firewall.restore_journal_state(record.firewall)
        if record.recorder is not None:
            self.recorder.metrics, self.recorder.clock = record.recorder

    def _mark(self, path: str, end: int) -> _JournalMark:
        plan = self.fault_plan
        breaker = self.browser.breaker
        return _JournalMark(
            path=path, end=end, sites=self._next_index,
            entries=len(self.browser.log.entries),
            cookies=self.browser.jar.journal_version,
            fault_plan=None if plan is None else plan.journal_version,
            breaker=None if breaker is None else breaker.journal_version,
            messages=len(self.mailbox),
            events=0 if plan is None else len(plan.events),
            spans=len(self._span_target()))

    def save(self, path: str) -> str:
        """Checkpoint this session to the journal at ``path``.

        The first save to ``path`` atomically replaces it with a new
        journal: the header, the snapshot and one record of everything
        crawled so far.  Each later save appends one record — the sites
        crawled since the previous save, with their capture entries,
        flows, mail, fault events and spans, plus the session's small
        mutable state — and fsyncs it, so a save costs the sites it
        adds, not the crawl so far.  Returns the path written.

        Raises :class:`RuntimeError` on a finished session (:meth:`load`
        of its last per-site record finishes to the same dataset) and
        :class:`OSError` if the destination is not writable.
        """
        if self._finished:
            raise RuntimeError(
                "a finished session is not checkpointed: its journal's "
                "last per-site record already finishes to this dataset")
        mark = self._journal
        if mark is not None and mark.path == path:
            end = append_record(path, mark.end, self._record(mark))
        else:
            record = self._record(_JournalMark(path=path,
                                               spans=self._span_base))
            # The snapshot is the starting state, so the recorder goes in
            # without this session's site spans: the record holds them.
            target = self._span_target()
            crawled = target[self._span_base:]
            del target[self._span_base:]
            try:
                end = start_journal(path, self.shard, self._snapshot(),
                                    record)
            finally:
                target.extend(crawled)
        self._journal = self._mark(path, end)
        return path

    @staticmethod
    def load(path: str, population: Population,
             expect_shard: object = ANY_SHARD) -> "CrawlSession":
        """Resume a session checkpointed by :meth:`save`.

        ``population`` is the population the session crawled (the
        journal does not hold it): a shard job's rebuilt population, or
        a study's own.  A torn final record — a writer killed mid-append
        — is dropped, so the site it described is crawled again.  The
        resumed session keeps appending to ``path``.

        ``expect_shard`` declares what kind of session the caller is
        prepared to resume:

        * :data:`ANY_SHARD` (default) — no expectation, load anything;
        * ``None`` — expect an *unsharded* (whole-population) session;
        * a :class:`~repro.crawler.sharding.ShardInfo` — expect exactly
          that shard of exactly that layout.

        Raises :class:`~repro.crawler.CheckpointError` when the file is
        not a checkpoint, when ``population`` is not the one the session
        crawled, or when the checkpointed session's shard identity does
        not match the expectation — a checkpoint written under a
        different shard layout (different shard count, different site
        membership, or a serial-vs-sharded mismatch) must never be
        silently resumed against the wrong site list.  Raises
        :class:`OSError` if the file cannot be read.
        """
        journal = read_journal(path)
        _check_shard(path, journal.header, expect_shard)
        snapshot = journal.snapshot
        sites = [population.sites.get(domain) for domain in snapshot["sites"]]
        if None in sites or snapshot["population"] != population_digest(
                population, sites):
            raise CheckpointError(
                "%s was written for a different population than the one "
                "supplied to resume it" % path)
        crawler = StudyCrawler(
            population, profile=snapshot["profile"],
            extension=snapshot["extension"], firewall=snapshot["firewall"],
            consent_policy=snapshot["consent_policy"],
            automated=snapshot["automated"],
            fault_plan=snapshot["fault_plan"],
            retry_policy=snapshot["retry_policy"])
        session = CrawlSession(crawler, sites, shard=journal.header)
        session.recorder = snapshot["recorder"]
        session._root_span = snapshot["root_span"]
        session._span_base = len(session._span_target())
        for record in journal.records:
            session._apply(record)
        session._journal = session._mark(path, journal.end)
        return session


def _check_shard(path: str, found: object, expect_shard: object) -> None:
    """Raise :class:`CheckpointError` unless a checkpoint of shard
    ``found`` (``None``: unsharded) may resume where ``expect_shard`` is
    expected (see :meth:`CrawlSession.load`)."""
    if expect_shard is ANY_SHARD:
        return
    if expect_shard is None:
        if found is not None:
            raise CheckpointError(
                "%s holds %s of a parallel crawl, not a serial "
                "(whole-population) session; resume it with the "
                "worker pool that wrote it" % (path, found.describe()))
        return
    if found is None:
        raise CheckpointError(
            "%s holds a serial (unsharded) session but %s was "
            "expected; a serial checkpoint cannot seed a parallel "
            "crawl" % (path, expect_shard.describe()))
    if found != expect_shard:
        raise CheckpointError(
            "%s was written by %s but the running layout expects %s; "
            "shard layouts must match exactly to resume (same shard "
            "count and same site partition)"
            % (path, found.describe(), expect_shard.describe()))


@gc_paused
def step_session(session: CrawlSession, *, shard: int,
                 checkpoint: Optional[str] = None,
                 emit: Optional[Callable[[HeartbeatEvent], None]] = None,
                 resources: bool = False) -> Optional[Dict[str, float]]:
    """Step ``session`` until no site is left; the caller finishes it.

    The one session-stepping loop behind both crawl engines.  Saves a
    checkpoint to ``checkpoint`` after every site when given, and sends
    ``emit`` one :class:`~repro.obs.progress.HeartbeatEvent` per crawled
    site, stamped with ``shard`` and running retried/quarantined tallies,
    then a final completion marker.  ``resources`` attaches a
    :class:`~repro.obs.runtime.ResourceSampler` delta to each heartbeat
    and returns the final sample (``None`` without one).  Heartbeats and
    samples only *read* crawl state: the dataset and the trace are
    bit-identical with them on or off.
    """
    total = session.crawled_count + len(session.remaining_sites)
    retried = quarantined = 0
    sampler = ResourceSampler() if resources else None
    while not session.done:
        entries_before = len(session.browser.log.entries)
        result = session.step()
        if checkpoint:
            session.save(checkpoint)
        if emit is not None and result is not None:
            if result.attempts > 1:
                retried += 1
            if result.status == STATUS_QUARANTINED:
                quarantined += 1
            emit(step_heartbeat(
                shard=shard, crawled=session.crawled_count,
                total=total, domain=result.site, status=result.status,
                attempts=result.attempts,
                requests=len(session.browser.log.entries) - entries_before,
                retried=retried, quarantined=quarantined,
                resources=sampler.sample() if sampler is not None else None))
    # One sample shared by the final heartbeat and the caller, so
    # progress.jsonl and the manifest reconcile exactly.
    final_sample = sampler.sample() if sampler is not None else None
    if emit is not None:
        emit(final_heartbeat(shard=shard, crawled=session.crawled_count,
                             total=total, retried=retried,
                             quarantined=quarantined,
                             resources=final_sample))
    return final_sample


class StudyCrawler:
    """Crawls a population under one browser profile (the §3.2 operator).

    Every session it starts owns its crawl's mutable state — the
    scripted browser (cookie jar, capture log, simulated clock), the
    persona's mailbox and, when a
    :class:`~repro.netsim.faults.FaultPlan` is supplied, the resilient
    network stack (retries, backoff, per-origin circuit breakers).
    :meth:`crawl` runs every site to completion and returns the
    :class:`CrawlDataset`; :meth:`start` returns a stepwise, resumable
    :class:`CrawlSession` instead (optionally scoped to one shard of a
    parallel layout).  For multi-process crawling use
    :class:`~repro.crawler.ParallelCrawler`, which builds one of these
    per shard."""

    def __init__(self, population: Population,
                 profile: Optional[BrowserProfile] = None,
                 extension: Optional[ContentBlocker] = None,
                 firewall: Optional[OutboundFirewall] = None,
                 consent_policy: Optional[str] = None,
                 automated: bool = False,
                 fault_plan: Optional[FaultPlan] = None,
                 retry_policy: Optional[RetryPolicy] = None,
                 recorder: Optional[Recorder] = None) -> None:
        """``extension`` (a content blocker such as
        :class:`repro.blocklist.AdblockExtension`) and ``firewall`` (an
        outbound scrubber such as :class:`repro.mitigation.PiiFirewall`)
        must satisfy their respective Protocols — a wrong object raises
        ``TypeError`` here rather than mid-crawl.  ``consent_policy`` (how
        cookie banners are answered; default accept-all, like the paper's
        operator) is forwarded to the browser.  ``fault_plan`` makes the
        synthetic web flaky; supplying one enables the resilient network
        path with a default :class:`~repro.browser.RetryPolicy` unless an
        explicit ``retry_policy`` is given.  Each session crawls a
        :meth:`~repro.netsim.faults.FaultPlan.fresh_copy` of the plan
        (its ``fault_plan``), so the plan is left as it was.  ``recorder`` (a
        :class:`repro.obs.Recorder`) turns on structured tracing for the
        sessions this crawler starts; ``None`` (the default) records
        nothing and costs nothing.  A firewall that keeps state across
        requests offers ``journal_state()`` and
        ``restore_journal_state(state)``, as ``PiiFirewall`` does for its
        counters, so that a checkpoint resume restores it; an extension,
        or any other firewall, is checkpointed as it was at the first
        save."""
        from ..websim.consent import CONSENT_ACCEPT_ALL
        ensure_protocol(extension, ContentBlocker, "extension")
        ensure_protocol(firewall, OutboundFirewall, "firewall")
        self.population = population
        self.profile = profile or vanilla_firefox()
        self.extension = extension
        self.firewall = firewall
        self.consent_policy = consent_policy or CONSENT_ACCEPT_ALL
        self.automated = automated
        self.fault_plan = fault_plan
        if retry_policy is None and fault_plan is not None:
            retry_policy = RetryPolicy()
        self.retry_policy = retry_policy
        self.recorder = recorder

    def start(self, sites: Optional[Iterable[Website]] = None,
              shard: Optional[ShardInfo] = None) -> CrawlSession:
        """Begin an incremental (checkpointable) crawl session.

        ``sites`` restricts the crawl to an explicit sequence; ``shard``
        stamps the session with a shard identity (and, when ``sites`` is
        omitted, selects the shard's domains).  Returns a fresh
        :class:`CrawlSession` positioned before the first site.
        """
        return CrawlSession(self, sites, shard=shard)

    def crawl(self, sites: Optional[Iterable[Website]] = None) -> CrawlDataset:
        """Run the full study crawl serially in this process.

        ``sites`` optionally restricts/reorders the crawl.  Returns the
        finished :class:`CrawlDataset`.  For a sharded or multi-process
        crawl with the identical fingerprint contract, use
        :class:`~repro.crawler.ParallelCrawler`.
        """
        return self.start(sites).run()
