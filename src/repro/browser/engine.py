"""Scripted browser engine.

Drives the synthetic web the way the paper's human operator drove Firefox:
navigates to pages, reads the returned HTML, fetches every referenced
subresource, "executes" tracker snippets via the script engine, fills and
submits forms, and maintains cookies, storage and referer semantics under
the active :class:`~repro.browser.profiles.BrowserProfile`.

Every request that leaves (or is blocked inside) the browser is recorded in
a :class:`~repro.netsim.CaptureLog` — the raw dataset all analyses consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dnssim import Resolver
from ..netsim import (
    CaptureEntry,
    CaptureLog,
    Headers,
    HttpRequest,
    HttpResponse,
    RESOURCE_DOCUMENT,
    RESOURCE_IMAGE,
    RESOURCE_SCRIPT,
    RESOURCE_STYLESHEET,
    RESOURCE_SUBDOCUMENT,
    CookieJar,
    Url,
    encode_urlencoded,
)
from ..netsim.faults import (
    FAULT_SLOW,
    RETRYABLE_STATUSES,
    ConnectionTimeout,
    NetworkError,
)
from ..netsim.stamps import Memo
from ..psl import default_list
from ..websim.consent import (
    CONSENT_ACCEPT_ALL,
    CONSENT_COOKIE,
    CONSENT_POLICIES,
    grants_tracking,
)
from ..websim.html import ParsedForm, ParsedPage, parse_page
from ..websim.scripts import (
    EmitRequest,
    ScriptContext,
    SetFirstPartyCookie,
    SnippetPings,
    StoreTrackerState,
    baseline_actions,
    exfil_actions,
    page_view_query,
    revisit_actions,
)
from ..websim.server import WebServer
from ..websim.site import TrackerEmbed, Website
from ..websim.trackers import TrackerCatalog, TrackerService
from .interfaces import ContentBlocker, OutboundFirewall, ensure_protocol
from .profiles import BrowserProfile, REFERER_STRICT_ORIGIN
from .resilience import CircuitBreakerRegistry, RequestFailure, RetryPolicy

_TAG_RESOURCE_TYPES = {
    "script": RESOURCE_SCRIPT,
    "image": RESOURCE_IMAGE,
    "stylesheet": RESOURCE_STYLESHEET,
    "subdocument": RESOURCE_SUBDOCUMENT,
}

_MAX_REDIRECTS = 5

_AUTOMATION_FIELD = ("Sec-Automation", "true")

#: The tracker storage of a site that has stored nothing (read-only).
_NO_STORAGE: Dict[str, Dict[str, str]] = {}


class SimClock:
    """Monotonic simulated clock; each network exchange advances it."""

    def __init__(self, start: float = 1_620_000_000.0) -> None:
        self._now = start

    def now(self) -> float:
        return self._now

    def tick(self, seconds: float = 0.05) -> float:
        self._now += seconds
        return self._now


class _PageContext:
    """What every request a page makes shares, built once per page URL:
    the page's URL, that URL as text (each request's ``page_url`` and
    full-URL ``Referer``), the initiator chain, the ``Referer`` fields,
    the snippets' page-load ping query, and per tracker snippet its
    initiator chain and ping URLs (see :meth:`Browser._snippet`)."""

    __slots__ = ("url", "text", "chain", "referer", "_origin_referer",
                 "_page_view", "snippets")

    def __init__(self, url: Url, text: str) -> None:
        self.url = url
        self.text = text
        self.chain = (url,)
        self.referer = ("Referer", self.text)
        self._origin_referer: Optional[Tuple[str, str]] = None
        self._page_view: Optional[Tuple[Tuple[str, str], ...]] = None
        #: (site, tracker domain) -> (snippet chain, snippet pings).
        self.snippets: Dict[Tuple[str, str],
                            Tuple[Tuple[Url, ...], SnippetPings]] = {}

    @property
    def origin_referer(self) -> Tuple[str, str]:
        """The strict-origin ``Referer`` field: the page's origin."""
        if self._origin_referer is None:
            self._origin_referer = ("Referer", self.url.origin + "/")
        return self._origin_referer

    @property
    def page_view(self) -> Tuple[Tuple[str, str], ...]:
        if self._page_view is None:
            self._page_view = page_view_query(self.url)
        return self._page_view


class _HostVerdict:
    """What the profile decides for every request from one site's pages
    to one host, built once per (site, host): whether the host is a
    third party, the cookie partition, whether its cookies are blocked,
    the Shields-style blocker (or None) and the breaker origin."""

    __slots__ = ("third_party", "partition", "cookies_blocked", "blocker",
                 "origin")

    def __init__(self, third_party: bool, partition: str,
                 cookies_blocked: bool, blocker: Optional[str],
                 origin: str) -> None:
        self.third_party = third_party
        self.partition = partition
        self.cookies_blocked = cookies_blocked
        self.blocker = blocker
        self.origin = origin


@dataclass
class PageResult:
    """Outcome of a navigation."""

    url: Url
    status: int
    page: Optional[ParsedPage]
    html: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200


class Browser:
    """One browser instance (profile + cookie jar + storage + capture log)."""

    def __init__(self, profile: BrowserProfile, server: WebServer,
                 resolver: Resolver, catalog: TrackerCatalog,
                 extension: Optional[ContentBlocker] = None,
                 firewall: Optional[OutboundFirewall] = None,
                 consent_policy: str = CONSENT_ACCEPT_ALL,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        """``extension`` is an optional content blocker satisfying
        :class:`~repro.browser.interfaces.ContentBlocker` (see
        :class:`repro.blocklist.AdblockExtension`).  ``firewall`` is an
        optional outbound rewriter satisfying
        :class:`~repro.browser.interfaces.OutboundFirewall` (see
        :class:`repro.mitigation.PiiFirewall`).  ``consent_policy`` is how
        the user answers cookie banners — the paper's procedure accepts
        them all (the default).  ``retry_policy`` enables the resilient
        network path (per-request timeouts, retry with backoff + jitter);
        without it every exchange is attempted exactly once, preserving
        the historical deterministic behaviour.  With a retry policy the
        browser also keeps a :class:`CircuitBreakerRegistry`
        (``breaker``), which quarantines origins that keep failing at the
        transport level.  Each browser keeps its own :class:`SimClock`
        (``clock``), so two crawls never share simulated time."""
        if consent_policy not in CONSENT_POLICIES:
            raise ValueError("unknown consent policy: %r" % consent_policy)
        ensure_protocol(extension, ContentBlocker, "extension")
        ensure_protocol(firewall, OutboundFirewall, "firewall")
        self.profile = profile
        self.server = server
        self.resolver = resolver
        self.catalog = catalog
        self.clock = SimClock()
        self.extension = extension
        self.firewall = firewall
        self.consent_policy = consent_policy
        self.retry_policy = retry_policy
        self.breaker = (CircuitBreakerRegistry()
                        if retry_policy is not None else None)
        #: Why the most recent exchange failed (for the flow runner).
        self.last_failure: Optional[RequestFailure] = None
        self._consent_decisions: Dict[str, str] = {}
        self.jar = CookieJar()
        self.log = CaptureLog()
        #: site domain -> service domain -> stored identifier params.
        self.tracker_storage: Dict[str, Dict[str, Dict[str, str]]] = {}
        #: (script host, script path) -> the snippet's script URL.
        self._script_urls: Memo[Tuple[str, str], Url] = Memo(256)
        #: absolute subresource reference -> its parsed URL.
        self._resource_urls: Memo[str, Url] = Memo(256)
        #: Request header fields, each the one tuple with its value, and
        #: whole header blocks, each the one ``Headers`` (see
        #: :meth:`_request`).
        self._fields: Memo[Tuple[str, str], Tuple[str, str]] = Memo(256)
        self._blocks: Memo[Tuple[Tuple[str, str], ...], Headers] = Memo(256)
        #: page URL text -> the page's context.
        self._pages: Memo[str, _PageContext] = Memo(256)
        #: (site domain, request host) -> the profile's verdict.  A key
        #: recurs only while its site is crawled (2,522 pairs in the
        #: calibrated crawl, 27 more verdicts than with no bound).
        self._verdicts: Memo[Tuple[str, str], _HostVerdict] = Memo(256)
        self._captcha_ready: Dict[str, bool] = {}
        self._current_url: Optional[Url] = None
        #: PII exposed in the current page context (set by form submission).
        self._page_pii: Dict[str, str] = {}

    # -- public navigation API ------------------------------------------

    def visit(self, site: Website, url: str, stage: str,
              keep_pii: bool = False) -> PageResult:
        """Navigate to a URL as a top-level document."""
        if not keep_pii:
            self._page_pii = {}
        return self._load_document(site, "GET", Url.parse(url), b"", None,
                                   stage)

    def submit_form(self, site: Website, form: ParsedForm,
                    values: Dict[str, str], stage: str) -> PageResult:
        """Fill a parsed form with ``values`` and submit it.

        GET forms serialize the fields into the URL (the referer-leak
        precondition); POST forms send an urlencoded body.  The submitted
        values become the page-context PII visible to tracker snippets on
        the resulting document.
        """
        if self._current_url is None:
            raise RuntimeError("no current page to submit from")
        filled: List[Tuple[str, str]] = []
        for name, kind, preset in form.fields:
            if not name:
                continue
            if name in values:
                filled.append((name, values[name]))
            elif kind == "hidden":
                value = preset
                if name == "captcha_token":
                    value = ("solved" if
                             self._captcha_ready.get(site.domain) else "")
                filled.append((name, value))
        action_url = self._current_url.join(form.action)
        self._page_pii = _pii_from_fields(dict(filled))
        if form.method == "GET":
            target = action_url.adding_query(filled)
            return self._load_document(site, "GET", target, b"", None,
                                       stage)
        body = encode_urlencoded(filled)
        return self._load_document(
            site, "POST", action_url, body,
            "application/x-www-form-urlencoded", stage)

    def snapshot_cookies(self) -> None:
        """Copy the cookie store into the capture log (end of flow)."""
        self.log.snapshot_cookies(self.jar.all_cookies())

    # -- checkpoint journal ----------------------------------------------

    def journal_state(self, domains: Sequence[str]) -> Tuple[object, ...]:
        """This browser's mutable state for a checkpoint record.

        State shared across sites (clock, the current page) comes
        whole; state kept per crawled site (tracker storage, consent
        decisions, captcha readiness) only for ``domains``, the sites
        crawled since the previous record.  The capture log, the cookie
        jar and the circuit breakers are journaled as changes of their
        own.  The memos are left out: a resumed browser starts them
        empty, which changes which objects are shared, never a value.
        """
        def of(per_site: Dict[str, object]) -> Dict[str, object]:
            return {domain: per_site[domain] for domain in domains
                    if domain in per_site}

        return (self.clock, self.last_failure, self._current_url,
                self._page_pii, of(self.tracker_storage),
                of(self._consent_decisions), of(self._captcha_ready))

    def restore_journal_state(self, state: Tuple[object, ...]) -> None:
        """Adopt state from :meth:`journal_state`."""
        (self.clock, self.last_failure, self._current_url,
         self._page_pii, storage, consent, captcha) = state
        self.tracker_storage.update(storage)
        self._consent_decisions.update(consent)
        self._captcha_ready.update(captcha)

    # -- document loading --------------------------------------------------

    def _load_document(self, site: Website, method: str, url: Url,
                       body: bytes, content_type: Optional[str],
                       stage: str) -> PageResult:
        referer = (self._page(self._current_url).referer
                   if self._current_url else None)
        response, final_url = self._request(
            site, method, url, body, content_type, RESOURCE_DOCUMENT,
            initiator_chain=(), stage=stage, referer=referer,
            page_url=self._page(url).text)
        if response is None or response.status != 200:
            status = response.status if response else 0
            return PageResult(url=final_url, status=status, page=None)
        # The page the server rendered the body from comes off the
        # response, which the capture log keeps: only HTML that arrives
        # without one (a replayed or unpickled response) is parsed.  A
        # response without one may be shared, and is left as it is.
        page = response.page
        if page is not None:
            response.page = None
        html = response.body.decode("utf-8", errors="replace")
        if not response.headers.get("Content-Type", "").startswith("text/html"):
            return PageResult(url=final_url, status=200, page=None, html=html)
        self._current_url = final_url
        if page is None:
            page = parse_page(html)
        self._process_page(site, page, self._page(final_url), stage)
        return PageResult(url=final_url, status=200, page=page, html=html)

    def _process_page(self, site: Website, page: ParsedPage,
                      context: _PageContext, stage: str) -> None:
        embeds_by_domain = {e.service.domain: e for e in site.embeds}
        for kind, tag in page.resource_tags():
            attrs = tag.attrs
            src = attrs.get("src") or attrs.get("href")
            if not src:
                continue
            resource_url = self._resource_url(context.url, src)
            response, _ = self._request(
                site, "GET", resource_url, b"", None,
                _TAG_RESOURCE_TYPES[kind],
                initiator_chain=context.chain, stage=stage,
                referer=self._referer_field(context, resource_url),
                page_url=context.text)
            if attrs.get("data-captcha") and response is not None:
                self._captcha_ready[site.domain] = True
            if attrs.get("data-cmp") and response is not None:
                self._answer_consent_banner(site, context, stage)
            tracker_domain = attrs.get("data-tracker")
            if tracker_domain and response is not None:
                embed = embeds_by_domain.get(tracker_domain)
                if embed is not None:
                    self._run_snippet(site, embed, context, stage)

    def _page(self, url: Url) -> _PageContext:
        """The context of the page at ``url``, one per page URL: a page
        loaded again shares its text, chain and fields with the earlier
        loads."""
        text = str(url)
        context = self._pages.get(text)
        if context is None:
            context = self._pages.get_or_build(text, _PageContext, url, text)
        return context

    def _resource_url(self, page_url: Url, src: str) -> Url:
        """``page_url.join(src)``, one shared ``Url`` per absolute ``src``.

        Tracker scripts are referenced by the same absolute URL from
        every page (7,504 requests for 20 URLs in the seed-404 crawl), so
        the capture log holds, pickles and ships each one once.  A
        ``Url`` is immutable, so sharing it is invisible.
        """
        if "://" not in src:
            return page_url.join(src)
        url = self._resource_urls.get(src)
        if url is None:
            url = self._resource_urls.get_or_build(src, Url.parse, src)
        return url

    def _answer_consent_banner(self, site: Website, context: _PageContext,
                               stage: str) -> None:
        """Answer the site's cookie banner per the configured policy.

        Mirrors the §3.2 operator behaviour (one decision per site): the
        choice is persisted in a first-party ``euconsent`` cookie and the
        receipt is posted to the CMP.
        """
        if site.consent is None or site.domain in self._consent_decisions:
            return
        self._consent_decisions[site.domain] = self.consent_policy
        from ..netsim import Cookie, encode_json
        self.jar.set_cookie(Cookie(
            name=CONSENT_COOKIE, value=self.consent_policy,
            domain=site.domain, host_only=False,
            creation_time=self.clock.now(),
            expires=self.clock.now() + 365 * 24 * 3600))
        receipt_url = Url(scheme="https", host=site.consent.receipt_host,
                          path="/v1/receipt")
        self._request(site, "POST", receipt_url,
                      encode_json({"site": site.domain,
                                   "choice": self.consent_policy}),
                      "application/json", "xmlhttprequest",
                      initiator_chain=context.chain, stage=stage,
                      referer=self._referer_field(context, receipt_url),
                      page_url=context.text)

    def _tracking_consented(self, site: Website) -> bool:
        """Whether the site's non-essential snippets may run."""
        banner = site.consent
        if banner is None or not banner.honors_consent:
            # No banner, or a dark-pattern site that ignores refusals.
            return True
        decision = self._consent_decisions.get(site.domain,
                                               self.consent_policy)
        return grants_tracking(decision)

    def _run_snippet(self, site: Website, embed: TrackerEmbed,
                     context: _PageContext, stage: str) -> None:
        if not self._tracking_consented(site):
            return
        chain, pings = self._snippet(site, embed.service, context)
        # The snippet reads the page PII and the site's tracker storage
        # as they are: its actions are all built before any runs.
        ctx = ScriptContext(site, context.url, stage, pings, self._page_pii,
                            self.tracker_storage.get(site.domain,
                                                     _NO_STORAGE),
                            self.clock.now())
        actions = baseline_actions(embed, ctx)
        if self._page_pii and embed.leaks:
            actions.extend(exfil_actions(embed, ctx))
        else:
            actions.extend(revisit_actions(embed, ctx))
        for action in actions:
            self._execute_action(site, action, context, chain, stage)

    def _snippet(self, site: Website, service: TrackerService,
                  context: _PageContext
                  ) -> Tuple[Tuple[Url, ...], SnippetPings]:
        """The initiator chain (page, script) of ``service``'s snippet on
        the page, and its ping URLs: one of each per (page, tracker), so
        a page loaded again sends the snippet's pings with the same
        chain and ``Url`` objects."""
        key = (site.domain, service.domain)
        parts = context.snippets.get(key)
        if parts is None:
            script = (service.script_host, service.script_path)
            script_url = self._script_urls.get(script)
            if script_url is None:
                script_url = self._script_urls.get_or_build(
                    script, Url, "https", *script)
            parts = context.snippets[key] = (
                (context.url, script_url),
                SnippetPings(service, site, context.page_view))
        return parts

    def _execute_action(self, site: Website, action: object,
                        context: _PageContext, chain: Tuple[Url, ...],
                        stage: str) -> None:
        if isinstance(action, EmitRequest):
            self._request(
                site, action.method, action.url, action.body,
                action.content_type, action.resource_type,
                initiator_chain=chain, stage=stage,
                referer=self._referer_field(context, action.url),
                page_url=context.text)
        elif isinstance(action, SetFirstPartyCookie):
            # document.cookie write: a domain cookie on the first party.
            from ..netsim import Cookie
            self.jar.set_cookie(Cookie(
                name=action.name, value=action.value, domain=action.domain,
                host_only=False, creation_time=self.clock.now(),
                expires=self.clock.now() + 365 * 24 * 3600))
        elif isinstance(action, StoreTrackerState):
            self.tracker_storage.setdefault(site.domain, {}).setdefault(
                action.service_domain, {}).update(action.values)

    # -- the network path --------------------------------------------------

    def _request(self, site: Website, method: str, url: Url, body: bytes,
                 content_type: Optional[str], resource_type: str,
                 initiator_chain: Tuple[Url, ...], stage: str,
                 referer: Optional[Tuple[str, str]], page_url: str,
                 redirects: int = 0):
        """Send one request (following redirects); returns (response, url).

        ``referer`` is the ``Referer`` header field, if any.  Repeated
        fields are shared tuples and repeated header blocks one shared
        ``Headers``, not equal copies: one ``Referer`` per page URL, one
        ``Cookie`` per value.  A shared ``Headers`` is read-only: the
        firewall edits a copy.
        """
        fields = [self.profile.user_agent_field]
        if referer:
            fields.append(referer)
        if content_type:
            field = ("Content-Type", content_type)
            fields.append(self._fields.get(field)
                          or self._fields.intern(field))
        if self.profile.automation_detectable:
            fields.append(_AUTOMATION_FIELD)

        key = (site.domain, url.host)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts.get_or_build(key, self._judge, site,
                                                  url.host)
        if not verdict.cookies_blocked:
            cookie_value = self.jar.cookie_header(url, self.clock.now(),
                                                  verdict.partition)
            if cookie_value:
                field = ("Cookie", cookie_value)
                fields.append(self._fields.get(field)
                              or self._fields.intern(field))

        block = tuple(fields)
        headers = self._blocks.get(block)
        if headers is None:
            headers = self._blocks.get_or_build(block, Headers, block)
        request = HttpRequest(method, url, headers, body, resource_type,
                              initiator_chain, self.clock.tick())

        if self.firewall is not None:
            # The firewall rewrites the query, path, headers and body,
            # never the host, so the verdict still holds.
            request, _ = self.firewall.scrub_request(request, site.www_host)
            url = request.url

        blocker = verdict.blocker
        if blocker is None and self.extension is not None and \
                resource_type != RESOURCE_DOCUMENT:
            blocker = self.extension.filter_request(
                str(url), resource_type, site.www_host)
        if blocker is not None:
            self.log.record(CaptureEntry(request, None, site.domain, stage,
                                         page_url, blocker))
            return None, url

        response = self._exchange(request, site, stage, page_url,
                                  verdict.origin)
        if response is None:
            return None, url
        if not verdict.cookies_blocked:
            for header_value in response.set_cookie_headers:
                self.jar.set_from_header(header_value, url, self.clock.now(),
                                         verdict.partition)

        if response.is_redirect and response.location and \
                redirects < _MAX_REDIRECTS:
            target = url.join(response.location)
            return self._request(site, "GET", target, b"", None,
                                 resource_type, initiator_chain, stage,
                                 referer=("Referer", str(url)),
                                 page_url=page_url,
                                 redirects=redirects + 1)
        return response, url

    def _exchange(self, request: HttpRequest, site: Website, stage: str,
                  page_url: str, origin: str) -> Optional[HttpResponse]:
        """Resolve + send one request under the resilience policy.

        Without a retry policy this is the historical single-shot path.
        With one, transport faults (timeouts, resets, DNS timeouts, slow
        responses beyond ``request_timeout``) and retryable HTTP statuses
        are retried with exponential backoff and deterministic jitter, up
        to the attempt budget; transport failures feed the per-origin
        circuit breaker, and an open breaker short-circuits every further
        exchange with that origin.  Every failed attempt is recorded in
        the capture log (``blocked_by="fault:<kind>"`` / ``"circuit-open"``)
        so no exchange silently disappears.  ``origin`` is the request
        host's registrable domain, the breaker's key.
        """
        self.last_failure = None
        url = request.url
        policy = self.retry_policy
        max_attempts = policy.max_attempts if policy is not None else 1
        attempt = 0
        while True:
            attempt += 1
            if self.breaker is not None and self.breaker.is_open(origin):
                self.log.record(CaptureEntry(
                    request=request, response=None, site=site.domain,
                    stage=stage, page_url=page_url,
                    blocked_by="circuit-open"))
                self.last_failure = RequestFailure(
                    origin=origin, kind="circuit-open", attempts=attempt,
                    circuit_open=True)
                return None
            try:
                if not self.resolver.exists(url.host):
                    # Authoritative NXDOMAIN: permanent, never retried.
                    self.log.record(CaptureEntry(
                        request=request, response=None, site=site.domain,
                        stage=stage, page_url=page_url,
                        blocked_by="nxdomain"))
                    self.last_failure = RequestFailure(
                        origin=origin, kind="nxdomain", attempts=attempt)
                    return None
                response = self.server.handle(request)
                latency = response.latency_seconds
                if policy is not None and latency is not None and \
                        latency > policy.request_timeout:
                    raise ConnectionTimeout(origin, kind=FAULT_SLOW,
                                            latency=latency)
                if latency is not None:
                    # A tolerated slow response still costs wall-clock.
                    self.clock.tick(latency)
            except NetworkError as exc:
                if self.breaker is not None:
                    self.breaker.record_failure(origin)
                self.log.record(CaptureEntry(
                    request=request, response=None, site=site.domain,
                    stage=stage, page_url=page_url,
                    blocked_by="fault:%s" % exc.kind))
                tripped = (self.breaker is not None
                           and self.breaker.is_open(origin))
                if policy is not None and attempt < max_attempts \
                        and not tripped:
                    request = self._retry_request(request, policy, attempt,
                                                  url.host)
                    continue
                self.last_failure = RequestFailure(
                    origin=origin, kind=exc.kind, attempts=attempt,
                    circuit_open=tripped)
                return None
            self.log.record(CaptureEntry(request, response, site.domain,
                                         stage, page_url))
            if policy is not None and attempt < max_attempts and \
                    response.status in RETRYABLE_STATUSES:
                request = self._retry_request(request, policy, attempt,
                                              url.host)
                continue
            if self.breaker is not None:
                self.breaker.record_success(origin)
            if response.status in RETRYABLE_STATUSES:
                self.last_failure = RequestFailure(
                    origin=origin, kind="http_%d" % response.status,
                    attempts=attempt)
            return response

    def _retry_request(self, request: HttpRequest, policy: RetryPolicy,
                       attempt: int, host: str) -> HttpRequest:
        """Back off, then rebuild the request with a fresh timestamp (and
        the same, read-only, ``Headers``)."""
        self.clock.tick(policy.backoff_delay(attempt, host))
        return HttpRequest(request.method, request.url, request.headers,
                           request.body, request.resource_type,
                           request.initiator_chain, self.clock.tick())

    def _judge(self, site: Website, host: str) -> _HostVerdict:
        """The profile's verdict on requests from ``site`` to ``host``."""
        psl = default_list()
        profile = self.profile
        third_party = psl.is_third_party(host, site.www_host)
        return _HostVerdict(
            third_party=third_party,
            partition=(site.domain if third_party
                       and profile.partitions_third_party_storage else ""),
            cookies_blocked=third_party and profile.blocks_third_party_cookie(
                self._effective_domain(host)),
            blocker=self._protection_verdict(host, third_party),
            origin=psl.registrable_domain(host) or host)

    def _protection_verdict(self, host: str,
                            is_third_party: bool) -> Optional[str]:
        """Shields-style request blocking (returns blocker name or None)."""
        if not self.profile.request_blocklist:
            return None
        if not is_third_party and self.profile.uncloaks_cname:
            # Recursively uncloak: a first-party host whose CNAME chain
            # lands in a blocked tracker zone is blocked too.
            for target in self.resolver.cname_chain(host):
                target_domain = self._effective_domain(target)
                if self.profile.blocks_request_to(target_domain):
                    return "shields-cname"
            return None
        if is_third_party and \
                self.profile.blocks_request_to(self._effective_domain(host)):
            return "shields"
        return None

    def _effective_domain(self, host: str) -> str:
        service = self.catalog.attribute_host(host)
        if service is not None:
            return service.domain
        return default_list().registrable_domain(host) or host

    def _referer_field(self, context: _PageContext,
                       target: Url) -> Tuple[str, str]:
        """``Referer`` field of a subresource request under the
        profile's policy."""
        if self.profile.referer_policy == REFERER_STRICT_ORIGIN and \
                default_list().is_third_party(target.host, context.url.host):
            return context.origin_referer
        return context.referer


def _pii_from_fields(fields: Dict[str, str]) -> Dict[str, str]:
    """Map submitted form fields to the PII view snippets read."""
    pii: Dict[str, str] = {}
    if fields.get("email"):
        pii["email"] = fields["email"]
    if fields.get("username"):
        pii["username"] = fields["username"]
    first = fields.get("first_name", "")
    last = fields.get("last_name", "")
    if first or last:
        pii["name"] = (" ".join(part for part in (first, last) if part))
    elif fields.get("name"):
        pii["name"] = fields["name"]
    return pii
