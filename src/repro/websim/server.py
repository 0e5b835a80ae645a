"""The synthetic web's origin servers.

One :class:`WebServer` instance plays every origin in the simulation:
first-party shop sites (pages, auth endpoints, privacy policy), third-party
tracker endpoints (pixels, scripts, event collectors) and CNAME-cloaked
collection subdomains.  The browser talks to it exactly like a network —
``handle(request) -> response`` — and everything observable (HTML, cookies,
redirects, confirmation e-mails) comes out of that exchange.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..netsim import Headers, HttpRequest, HttpResponse
from ..netsim.stamps import Memo
from ..psl import default_list
from .html import LinkBlock, PageWriter, ScriptBlock
from .site import (
    PAGE_ACCOUNT,
    PAGE_HOME,
    PAGE_PATHS,
    PAGE_PRODUCT,
    PAGE_SIGNIN,
    PAGE_SIGNUP,
    FormSpec,
    Website,
    signin_form,
    signup_form,
)
from .trackers import TrackerCatalog, TrackerService

#: Domain of the CAPTCHA provider whose script Brave's Shields blocks —
#: the mechanism behind the paper's nykaa.com sign-up failure (§7.1).
CAPTCHA_PROVIDER = "captcha-delivery.com"

ACCOUNT_PENDING = "pending"
ACCOUNT_ACTIVE = "active"

#: Callback signature for confirmation mail: (site_domain, email, url).
MailHook = Callable[[str, str, str], None]

#: The links on the home page, on the pages that lead back to the
#: account, and on the product page; and no links.
_HOME_LINKS = LinkBlock(((PAGE_PATHS[PAGE_SIGNUP], "Create account"),
                         (PAGE_PATHS[PAGE_SIGNIN], "Sign in"),
                         (PAGE_PATHS[PAGE_PRODUCT], "Aurora Lamp"),
                         ("/privacy", "Privacy policy")))
_ACCOUNT_LINKS = LinkBlock((("/account", "Your account"),))
_PRODUCT_LINKS = LinkBlock((("/account", "Account"),))
_NO_LINKS = LinkBlock(())

#: Routes of a request host (see `WebServer._route`).
_ROUTE_SITE = "site"
_ROUTE_TRACKER = "tracker"
_ROUTE_CMP = "cmp"
_ROUTE_NONE = "none"

#: A response's header fields.
_Fields = Tuple[Tuple[str, str], ...]

#: Header fields of the fixed replies.
_JS_FIELDS = (("Content-Type", "application/javascript"),)
_GIF_FIELDS = (("Content-Type", "image/gif"),)
_JSON_FIELDS = (("Content-Type", "application/json"),)
_HTML_FIELD = ("Content-Type", "text/html; charset=utf-8")


@dataclass
class WebServer:
    """Serves every origin of the synthetic web.

    A reply that repeats is one shared object: the tracker replies that
    mint no cookie, the CMP's, the fixed redirects and error pages (see
    :meth:`_reply`), per site the ``Headers`` and script block of its
    pages (see :func:`_site_parts`), and per distinct page its body
    bytes.  The capture log then holds, pickles and ships each once.
    Shared parts are read-only: nothing edits a response or its
    ``Headers`` after the server returns it.
    """

    sites: Dict[str, Website]
    catalog: TrackerCatalog
    mail_hook: Optional[MailHook] = None
    #: site domain -> {email -> account state}
    accounts: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: site domain -> {opaque confirmation token -> email}
    pending_tokens: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: Counter making tracker-minted cookie IDs unique per issuance
    #: (a cleared jar gets a *new* tuid, like real tracker backends).
    _tuid_sequence: int = 0
    #: (status, header fields, body) -> the one reply with those parts.
    _replies: Memo[Tuple[int, _Fields, bytes], HttpResponse] = field(
        default_factory=lambda: Memo(256), init=False, repr=False,
        compare=False)
    #: site domain -> (page headers, script block).
    _parts_by_site: Memo[str, Tuple[Headers, ScriptBlock]] = field(
        default_factory=lambda: Memo(256), init=False, repr=False,
        compare=False)
    #: rendered page -> its one body.
    _bodies: Memo[str, bytes] = field(
        default_factory=lambda: Memo(256), init=False, repr=False,
        compare=False)
    #: request host -> who answers it (see :meth:`_route`).
    _routes: Memo[str, Tuple[str, object]] = field(
        default_factory=lambda: Memo(1024), init=False, repr=False,
        compare=False)

    # -- checkpoint journal ----------------------------------------------

    def journal_state(self, domains: Sequence[str]) -> Tuple[object, ...]:
        """Mutable server state for a checkpoint record: the tracker ID
        sequence, and the accounts and pending confirmations of
        ``domains`` (the sites crawled since the previous record — a
        crawl only ever touches the accounts of the site it crawls)."""
        return (self._tuid_sequence,
                {domain: self.accounts[domain] for domain in domains
                 if domain in self.accounts},
                {domain: self.pending_tokens[domain] for domain in domains
                 if domain in self.pending_tokens})

    def restore_journal_state(self, state: Tuple[object, ...]) -> None:
        """Adopt state from :meth:`journal_state`."""
        self._tuid_sequence, accounts, pending = state
        self.accounts.update(accounts)
        self.pending_tokens.update(pending)

    # -- entry point ---------------------------------------------------

    def handle(self, request: HttpRequest) -> HttpResponse:
        host = request.url.host
        kind, answerer = self._routes.get(host) or self._routes.get_or_build(
            host, self._route, host)
        if kind == _ROUTE_SITE:
            if answerer.auth.unreachable:
                return self._reply(503, b"service unavailable")
            return self._site_response(answerer, request)
        if kind == _ROUTE_TRACKER:
            return self._tracker_response(request, answerer)
        if kind == _ROUTE_CMP:
            return self._cmp_response(request)
        return self._reply(404, b"no such origin")

    def _route(self, host: str) -> Tuple[str, object]:
        """Who answers ``host``: a site (its pages), a tracker service
        (its endpoints, also behind a site's cloaked CNAME subdomain),
        a consent platform, or nobody.  Fixed per host, so decided once;
        the sites, their CNAME records and the catalog do not change
        once the server is serving."""
        site = self._site_for_host(host)
        if site is not None:
            cloaked = site.cname_records.get(host.split(".")[0])
            if cloaked is None or host == site.www_host:
                return _ROUTE_SITE, site
            return _ROUTE_TRACKER, self.catalog.attribute_host(host)
        service = self.catalog.attribute_host(host)
        if service is not None:
            return _ROUTE_TRACKER, service
        if self._is_cmp_host(host):
            return _ROUTE_CMP, None
        return _ROUTE_NONE, None

    def _reply(self, status: int, body: bytes = b"",
               fields: _Fields = ()) -> HttpResponse:
        """The one shared response with these parts."""
        key = (status, fields, body)
        return self._replies.get(key) or self._replies.get_or_build(
            key, _build_reply, status, fields, body)

    @staticmethod
    def _is_cmp_host(host: str) -> bool:
        from .consent import CMP_PROVIDERS
        return any(host == provider or host.endswith("." + provider)
                   for provider in CMP_PROVIDERS)

    def _cmp_response(self, request: HttpRequest) -> HttpResponse:
        if request.method == "POST" or "/receipt" in request.url.path:
            return self._reply(200, b'{"status":"recorded"}', _JSON_FIELDS)
        return self._reply(200, b"/* consent management stub */",
                           _JS_FIELDS)

    def _site_for_host(self, host: str) -> Optional[Website]:
        registrable = default_list().registrable_domain(host) or host
        return self.sites.get(registrable)

    # -- first-party pages ----------------------------------------------

    def _site_response(self, site: Website, request: HttpRequest) -> HttpResponse:
        path = request.url.path
        if path == PAGE_PATHS[PAGE_HOME]:
            return self._page(site, "Home", site.domain, _HOME_LINKS)
        if path == PAGE_PATHS[PAGE_SIGNUP]:
            if not site.auth.has_auth:
                return self._reply(404, b"not found")
            return self._page(site, "Create account", "Create your account",
                              form=signup_form(site))
        if path == "/account/register/submit":
            return self._handle_signup_submit(site, request)
        if path == "/account/register/welcome":
            return self._page(site, "Welcome", "Account created",
                              _ACCOUNT_LINKS)
        if path == "/account/confirm":
            return self._handle_confirm(site, request)
        if path == PAGE_PATHS[PAGE_SIGNIN]:
            if not site.auth.has_auth:
                return self._reply(404, b"not found")
            return self._page(site, "Sign in", "Sign in",
                              form=signin_form(site))
        if path == "/account/login/submit":
            return self._handle_signin_submit(site, request)
        if path == PAGE_PATHS[PAGE_ACCOUNT]:
            return self._page(site, "Your account", "Welcome back")
        if path == PAGE_PATHS[PAGE_PRODUCT]:
            return self._page(site, "Aurora Lamp", "Aurora Lamp",
                              _PRODUCT_LINKS)
        if path == "/privacy":
            return self._reply(200, b"(privacy policy page)")
        return self._reply(404, b"not found")

    def _page(self, site: Website, title: str, heading: str,
              links: LinkBlock = _NO_LINKS,
              form: Optional[FormSpec] = None) -> HttpResponse:
        """A first-party page: ``heading``, then ``links`` or ``form``,
        then the site's consent, tracker and captcha scripts.  The
        response carries the parsed page beside the bytes (see
        :class:`~repro.websim.html.PageWriter`).  A page rendered again
        shares the earlier one's body."""
        parts = self._parts_by_site.get(site.domain)
        if parts is None:
            parts = self._parts_by_site.get_or_build(site.domain,
                                                     _site_parts, site)
        headers, scripts = parts
        writer = PageWriter(heading)
        writer.links(links)
        if form is not None:
            writer.form(form.action, form.method, form.form_id,
                        [(f.name, f.kind, f.value) for f in form.fields])
        writer.scripts(scripts)
        html = writer.document("%s - %s" % (site.domain, title))
        body = self._bodies.get(html)
        if body is None:
            body = self._bodies.get_or_build(html, str.encode, html, "utf-8")
        return HttpResponse(status=200, headers=headers, body=body,
                            page=writer.page)

    # -- auth endpoints --------------------------------------------------

    def _form_params(self, request: HttpRequest) -> Dict[str, str]:
        if request.method == "GET":
            return request.url.query_dict()
        from ..netsim import decode_urlencoded
        return dict(decode_urlencoded(request.body))

    def _handle_signup_submit(self, site: Website,
                              request: HttpRequest) -> HttpResponse:
        params = self._form_params(request)
        email = params.get("email", "")
        if not email:
            return self._reply(400, b"missing email")
        if site.auth.bot_detection and \
                request.headers.get("Sec-Automation") == "true":
            return self._reply(403, b"bot detected")
        if site.auth.captcha_blocks_brave and not params.get("captcha_token"):
            return self._reply(403, b"captcha required")

        site_accounts = self.accounts.setdefault(site.domain, {})
        if site.auth.requires_email_confirmation:
            site_accounts[email] = ACCOUNT_PENDING
            # The confirmation link carries an opaque token only — the
            # address itself never appears in the URL (sites that embed
            # PII in URLs are modelled via GET forms instead).
            token = _session_token(site.domain + ":confirm:" + email)
            self.pending_tokens.setdefault(site.domain, {})[token] = email
            confirm_url = "%s/account/confirm?token=%s" % (
                site.https_origin, token)
            if self.mail_hook is not None:
                self.mail_hook(site.domain, email, confirm_url)
            return self._page(site, "Confirm your email", "Check your inbox")
        site_accounts[email] = ACCOUNT_ACTIVE
        if request.method == "POST":
            # POST-redirect-GET, as well-built sites do.  GET forms (the
            # accidental-leak sites) land directly on the result page so
            # the PII-bearing URL stays the document location.
            return self._reply(302, fields=(
                ("Location", "/account/register/welcome"),))
        return self._page(site, "Welcome", "Account created", _ACCOUNT_LINKS)

    def _handle_confirm(self, site: Website,
                        request: HttpRequest) -> HttpResponse:
        token = request.url.query_get("token") or ""
        email = self.pending_tokens.get(site.domain, {}).get(token)
        site_accounts = self.accounts.setdefault(site.domain, {})
        if email is not None and site_accounts.get(email) == ACCOUNT_PENDING:
            site_accounts[email] = ACCOUNT_ACTIVE
            return self._page(site, "Email confirmed",
                              "Thanks, you are verified")
        return self._reply(400, b"invalid confirmation")

    def _handle_signin_submit(self, site: Website,
                              request: HttpRequest) -> HttpResponse:
        params = self._form_params(request)
        email = params.get("email", "")
        state = self.accounts.get(site.domain, {}).get(email)
        if state != ACCOUNT_ACTIVE:
            return self._reply(401, b"unknown or pending account")
        return self._page(site, "Signed in", "Signed in", _ACCOUNT_LINKS)

    # -- third-party endpoints --------------------------------------------

    def _tracker_response(self, request: HttpRequest,
                          service: Optional[TrackerService]) -> HttpResponse:
        """A tracker endpoint's reply; ``service`` operates the host."""
        if request.url.path.endswith(".js") or \
                request.resource_type == "script":
            fields, body = _JS_FIELDS, b"/* tracking snippet */"
        else:
            fields, body = _GIF_FIELDS, b"GIF89a\x01\x00\x01\x00"
        if service is None or not service.sets_cookie \
                or request.headers.get("Cookie") is not None:
            return self._reply(200, body, fields)
        self._tuid_sequence += 1
        cookie = ("Set-Cookie",
                  "tuid=%s; Path=/; Max-Age=31536000; Domain=%s"
                  % (_session_token("%s#%d" % (service.domain,
                                               self._tuid_sequence)),
                     service.domain))
        return HttpResponse(status=200, headers=Headers(fields + (cookie,)),
                            body=body)


def _session_token(seed: str) -> str:
    """Deterministic opaque token (no randomness, reproducible crawls)."""
    return hashlib.sha256(("repro-token:" + seed).encode()).hexdigest()[:24]


def _build_reply(status: int, fields: _Fields, body: bytes) -> HttpResponse:
    return HttpResponse(status=status, headers=Headers(fields), body=body)


def _site_parts(site: Website) -> Tuple[Headers, ScriptBlock]:
    """What every page of ``site`` shares: its ``Headers`` (the content
    type and the site's deterministic ``session`` cookie) and its
    consent, tracker and captcha scripts."""
    scripts = []
    if site.consent is not None:
        scripts.append({
            "src": "https://%s%s" % (site.consent.script_host,
                                     site.consent.script_path),
            "data-cmp": site.consent.provider})
    for embed in site.embeds:
        service = embed.service
        scripts.append({
            "src": "https://%s%s" % (service.script_host,
                                     service.script_path),
            "data-tracker": service.domain})
    if site.auth.captcha_blocks_brave:
        scripts.append({
            "src": "https://ct.%s/challenge.js" % CAPTCHA_PROVIDER,
            "data-captcha": "1"})
    headers = Headers((
        _HTML_FIELD,
        ("Set-Cookie", "session=%s; Path=/; Max-Age=86400"
         % _session_token(site.domain))))
    return headers, ScriptBlock(scripts)
