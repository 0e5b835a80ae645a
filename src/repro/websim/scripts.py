"""Tracker script engine.

Stands in for executing third-party JavaScript: given an embedded service,
its per-site leak behaviour and the page context (what PII the user has
typed, which flow stage we are in), it produces the *actions* the real
snippet would take — emitting beacon requests and setting cookies.

The browser engine executes these actions, so all traffic — baseline pixel
loads, PII exfiltration, persistent-ID re-emission on subpages — flows
through the same instrumented request path the detector later analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from .. import hashes
from ..core.leakmodel import (
    CHANNEL_COOKIE,
    CHANNEL_PAYLOAD,
    CHANNEL_URI,
)
from ..netsim import (
    CONTENT_JSON,
    FORM_URLENCODED,
    RESOURCE_IMAGE,
    RESOURCE_PING,
    Url,
    encode_json,
    encode_urlencoded,
)
from .site import LeakBehavior, TrackerEmbed, Website
from .trackers import TrackerService


class EmitRequest(NamedTuple):
    """Action: send an HTTP request."""

    method: str
    url: Url
    body: bytes = b""
    content_type: Optional[str] = None
    resource_type: str = RESOURCE_PING


@dataclass(frozen=True)
class SetFirstPartyCookie:
    """Action: store a cookie in the first-party context."""

    name: str
    value: str
    domain: str  # registrable domain; stored as a domain cookie


@dataclass(frozen=True)
class StoreTrackerState:
    """Action: persist identifier state in page-context storage."""

    service_domain: str
    values: Tuple[Tuple[str, str], ...]


Action = object  # union of the three action classes above


@dataclass
class ScriptContext:
    """What a snippet can observe when it runs.

    ``pii`` and ``stored_state`` are the browser's own dicts, handed over
    without a copy: a snippet only reads them, and the browser applies
    the actions (:class:`StoreTrackerState` among them) after the snippet
    has built all of them.
    """

    site: Website
    page_url: Url
    stage: str
    #: The running snippet's :class:`SnippetPings` on this page, which a
    #: browser builds once per (page, tracker).
    pings: "SnippetPings"
    #: PII the page currently exposes (form fields / data layer); empty
    #: before the user has typed anything.
    pii: Dict[str, str] = field(default_factory=dict)
    #: Previously stored tracker state for (this site, service) pairs.
    stored_state: Dict[str, Dict[str, str]] = field(default_factory=dict)
    timestamp: float = 0.0


class SnippetPings:
    """The ping URLs a snippet sends from a page whatever the page
    exposes: ``load``, the page-load ping, whose query is
    :func:`page_view_query` of the page, and ``beacon``, the bare
    ``PageView`` beacon that only cookie-channel snippets send (built on
    first use).  Every load of a page that shares one sends the same
    ``Url`` objects."""

    __slots__ = ("_host", "_path", "load", "_beacon")

    def __init__(self, service: TrackerService, site: Website,
                 page_view: Tuple[Tuple[str, str], ...]) -> None:
        self._host = _endpoint_host(service, site)
        self._path = service.endpoint_path
        self.load = Url("https", self._host, self._path, page_view)
        self._beacon: Optional[Url] = None

    @property
    def beacon(self) -> Url:
        if self._beacon is None:
            self._beacon = Url(scheme="https", host=self._host,
                               path=self._path, query=(("ev", "PageView"),))
        return self._beacon


def _beacon_request(ctx: ScriptContext) -> EmitRequest:
    return EmitRequest(method="GET", url=ctx.pings.beacon,
                       resource_type=RESOURCE_IMAGE)


def page_view_query(page_url: Url) -> Tuple[Tuple[str, str], ...]:
    """The page-load ping's query: the event, and as ``dl`` the document
    location with the query stripped, so that PII landing in the page
    URL (GET forms) reaches third parties via the Referer header only —
    keeping the paper's channels distinct."""
    return (("ev", "PageView"), ("dl", str(page_url.without_query())))


def _param_for_field(base_param: str, pii_field: str, chain_index: int,
                     service: TrackerService) -> str:
    """Derive the parameter name for a PII field / chain combination.

    Mirrors real snippets: Facebook's advanced matching uses ``udff[em]`` /
    ``udff[fn]`` / ``udff[ln]``; Criteo numbers its hashes ``p0``/``p1``.
    """
    from .trackers import ALT_PARAMS
    param = base_param
    if chain_index > 0:
        alternates = ALT_PARAMS.get(service.domain, ())
        if chain_index < len(alternates):
            param = alternates[chain_index]
        else:
            param = "%s%d" % (base_param, chain_index)
    if pii_field == "email":
        return param
    suffix = {"name": "fn", "username": "un"}.get(pii_field, pii_field)
    if "[em]" in param:
        return param.replace("[em]", "[%s]" % suffix)
    return "%s_%s" % (param, suffix)


def _pii_value(pii: Dict[str, str], pii_field: str) -> Optional[str]:
    value = pii.get(pii_field)
    if value is None:
        return None
    # Trackers normalize emails before hashing (advanced-matching style).
    return value.strip().lower() if pii_field == "email" else value.strip()


def _identifier_params(behavior: LeakBehavior, service: TrackerService,
                       pii: Dict[str, str]) -> List[Tuple[str, str]]:
    """The (param, obfuscated value) pairs a snippet would transmit."""
    base_param = behavior.param or service.default_param
    params: List[Tuple[str, str]] = []
    for chain_index, chain in enumerate(behavior.chains):
        for pii_field in behavior.pii_fields:
            value = _pii_value(pii, pii_field)
            if value is None:
                continue
            if behavior.salt and chain:
                # Salted hashing: the provider derives a private token.
                value = behavior.salt + value
            token = hashes.apply_chain(value, chain)
            params.append((_param_for_field(base_param, pii_field,
                                            chain_index, service), token))
    return params


def _endpoint_host(service: TrackerService, site: Website) -> str:
    """Collection host: cloaked endpoints live on a first-party subdomain."""
    if service.is_cloaked:
        return "%s.%s" % (service.endpoint_host, site.domain)
    return service.endpoint_host


def _uri_request(service: TrackerService, site: Website,
                 params: List[Tuple[str, str]],
                 event: str = "identify") -> EmitRequest:
    url = Url(scheme="https", host=_endpoint_host(service, site),
              path=service.endpoint_path,
              query=tuple([("ev", event)] + params))
    return EmitRequest(method="GET", url=url, resource_type=RESOURCE_IMAGE)


def _payload_request(service: TrackerService, site: Website,
                     behavior: LeakBehavior,
                     params: List[Tuple[str, str]]) -> EmitRequest:
    url = Url(scheme="https", host=_endpoint_host(service, site),
              path=service.endpoint_path, query=(("ev", "identify"),))
    if behavior.payload_format == "json":
        payload = {"event": "identify", "site": site.domain,
                   "properties": dict(params)}
        return EmitRequest(method="POST", url=url, body=encode_json(payload),
                           content_type=CONTENT_JSON,
                           resource_type="xmlhttprequest")
    body = encode_urlencoded([("ev", "identify")] + params)
    return EmitRequest(method="POST", url=url, body=body,
                       content_type=FORM_URLENCODED,
                       resource_type="xmlhttprequest")


def baseline_actions(embed: TrackerEmbed, ctx: ScriptContext) -> List[Action]:
    """Actions every embedded snippet performs on page load.

    A plain event ping (no PII) — the background tracking traffic that
    exists whether or not the site leaks.
    """
    return [EmitRequest("GET", ctx.pings.load, b"", None, RESOURCE_IMAGE)]


def exfil_actions(embed: TrackerEmbed, ctx: ScriptContext) -> List[Action]:
    """Actions when PII is present on the page and the embed leaks it."""
    behavior = embed.leak
    if behavior is None or not ctx.pii:
        return []
    service = embed.service
    params = _identifier_params(behavior, service, ctx.pii)
    if not params:
        return []

    actions: List[Action] = []
    for channel in behavior.channels:
        if channel == CHANNEL_URI:
            actions.append(_uri_request(service, ctx.site, params))
        elif channel == CHANNEL_PAYLOAD:
            actions.append(_payload_request(service, ctx.site, behavior,
                                            params))
        elif channel == CHANNEL_COOKIE:
            # The site-side snippet stores the identifier in a first-party
            # cookie; the beacon to the cloaked subdomain then carries it
            # automatically in the Cookie header (Figure 1.c).
            primary_value = params[0][1]
            actions.append(SetFirstPartyCookie(
                name=behavior.cookie_name, value=primary_value,
                domain=ctx.site.domain))
            actions.append(_beacon_request(ctx))
    if service.persistent:
        actions.append(StoreTrackerState(service_domain=service.domain,
                                         values=tuple(params)))
    return actions


def revisit_actions(embed: TrackerEmbed, ctx: ScriptContext) -> List[Action]:
    """Actions on later pages when a persistent ID is already stored.

    This is the §5.2 tracking cue: the stored identifier is re-emitted on
    *every* page of the sender, including ordinary subpages.
    """
    service = embed.service
    if not service.persistent:
        return []
    stored = ctx.stored_state.get(service.domain)
    if not stored:
        return []
    behavior = embed.leak
    params = list(stored.items())
    if behavior is not None and CHANNEL_PAYLOAD in behavior.channels \
            and CHANNEL_URI not in behavior.channels:
        return [_payload_request(service, ctx.site, behavior, params)]
    if behavior is not None and CHANNEL_COOKIE in behavior.channels:
        # The first-party cookie persists; the beacon keeps carrying it.
        return [_beacon_request(ctx)]
    return [_uri_request(service, ctx.site, params, event="PageView")]
