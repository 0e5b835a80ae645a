"""Third-party tracker catalog.

Every third-party *receiver* in the study is modelled as a
:class:`TrackerService`: where its snippet is served from, where its
collection endpoint lives, whether it stores the leaked identifier
persistently (the §5.2 behaviour: the ID re-appears on every subpage), and
whether it is reached through CNAME cloaking.

The twenty persistent tracking providers of Table 2 are transcribed with
their real endpoints and trackid parameter names; the remaining receivers
(ad platforms, martech/CDP vendors, and the eight services Brave's Shields
misses) are modelled generically.  The catalog also maps request hosts back
to services — the entity-mapping step every measurement pipeline needs
(compare Disconnect's entity list).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..psl import default_list


@dataclass(frozen=True)
class TrackerService:
    """One third-party service that can receive traffic (and maybe PII)."""

    domain: str                      # receiver identity (paper's "domain")
    organisation: str
    endpoint_host: str               # host collecting events/PII
    endpoint_path: str               # collection path
    script_host: str                 # host serving the JS snippet
    script_path: str                 # snippet path
    persistent: bool = False         # Table 2 provider: ID used on subpages
    cloaked_zone: Optional[str] = None  # CNAME target zone when cloaked
    default_param: str = "uid"       # canonical trackid parameter
    sets_cookie: bool = True         # sets its own third-party cookie

    @property
    def is_cloaked(self) -> bool:
        return self.cloaked_zone is not None


def _service(domain: str, organisation: str, endpoint_host: str,
             endpoint_path: str, param: str = "uid",
             script_host: Optional[str] = None,
             script_path: str = "/tag.js", persistent: bool = False,
             cloaked_zone: Optional[str] = None,
             sets_cookie: bool = True) -> TrackerService:
    return TrackerService(
        domain=domain, organisation=organisation,
        endpoint_host=endpoint_host, endpoint_path=endpoint_path,
        script_host=script_host or endpoint_host, script_path=script_path,
        persistent=persistent, cloaked_zone=cloaked_zone,
        default_param=param, sets_cookie=sets_cookie)


# --------------------------------------------------------------------------
# The 20 persistent tracking providers of Table 2.
# --------------------------------------------------------------------------

TABLE2_SERVICES: Tuple[TrackerService, ...] = (
    _service("facebook.com", "Facebook", "www.facebook.com", "/tr",
             param="udff[em]", script_host="connect.facebook.net",
             script_path="/en_US/fbevents.js", persistent=True),
    _service("criteo.com", "Criteo", "widget.criteo.com", "/event",
             param="p0", script_host="static.criteo.net",
             script_path="/js/ld/ld.js", persistent=True),
    _service("pinterest.com", "Pinterest", "ct.pinterest.com", "/v3/user",
             param="pd", script_host="s.pinimg.com",
             script_path="/ct/core.js", persistent=True),
    _service("snapchat.com", "Snap", "tr.snapchat.com", "/p",
             param="u_hem", script_host="sc-static.net",
             script_path="/scevent.min.js", persistent=True),
    _service("cquotient.com", "Salesforce CQ", "cq.cquotient.com",
             "/pixel", param="emailId", persistent=True),
    _service("bluecore.com", "Bluecore", "api.bluecore.com",
             "/api/track/mobile/v1", param="data", persistent=True),
    _service("klaviyo.com", "Klaviyo", "a.klaviyo.com", "/api/track",
             param="data", script_host="static.klaviyo.com",
             script_path="/onsite/js/klaviyo.js", persistent=True),
    _service("oracleinfinity.io", "Oracle", "dc.oracleinfinity.io",
             "/v3/collect", param="email_hash", persistent=True),
    _service("rlcdn.com", "LiveRamp", "api.rlcdn.com", "/api/segment",
             param="s", persistent=True),
    _service("omtrdc.net", "Adobe", "metrics", "/b/ss", param="v1",
             script_host="assets.adobedtm.com", script_path="/launch.js",
             persistent=True, cloaked_zone="omtrdc.net"),
    _service("castle.io", "Castle", "api.castle.io", "/v1/monitor",
             param="up", persistent=True),
    _service("custora.com", "Custora", "api.custora.com", "/v1/track",
             param="uid", persistent=True),
    _service("dotomi.com", "Conversant", "apps.dotomi.com", "/profile",
             param="dtm_email_hash", persistent=True),
    _service("inside-graph.com", "Inside", "collect.inside-graph.com",
             "/ig", param="md", persistent=True),
    _service("krxd.net", "Salesforce DMP", "beacon.krxd.net", "/event",
             param="_kua_email_sha256", persistent=True),
    _service("pxf.io", "Impact", "events.pxf.io", "/events",
             param="custemail", persistent=True),
    _service("taboola.com", "Taboola", "trc.taboola.com", "/tb",
             param="eflp", persistent=True),
    _service("thebrighttag.com", "Signal", "s.thebrighttag.com", "/tag",
             param="_cb_bt_data", persistent=True),
    _service("yahoo.com", "Verizon Media", "sp.analytics.yahoo.com", "/sp",
             param="he", persistent=True),
    _service("zendesk.com", "Zendesk", "api.zendesk.com", "/embeddable",
             param="data", persistent=True),
)

#: Alternate trackid parameters per Table 2 (shown when multiple exist).
ALT_PARAMS: Dict[str, Tuple[str, ...]] = {
    "facebook.com": ("udff[em]", "ud[em]"),
    "criteo.com": ("p0", "p1"),
    "oracleinfinity.io": ("email_hash", "ora.email"),
    "custora.com": ("uid", "_custrack1_identified"),
    "omtrdc.net": ("v1", "v22"),
}

# --------------------------------------------------------------------------
# Advertising platforms that receive PII without a stable trackid parameter
# (they appear in Figure 2 but not in Table 2).
# --------------------------------------------------------------------------

AD_PLATFORM_SERVICES: Tuple[TrackerService, ...] = (
    _service("google-analytics.com", "Google", "www.google-analytics.com",
             "/collect", param="uid"),
    _service("doubleclick.net", "Google", "stats.g.doubleclick.net",
             "/j/collect", param="em"),
    _service("googleadservices.com", "Google", "www.googleadservices.com",
             "/pagead/conversion", param="em"),
    _service("bing.com", "Microsoft", "bat.bing.com", "/action",
             param="em"),
    _service("tiktok.com", "TikTok", "analytics.tiktok.com",
             "/api/v2/pixel", param="email"),
    _service("yandex.ru", "Yandex", "mc.yandex.ru", "/watch",
             param="params"),
    _service("amazon-adsystem.com", "Amazon", "s.amazon-adsystem.com",
             "/iu3", param="pd"),
    _service("twitter.com", "Twitter", "analytics.twitter.com",
             "/i/adsct", param="p_user_id"),
)

# --------------------------------------------------------------------------
# The eight services missed by Brave Shields v1.29.81 (paper footnote 4).
# zendesk.com is both a Table 2 provider and a Brave miss.
# --------------------------------------------------------------------------

BRAVE_MISSED_DOMAINS: Tuple[str, ...] = (
    "aliyun.com", "cartsync.io", "gravatar.com", "herokuapp.com",
    "intercom.io", "lmcdn.ru", "okta-emea.com", "zendesk.com",
)

_BRAVE_MISSED_SERVICES: Tuple[TrackerService, ...] = (
    _service("aliyun.com", "Alibaba Cloud", "log.aliyun.com", "/track",
             param="uid"),
    _service("cartsync.io", "CartSync", "sync.cartsync.io", "/v1/sync",
             param="email"),
    _service("gravatar.com", "Automattic", "www.gravatar.com", "/avatar",
             param="d"),
    _service("herokuapp.com", "Heroku-hosted app", "pixel-sync.herokuapp.com",
             "/collect", param="email"),
    _service("intercom.io", "Intercom", "api-iam.intercom.io", "/messenger",
             param="user_data"),
    _service("lmcdn.ru", "LiveMaster", "static.lmcdn.ru", "/px",
             param="e"),
    _service("okta-emea.com", "Okta", "login.okta-emea.com", "/api/v1/authn",
             param="username"),
)

# --------------------------------------------------------------------------
# Generic martech / analytics fillers (receivers beyond the named ones).
# --------------------------------------------------------------------------

_FILLER_DOMAINS: Tuple[str, ...] = (
    "adroll.com", "outbrain.com", "quantserve.com", "scorecardresearch.com",
    "hotjar.com", "mouseflow.com", "fullstory.com", "segment.io",
    "mixpanel.com", "amplitude.com", "branch.io", "braze.com",
    "iterable.com", "sailthru.com", "listrak.com", "attentivemobile.com",
    "yotpo.com", "gorgias.com", "dynamicyield.com", "nosto.com",
    "emarsys.com", "exponea.com", "insider.com", "moengage.com",
    "clevertap.com", "leanplum.com", "airship.com", "onesignal.com",
    "pushwoosh.com", "exacttarget.com", "responsys.net", "silverpop.com",
    "dotdigital.com", "omnisend.com", "drip.com", "convertkit.com",
    "activehosted.com", "getresponse.com", "sendinblue.com", "mailchimp.com",
    "hubspot.com", "marketo.net", "pardot.com", "eloqua.com",
    "salesloft.com", "drift.com", "zoominfo.com", "clearbit.com",
    "fouanalytics.com", "heap.io", "pendo.io", "logrocket.com",
    "smartlook.com", "inspectlet.com", "luckyorange.com", "crazyegg.com",
    "vwo.com", "optimizely.com", "abtasty.com", "kameleoon.com",
    "monetate.net", "qubit.com", "evergage.com", "bounceexchange.com",
    "justuno.com", "privy.com", "sumo.com", "optinmonster.com",
)


def _filler_service(domain: str) -> TrackerService:
    label = domain.split(".")[0]
    return _service(domain, label.capitalize(), "events.%s" % domain,
                    "/collect", param="uid")


# --------------------------------------------------------------------------
# Benign third parties (CDNs, fonts) that never receive PII — negative
# traffic for the detector and the blocklists.
# --------------------------------------------------------------------------

BENIGN_SERVICES: Tuple[TrackerService, ...] = (
    _service("jsdelivr.net", "jsDelivr CDN", "cdn.jsdelivr.net",
             "/npm/app.js", sets_cookie=False),
    _service("googleapis.com", "Google Fonts", "fonts.googleapis.com",
             "/css", sets_cookie=False),
    _service("cloudflare.com", "Cloudflare", "cdnjs.cloudflare.com",
             "/ajax/libs/jquery.js", sets_cookie=False),
    _service("shopifycdn.com", "Shopify CDN", "cdn.shopifycdn.com",
             "/assets/storefront.js", sets_cookie=False),
)


class TrackerCatalog:
    """Registry of tracker services with host -> service attribution."""

    def __init__(self, services: Iterable[TrackerService] = ()) -> None:
        self._by_domain: Dict[str, TrackerService] = {}
        # host -> attribution memo; every captured request host is
        # attributed (often several times), and the linear suffix scan
        # over the whole service universe is the price worth paying
        # exactly once per distinct host.  Invalidated on `add`.
        self._host_cache: Dict[str, Optional[TrackerService]] = {}
        for service in services:
            self.add(service)

    def add(self, service: TrackerService) -> None:
        if service.domain in self._by_domain:
            raise ValueError("duplicate service: %s" % service.domain)
        self._by_domain[service.domain] = service
        self._host_cache.clear()

    def get(self, domain: str) -> TrackerService:
        return self._by_domain[domain]

    def has(self, domain: str) -> bool:
        return domain in self._by_domain

    def domains(self) -> List[str]:
        return list(self._by_domain)

    def services(self) -> List[TrackerService]:
        return list(self._by_domain.values())

    def attribute_host(self, host: str) -> Optional[TrackerService]:
        """Map a request host to the service operating it.

        Tries suffix matching against each service's domain and hosts first
        (the entity-list approach), then falls back to the registrable
        domain.  Returns None for hosts no service claims.
        """
        host = host.lower()
        if host in self._host_cache:
            return self._host_cache[host]
        attributed: Optional[TrackerService] = None
        for service in self._by_domain.values():
            candidates = (service.domain, service.endpoint_host,
                          service.script_host)
            for candidate in candidates:
                if host == candidate or host.endswith("." + candidate):
                    attributed = service
                    break
            if attributed is not None:
                break
        if attributed is None:
            registrable = default_list().registrable_domain(host)
            if registrable and registrable in self._by_domain:
                attributed = self._by_domain[registrable]
        self._host_cache[host] = attributed
        return attributed


def build_default_catalog() -> TrackerCatalog:
    """The full service universe used by the calibrated study."""
    catalog = TrackerCatalog()
    for service in TABLE2_SERVICES:
        catalog.add(service)
    for service in AD_PLATFORM_SERVICES:
        catalog.add(service)
    for service in _BRAVE_MISSED_SERVICES:
        catalog.add(service)
    for domain in _FILLER_DOMAINS:
        catalog.add(_filler_service(domain))
    for service in BENIGN_SERVICES:
        catalog.add(service)
    return catalog

