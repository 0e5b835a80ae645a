"""The assembled synthetic web: sites + trackers + DNS.

A :class:`Population` bundles everything a crawl needs — the website
universe, the tracker catalog, and a DNS zone with A records for every
origin plus the CNAME records that implement cloaked trackers — and knows
how to construct the :class:`~repro.websim.server.WebServer` and
:class:`~repro.dnssim.Resolver` views over itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.persona import DEFAULT_PERSONA, Persona
from ..dnssim import FlakyResolver, Resolver, Zone
from ..netsim.faults import FaultPlan
from .faults import wrap_server
from .server import CAPTCHA_PROVIDER, MailHook, WebServer
from .site import Website
from .trackers import TrackerCatalog


@dataclass
class Population:
    """A complete, crawlable synthetic web."""

    sites: Dict[str, Website]
    catalog: TrackerCatalog
    persona: Persona = field(default_factory=lambda: DEFAULT_PERSONA)
    zone: Zone = field(default_factory=Zone)

    def __post_init__(self) -> None:
        if not self.zone.records:
            self.zone = build_zone(self.sites, self.catalog)

    def resolver(self, fault_plan: Optional[FaultPlan] = None) -> Resolver:
        """The population's resolver, optionally made flaky by a plan."""
        resolver = Resolver(self.zone)
        if fault_plan is not None:
            return FlakyResolver(resolver, fault_plan)
        return resolver

    def build_server(self, mail_hook: Optional[MailHook] = None,
                     fault_plan: Optional[FaultPlan] = None) -> WebServer:
        """The population's origin server, optionally fault-injected."""
        server = WebServer(sites=self.sites, catalog=self.catalog,
                           mail_hook=mail_hook)
        return wrap_server(server, fault_plan)

    def site_list(self) -> List[Website]:
        return list(self.sites.values())


def build_zone(sites: Dict[str, Website], catalog: TrackerCatalog) -> Zone:
    """DNS data for every origin in the population.

    Each site gets A records for its apex and ``www`` host; cloaked
    subdomains get CNAME records pointing into the tracker zone (with the
    tracker-side target itself resolvable).  Every tracker endpoint and
    script host gets an A record.
    """
    zone = Zone()
    for site in sites.values():
        zone.add_a(site.domain)
        zone.add_a(site.www_host)
        for label, target in site.cname_records.items():
            zone.add_cname("%s.%s" % (label, site.domain), target)
            zone.add_a(target)
    for service in catalog.services():
        zone.add_a(service.script_host)
        zone.add_a(service.domain)
        if not service.is_cloaked:
            # Cloaked endpoints live on first-party subdomains (added above).
            zone.add_a(service.endpoint_host)
    zone.add_a("ct.%s" % CAPTCHA_PROVIDER)
    zone.add_a(CAPTCHA_PROVIDER)
    from .consent import CMP_PROVIDERS
    for provider in CMP_PROVIDERS:
        zone.add_a(provider)
        zone.add_a("cdn.%s" % provider)
        zone.add_a("consent.%s" % provider)
    return zone
