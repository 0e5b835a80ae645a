"""CNAME cloaking detection (§4.1).

The paper checks the CNAME records of every subdomain of the visited sites
and matches the answer set against published CNAME-cloaking blocklists
(AdGuard's cname-trackers list and the NextDNS list).  A subdomain whose
chain lands in a known tracker zone is reclassified as *third-party* and
attributed to the tracker that operates the target zone.

This module ships a blocklist modelled on those lists: it covers the cloaked
tracking services relevant to the study — most importantly Adobe Experience
Cloud (``*.omtrdc.net`` / ``*.2o7.net``), the provider behind the paper's
five cookie-channel leaks and the ``adobe_cname`` row of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..psl import default_list
from .resolver import Resolver

#: Cloaking target zones -> operating tracker organisation.  Modelled on the
#: AdGuard cname-trackers and NextDNS cloaking blocklists (June 2021).
DEFAULT_CLOAKING_ZONES: Dict[str, str] = {
    "omtrdc.net": "Adobe",
    "2o7.net": "Adobe",
    "data.adobedc.net": "Adobe",
    "eulerian.net": "Eulerian",
    "at-o.net": "Eulerian",
    "axept.io": "Axeptio",
    "actonservice.com": "Act-On",
    "postclick.io": "Ingenious Technologies",
    "online-metrix.net": "ThreatMetrix",
    "wt-eu02.net": "Webtrekk",
    "webtrekk.net": "Webtrekk",
    "oghub.io": "Oracle",
    "tagcommander.com": "Commanders Act",
    "trackedlink.net": "Dotdigital",
    "dnsdelegation.io": "Criteo",
    "storetail.io": "Criteo",
    "keyade.com": "Keyade",
    "intentmedia.net": "Intent Media",
    "partner.intuit.com": "Intuit",
    "affex.org": "Affex",
}


@dataclass(frozen=True)
class CloakingVerdict:
    """Classification of one first-party subdomain."""

    hostname: str
    cname_chain: Tuple[str, ...]
    cloaked: bool
    tracker_zone: Optional[str] = None
    organisation: Optional[str] = None

    @property
    def effective_domain(self) -> str:
        """Domain to attribute traffic to: tracker zone when cloaked."""
        return self.tracker_zone if self.cloaked else self.hostname


class CnameCloakingDetector:
    """Detects cloaked subdomains by resolving and matching CNAME chains."""

    def __init__(self, resolver: Resolver) -> None:
        self._resolver = resolver
        self._zones = dict(DEFAULT_CLOAKING_ZONES)
        self._psl = default_list()

    def add_zone(self, zone: str, organisation: str) -> None:
        """Register an additional cloaking target zone."""
        self._zones[zone.lower()] = organisation

    def _match_zone(self, name: str) -> Optional[str]:
        name = name.lower()
        for zone in self._zones:
            if name == zone or name.endswith("." + zone):
                return zone
        return None

    def classify(self, hostname: str, site_host: str) -> CloakingVerdict:
        """Classify ``hostname`` (a subdomain of ``site_host``).

        A host is *cloaked* when it is first-party by registrable domain but
        its CNAME chain reaches a known tracker zone.
        """
        chain = self._resolver.cname_chain(hostname)
        if not self._psl.same_party(hostname, site_host):
            # Plain third-party host; cloaking does not apply.
            return CloakingVerdict(hostname=hostname, cname_chain=chain,
                                   cloaked=False)
        for target in chain:
            zone = self._match_zone(target)
            if zone is not None:
                return CloakingVerdict(
                    hostname=hostname, cname_chain=chain, cloaked=True,
                    tracker_zone=zone, organisation=self._zones[zone])
        return CloakingVerdict(hostname=hostname, cname_chain=chain,
                               cloaked=False)

    def cloaked_hosts(self, hostnames: Iterable[str],
                      site_host: str) -> Dict[str, CloakingVerdict]:
        """Classify many subdomains; returns only the cloaked ones."""
        verdicts = {}
        for hostname in hostnames:
            verdict = self.classify(hostname, site_host)
            if verdict.cloaked:
                verdicts[hostname] = verdict
        return verdicts
