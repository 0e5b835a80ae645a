"""Browser protection profiles (§7.1).

Models the privacy posture of the five browsers the paper evaluates, as
shipped in their vanilla configurations circa 2021:

* **Chrome 93 / Opera 79** — no tracking protection by default.
* **Safari 14 (ITP)** — blocks third-party cookies and partitions
  third-party storage; does *not* block tracker requests.
* **Firefox 88 (ETP off — the measurement profile) / Firefox 73 (ETP)** —
  ETP blocks cookies for known trackers; requests still leave the browser.
* **Brave 1.29 (Shields)** — blocks requests to known tracking domains
  outright (including CNAME-uncloaked ones), with the eight published
  misses from the paper's footnote 4.

Only Brave's request blocking can stop PII exfiltration; the cookie-level
defences of the others leave the leak channels untouched — exactly the
paper's finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Optional, Tuple

from ..websim.trackers import BRAVE_MISSED_DOMAINS, TrackerCatalog

# Cookie policies.
COOKIES_ALLOW_ALL = "allow-all"
COOKIES_BLOCK_THIRD_PARTY = "block-third-party"
COOKIES_BLOCK_KNOWN_TRACKERS = "block-known-trackers"
COOKIES_PARTITION_THIRD_PARTY = "partition-third-party"

# Referer policies (2021-era defaults).
REFERER_FULL_URL = "no-referrer-when-downgrade"
REFERER_STRICT_ORIGIN = "strict-origin-when-cross-origin"


@dataclass(frozen=True)
class BrowserProfile:
    """Privacy-relevant configuration of one browser."""

    name: str
    version: str
    cookie_policy: str = COOKIES_ALLOW_ALL
    referer_policy: str = REFERER_FULL_URL
    #: Tracker domains whose *requests* are blocked (Brave Shields).
    request_blocklist: FrozenSet[str] = frozenset()
    #: Whether CNAME chains are uncloaked before blocklist matching.
    uncloaks_cname: bool = False
    #: Known-tracker domains whose cookies are stripped (Firefox ETP).
    tracker_cookie_blocklist: FrozenSet[str] = frozenset()
    #: Whether the crawl through this browser is automation-detectable.
    automation_detectable: bool = False

    def blocks_request_to(self, domain: str) -> bool:
        """Whether Shields-style blocking suppresses requests to ``domain``."""
        return domain in self.request_blocklist

    def blocks_third_party_cookie(self, tracker_domain: str) -> bool:
        if self.cookie_policy == COOKIES_BLOCK_THIRD_PARTY:
            return True
        if self.cookie_policy == COOKIES_BLOCK_KNOWN_TRACKERS:
            return tracker_domain in self.tracker_cookie_blocklist
        return False

    @property
    def partitions_third_party_storage(self) -> bool:
        return self.cookie_policy == COOKIES_PARTITION_THIRD_PARTY

    @cached_property
    def user_agent_field(self) -> Tuple[str, str]:
        """The ``User-Agent`` header field every request sends: built once
        per profile, so all captured requests share one field."""
        return ("User-Agent", "Mozilla/5.0 (compatible; %s/%s; repro-study)"
                % (self.name, self.version))


def vanilla_firefox() -> BrowserProfile:
    """Firefox 88, ETP turned off — the paper's measurement profile (§3.2)."""
    return BrowserProfile(name="firefox", version="88",
                          cookie_policy=COOKIES_ALLOW_ALL,
                          referer_policy=REFERER_FULL_URL)


def chrome() -> BrowserProfile:
    """Chrome 93 vanilla."""
    return BrowserProfile(name="chrome", version="93",
                          cookie_policy=COOKIES_ALLOW_ALL)


def opera() -> BrowserProfile:
    """Opera 79 vanilla."""
    return BrowserProfile(name="opera", version="79",
                          cookie_policy=COOKIES_ALLOW_ALL)


def safari(catalog: Optional[TrackerCatalog] = None) -> BrowserProfile:
    """Safari 14 with Intelligent Tracking Prevention defaults.

    Since ITP's "full third-party cookie blocking" (Safari 13.1) the
    third-party *cookie* jar is simply off; the partitioning applies to
    other storage, which this simulator already keys per top-level site.
    """
    return BrowserProfile(name="safari", version="14.0.3",
                          cookie_policy=COOKIES_BLOCK_THIRD_PARTY)


def firefox_etp(catalog: TrackerCatalog) -> BrowserProfile:
    """Firefox 73 with Enhanced Tracking Protection (standard)."""
    known_trackers = frozenset(
        s.domain for s in catalog.services() if s.sets_cookie)
    return BrowserProfile(name="firefox-etp", version="73",
                          cookie_policy=COOKIES_BLOCK_KNOWN_TRACKERS,
                          tracker_cookie_blocklist=known_trackers)


def brave(catalog: TrackerCatalog) -> BrowserProfile:
    """Brave 1.29.81 with Shields up.

    Blocks requests to every known tracking domain in the catalog except
    the eight services its lists missed at that version (footnote 4), and
    uncloaks CNAMEs before matching.
    """
    missed = set(BRAVE_MISSED_DOMAINS)
    blocklist = frozenset(
        s.domain for s in catalog.services()
        if s.sets_cookie and s.domain not in missed)
    # Shields also blocks the DataDome-style CAPTCHA widget, which is what
    # breaks the nykaa.com sign-up flow in the paper.
    from ..websim.server import CAPTCHA_PROVIDER
    blocklist = blocklist.union({CAPTCHA_PROVIDER})
    return BrowserProfile(name="brave", version="1.29.81",
                          cookie_policy=COOKIES_BLOCK_THIRD_PARTY,
                          request_blocklist=blocklist,
                          uncloaks_cname=True)


def evaluation_profiles(catalog: TrackerCatalog) -> Tuple[BrowserProfile, ...]:
    """The §7.1 line-up: Chrome, Opera, Safari, Firefox (ETP), Brave."""
    return (chrome(), opera(), safari(), firefox_etp(catalog),
            brave(catalog))
