"""The calibrated Tranco-shopping-site study population (§3.2).

Builds the full 404-site universe the paper crawled:

* 22 unreachable sites, 19 without authentication flows, 56 whose policies
  block sign-up (47 phone verification, 6 identity documents, 3 region
  locked) — none of them crawlable to completion;
* 307 sites with successful flows, 68 of which require e-mail confirmation
  and 43 of which deploy bot detection;
* 130 of the successful sites leak PII according to the calibrated plan
  (:mod:`repro.websim.calibration`), including ``loccitane.com`` (16
  receivers, the maximum) and ``nykaa.com`` (whose CAPTCHA provider Brave
  blocks);
* first-party marketing-mail volumes totalling 2,172 inbox and 141 spam
  messages across the successful sites (§4.2.3);
* Table 3 privacy-policy disclosure classes over the 130 leaking sites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.persona import DEFAULT_PERSONA, Persona
from .consent import CMP_PROVIDERS, ConsentBanner
from .calibration import (
    ADOBE_COOKIE_SLOTS,
    CalibratedPlan,
    EdgeSpec,
    N_SENDERS,
    REFERER_SLOTS,
    SLOT_LOCCITANE,
    SLOT_NYKAA,
    build_plan,
)
from .population import Population
from .tranco import (
    CategoryDataset,
    RankedSite,
    build_tranco_universe,
    shopping_ranks,
)
from .site import (
    BLOCK_IDENTITY,
    BLOCK_PHONE,
    BLOCK_REGION,
    LeakBehavior,
    SiteAuthConfig,
    TrackerEmbed,
    Website,
)
from .trackers import (
    _FILLER_DOMAINS,
    TrackerCatalog,
    build_default_catalog,
)

_SEED = 20210501  # the paper's crawl month

# Table 3 disclosure classes (also used by repro.policy).
POLICY_NOT_SPECIFIC = "disclose_not_specific"
POLICY_SPECIFIC = "disclose_specific"
POLICY_NO_DESCRIPTION = "no_description"
POLICY_NOT_SHARED = "explicitly_not_shared"

POLICY_CLASSES = (POLICY_NOT_SPECIFIC, POLICY_SPECIFIC,
                  POLICY_NO_DESCRIPTION, POLICY_NOT_SHARED)

_ADJECTIVES = (
    "aurora", "lumen", "vista", "cedar", "ember", "harbor", "indigo",
    "juniper", "karmin", "lively", "meadow", "noble", "opal", "prime",
    "quaint", "rustic", "solstice", "tidal", "urban", "velvet", "willow",
    "zephyr", "amber", "breeze", "coral", "dapper", "everly", "fable",
    "golden", "hazel", "ivory", "jade", "kindred", "linen", "mosaic",
    "nectar", "orchid", "pearl", "quill", "raven", "sable", "thistle",
)
_NOUNS = (
    "boutique", "market", "outfitters", "emporium", "goods", "supply",
    "wares", "bazaar", "collective", "mercantile", "trading", "closet",
    "attic", "cellar", "garden", "kitchen", "threads", "soles", "lane",
    "alley", "corner", "stylehouse", "depot", "gallery", "pantry",
)
_TLDS = ("com", "com", "com", "com", "net", "shop", "store", "io",
         "co.uk", "co.jp", "de", "fr", "com.au")


def _generate_domains(count: int, rng: random.Random,
                      taken: set) -> List[str]:
    domains: List[str] = []
    while len(domains) < count:
        name = "%s%s" % (rng.choice(_ADJECTIVES), rng.choice(_NOUNS))
        tld = rng.choice(_TLDS)
        domain = "%s.%s" % (name, tld)
        if domain in taken:
            continue
        taken.add(domain)
        domains.append(domain)
    return domains


@dataclass
class StudySpec:
    """The built population plus the plan it realizes."""

    population: Population
    plan: CalibratedPlan
    slot_domains: List[str]                   # sender slot -> domain
    leaking_domains: List[str]                # the 130
    referer_receiver_domains: List[str]       # the 7 passive receivers
    nonleaking_successful: List[str]
    _universe: Optional[Tuple[List[RankedSite], CategoryDataset]] = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def catalog(self) -> TrackerCatalog:
        return self.population.catalog

    # The §3.2 acquisition context: the ranked top-10k universe the 404
    # shopping sites were selected from, plus the category dataset.  Only
    # the selection report reads it, so it is built on first read; each
    # site's ``tranco_rank`` already holds its rank in it.

    @property
    def tranco(self) -> List[RankedSite]:
        return self._acquisition()[0]

    @property
    def categories(self) -> CategoryDataset:
        return self._acquisition()[1]

    def _acquisition(self) -> Tuple[List[RankedSite], CategoryDataset]:
        if self._universe is None:
            self._universe = build_tranco_universe(
                list(self.population.sites))
        return self._universe


def _leak_behavior(edge: EdgeSpec) -> LeakBehavior:
    return LeakBehavior(channels=edge.channels, chains=edge.chains,
                        pii_fields=edge.pii_fields, param=edge.param,
                        payload_format=edge.payload_format)


def _consent_banner(index: int, rng: random.Random) -> Optional[ConsentBanner]:
    """Banner assignment: ~60% of sites run a CMP; roughly one in twelve
    of those is a dark-pattern operator whose trackers ignore refusals
    (the §6 observation that consent flows manipulate users)."""
    if rng.random() >= 0.6:
        return None
    provider = sorted(CMP_PROVIDERS)[index % len(CMP_PROVIDERS)]
    honors = rng.random() >= 0.08
    return ConsentBanner(provider=provider, honors_consent=honors)


def _benign_embeds(catalog: TrackerCatalog,
                   rng: random.Random) -> List[TrackerEmbed]:
    from .trackers import BENIGN_SERVICES
    count = rng.randint(1, 2)
    picks = rng.sample(range(len(BENIGN_SERVICES)), count)
    return [TrackerEmbed(service=catalog.get(BENIGN_SERVICES[i].domain))
            for i in picks]


def _nonleaking_tracker_embeds(catalog: TrackerCatalog, rng: random.Random,
                               exclude: set) -> List[TrackerEmbed]:
    """2-4 ordinary (non-leaking) tracker embeds for a site."""
    common = ("facebook.com", "google-analytics.com", "doubleclick.net",
              "hotjar.com", "criteo.com", "pinterest.com", "twitter.com",
              "yandex.ru", "taboola.com")
    choices = [domain for domain in common if domain not in exclude]
    count = min(rng.randint(2, 4), len(choices))
    picks = rng.sample(choices, count)
    return [TrackerEmbed(service=catalog.get(domain)) for domain in picks]


def build_study_population(persona: Optional[Persona] = None) -> StudySpec:
    """Construct the full, calibrated §3.2 population."""
    rng = random.Random(_SEED)
    catalog = build_default_catalog()
    plan = build_plan(_FILLER_DOMAINS)

    consumed_fillers = {r for r in plan.receivers() if r in _FILLER_DOMAINS}
    spare_fillers = [d for d in _FILLER_DOMAINS
                     if d not in consumed_fillers]
    referer_receivers = spare_fillers[:7]

    taken = {"loccitane.com", "nykaa.com"}
    sender_domains = _generate_domains(N_SENDERS - 2, rng, taken)
    slot_domains: List[str] = []
    generated = iter(sender_domains)
    for slot in range(N_SENDERS):
        if slot == SLOT_LOCCITANE:
            slot_domains.append("loccitane.com")
        elif slot == SLOT_NYKAA:
            slot_domains.append("nykaa.com")
        else:
            slot_domains.append(next(generated))

    sites: Dict[str, Website] = {}

    # ---- the 130 leaking senders ----------------------------------------
    edges_by_slot: Dict[int, List[EdgeSpec]] = {}
    for edge in plan.edges:
        edges_by_slot.setdefault(edge.sender_slot, []).append(edge)

    # Referer receiver assignment: 3 + 2 + 2 across the GET-form sites.
    referer_split = (referer_receivers[:3], referer_receivers[3:5],
                     referer_receivers[5:7])

    confirmation_slots = set(range(3, 33))     # 30 of the leaking sites
    bot_slots = set(range(33, 53))             # 20 of the leaking sites

    for slot in range(N_SENDERS):
        domain = slot_domains[slot]
        embeds: List[TrackerEmbed] = []
        seen_services = set()
        for edge in edges_by_slot.get(slot, []):
            service = catalog.get(edge.receiver)
            embeds.append(TrackerEmbed(service=service,
                                       leak=_leak_behavior(edge)))
            seen_services.add(edge.receiver)
        auth = SiteAuthConfig(
            requires_email_confirmation=slot in confirmation_slots,
            bot_detection=slot in bot_slots,
            captcha_blocks_brave=slot == SLOT_NYKAA,
        )
        if slot in REFERER_SLOTS:
            # Accidental leakage: newsletter-style GET form, and the
            # receivers are ordinary embeds that see the PII-bearing URL
            # in their Referer header.
            auth.signup_method = "GET"
            auth.signup_fields = ("email", "password")
            for receiver in referer_split[REFERER_SLOTS.index(slot)]:
                embeds.append(TrackerEmbed(service=catalog.get(receiver)))
                seen_services.add(receiver)
        if slot not in REFERER_SLOTS:
            # The GET-form sites get no extra embeds: every third party on
            # their post-submit page receives the Referer leak, and the
            # paper attributes exactly seven receivers to this channel.
            embeds.extend(_benign_embeds(catalog, rng))
        cname_records: Dict[str, str] = {}
        if slot in ADOBE_COOKIE_SLOTS:
            cname_records["metrics"] = "%s.sc.omtrdc.net" % domain
        # The GET-form sites run no CMP: any extra embed on their
        # post-submit page would become an additional (uncalibrated)
        # referer receiver.
        banner = (None if slot in REFERER_SLOTS
                  else _consent_banner(slot, rng))
        sites[domain] = Website(domain=domain, auth=auth, embeds=embeds,
                                tranco_rank=100 + slot * 37,
                                cname_records=cname_records,
                                consent=banner)

    leaking_domains = [slot_domains[slot] for slot in range(N_SENDERS)]

    # Table 3 policy classes over the leaking senders: 102/9/15/4.
    policy_assignment = ([POLICY_SPECIFIC] * 9 +
                         [POLICY_NO_DESCRIPTION] * 15 +
                         [POLICY_NOT_SHARED] * 4 +
                         [POLICY_NOT_SPECIFIC] * 102)
    for domain, policy_class in zip(leaking_domains, policy_assignment):
        sites[domain].policy_class = policy_class

    # ---- 177 successful sites that do not leak --------------------------
    nonleaking = _generate_domains(177, rng, taken)
    for index, domain in enumerate(nonleaking):
        auth = SiteAuthConfig(
            requires_email_confirmation=index < 38,
            bot_detection=38 <= index < 61,
        )
        embeds = _nonleaking_tracker_embeds(catalog, rng, exclude=set())
        embeds.extend(_benign_embeds(catalog, rng))
        sites[domain] = Website(domain=domain, auth=auth, embeds=embeds,
                                tranco_rank=150 + index * 41,
                                policy_class=POLICY_CLASSES[index % 4],
                                consent=_consent_banner(index, rng))

    # ---- the 97 sites excluded during data acquisition -------------------
    for domain in _generate_domains(22, rng, taken):
        sites[domain] = Website(domain=domain,
                                auth=SiteAuthConfig(unreachable=True))
    for domain in _generate_domains(19, rng, taken):
        sites[domain] = Website(domain=domain,
                                auth=SiteAuthConfig(has_auth=False))
    block_reasons = ([BLOCK_PHONE] * 47 + [BLOCK_IDENTITY] * 6 +
                     [BLOCK_REGION] * 3)
    for domain, reason in zip(_generate_domains(56, rng, taken),
                              block_reasons):
        sites[domain] = Website(domain=domain,
                                auth=SiteAuthConfig(signup_block=reason))

    # ---- marketing mail volumes (§4.2.3): 2,172 inbox + 141 spam --------
    successful = leaking_domains + nonleaking
    for index, domain in enumerate(successful):
        inbox = 7 + (1 if index < 23 else 0)
        spam = 3 if 10 <= index < 57 else 0
        sites[domain].marketing_mail = (inbox, spam)

    # ---- §3.2 acquisition context: each study site's rank in the
    # Tranco-style top-10k universe (see StudySpec.tranco).
    for site, rank in zip(sites.values(), shopping_ranks(len(sites))):
        site.tranco_rank = rank

    population = Population(sites=sites, catalog=catalog,
                            persona=persona or DEFAULT_PERSONA)
    return StudySpec(population=population, plan=plan,
                     slot_domains=slot_domains,
                     leaking_domains=leaking_domains,
                     referer_receiver_domains=referer_receivers,
                     nonleaking_successful=nonleaking)
