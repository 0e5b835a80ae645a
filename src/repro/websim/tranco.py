"""Site selection: Tranco-style ranking + category classification (§3.2).

The paper starts from the Tranco top-10,000 list, classifies sites with
the FortiGuard Web Filtering dataset, and keeps the 404 shopping sites
(noting that 95.0% of shopping sites carry authentication flows).  This
module reproduces that acquisition step over the synthetic web:

* :func:`build_tranco_universe` — a deterministic ranked top-N list in
  which the study's 404 shopping domains are embedded among ~9,600
  other-category sites; :func:`shopping_ranks` is its first draw alone,
  the ranks those domains get, for a caller that needs no more;
* :class:`CategoryDataset` — the FortiGuard stand-in: a domain → category
  mapping with the same query surface (classify one domain, count a
  category);
* :func:`select_study_sites` — the §3.2 filter: rank cutoff + category.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

CATEGORY_SHOPPING = "shopping"

#: Non-shopping categories populating the rest of the top list (with
#: rough prevalence weights for a top-10k mix).
_OTHER_CATEGORIES: Tuple[Tuple[str, int], ...] = (
    ("news-and-media", 18),
    ("information-technology", 16),
    ("entertainment", 12),
    ("business", 12),
    ("education", 8),
    ("finance-and-banking", 7),
    ("government", 4),
    ("health", 5),
    ("travel", 5),
    ("social-networking", 4),
    ("sports", 5),
    ("games", 4),
)

_OTHER_STEMS = (
    "daily", "global", "meta", "hyper", "inter", "net", "cloud", "data",
    "info", "web", "core", "open", "next", "first", "prime", "real",
    "true", "blue", "red", "green", "alpha", "omega", "micro", "macro",
)
_OTHER_SUFFIXES = (
    "times", "post", "wire", "hub", "base", "works", "labs", "zone",
    "port", "gate", "desk", "point", "press", "report", "channel",
    "network", "system", "stack", "forge", "space",
)


@dataclass(frozen=True)
class RankedSite:
    """One entry of the ranked list."""

    rank: int
    domain: str
    category: str


class CategoryDataset:
    """FortiGuard-style domain categorization dataset."""

    def __init__(self, assignments: Dict[str, str]) -> None:
        self._assignments = dict(assignments)

    def classify(self, domain: str) -> Optional[str]:
        """Category of a domain, or None when unrated."""
        return self._assignments.get(domain.lower())

    def count(self, category: str) -> int:
        return sum(1 for value in self._assignments.values()
                   if value == category)

    def domains(self, category: str) -> List[str]:
        return sorted(domain for domain, value
                      in self._assignments.items() if value == category)

    def __len__(self) -> int:
        return len(self._assignments)


def _draw_shopping_ranks(rng: random.Random, count: int,
                         total: int) -> List[int]:
    """The universe's first draw: the ranks of ``count`` shopping
    domains, in the order the domains are given."""
    if count >= total:
        raise ValueError("total must exceed the shopping-site count")
    return sorted(rng.sample(range(50, total), count))


def shopping_ranks(count: int, total: int = 10_000,
                   seed: int = 20210501) -> List[int]:
    """The ranks :func:`build_tranco_universe` gives ``count`` shopping
    domains with the same ``total`` and ``seed``, without building the
    rest of the universe."""
    return _draw_shopping_ranks(random.Random(seed), count, total)


def build_tranco_universe(shopping_domains: Sequence[str],
                          total: int = 10_000,
                          seed: int = 20210501) -> Tuple[List[RankedSite],
                                                         CategoryDataset]:
    """A ranked top-``total`` list embedding the study's shopping sites.

    The shopping domains are spread over the rank range the way popular
    shop sites actually sit in Tranco (none in the very top handful, then
    thinly throughout); every other rank is filled with a generated
    domain from the non-shopping category mix.
    """
    rng = random.Random(seed)
    by_rank: Dict[int, Tuple[str, str]] = {}
    for rank, domain in zip(_draw_shopping_ranks(rng, len(shopping_domains),
                                                 total),
                            shopping_domains):
        by_rank[rank] = (domain, CATEGORY_SHOPPING)

    category_pool: List[str] = []
    for category, weight in _OTHER_CATEGORIES:
        category_pool.extend([category] * weight)

    taken = set(shopping_domains)
    ranked: List[RankedSite] = []
    assignments: Dict[str, str] = {}
    for rank in range(1, total + 1):
        if rank in by_rank:
            domain, category = by_rank[rank]
        else:
            while True:
                domain = "%s%s.%s" % (
                    rng.choice(_OTHER_STEMS), rng.choice(_OTHER_SUFFIXES),
                    rng.choice(("com", "com", "org", "net", "io")))
                if domain not in taken:
                    break
                domain = "%s%d.com" % (domain.split(".")[0], rank)
                break
            taken.add(domain)
            category = rng.choice(category_pool)
        ranked.append(RankedSite(rank=rank, domain=domain,
                                 category=category))
        assignments[domain] = category
    return ranked, CategoryDataset(assignments)


def select_study_sites(ranked: Sequence[RankedSite],
                       dataset: CategoryDataset,
                       category: str = CATEGORY_SHOPPING,
                       max_rank: int = 10_000) -> List[str]:
    """The §3.2 selection: top-``max_rank`` sites of one category."""
    return [site.domain for site in ranked
            if site.rank <= max_rank
            and dataset.classify(site.domain) == category]
