"""Deterministic site sharding for parallel crawls.

A shard layout partitions a population's site list into ``num_shards``
disjoint, *stable* shards: a site's shard is a pure function of its
domain (a hash), never of arrival order, so the same population always
produces the same layout regardless of dict ordering, insertion history
or worker count.  Within a shard, sites are visited in hash order for the
same reason — two processes that agree on ``(domains, num_shards)`` agree
on every shard's exact site sequence.

The layout is the unit the determinism contract is stated over (see
``docs/ARCHITECTURE.md`` and DESIGN.md §"Reproducibility"): a parallel
crawl's merged fingerprint is a function of ``(seed, layout)`` only, so
it is invariant to how many workers execute the shards.  The layout
digest is stamped into every per-shard checkpoint so a resume against a
*different* layout fails loudly instead of silently crawling the wrong
site list.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

#: Default upper bound on the number of shards (see
#: :func:`default_shard_count`).  Deliberately independent of the worker
#: count: more workers must never change the layout, or fingerprints
#: would stop being comparable across machines.
DEFAULT_SHARD_CAP = 16


def _domain_hash(domain: str) -> str:
    """Stable hex digest a domain is ordered and sharded by."""
    return hashlib.sha256(("shard:%s" % domain).encode("utf-8")).hexdigest()


def stable_site_order(domains: Iterable[str]) -> List[str]:
    """``domains`` sorted into the canonical (hash, domain) crawl order.

    Raises :class:`ValueError` if a domain appears twice — a duplicated
    site would be crawled twice in one layout and break the merge.
    """
    domains = list(domains)
    if len(set(domains)) != len(domains):
        raise ValueError("duplicate domains in site list")
    return sorted(domains, key=lambda domain: (_domain_hash(domain), domain))


def default_shard_count(site_count: int) -> int:
    """The shard count used when the caller does not pick one.

    ``min(DEFAULT_SHARD_CAP, site_count)`` (at least 1): small
    populations get one site-bearing shard each; large ones get
    :data:`DEFAULT_SHARD_CAP` shards.  A pure
    function of the population size — never of the worker count — so the
    default layout, and therefore the crawl fingerprint, is stable across
    machines with different parallelism.
    """
    return max(1, min(DEFAULT_SHARD_CAP, site_count))


def shard_domains(domains: Iterable[str],
                  num_shards: Optional[int] = None) -> List[List[str]]:
    """Partition ``domains`` into ``num_shards`` stable shards.

    A domain lands in shard ``int(sha256(domain)) % num_shards`` and
    shards are internally ordered by :func:`stable_site_order`.  Returns
    a list of ``num_shards`` lists (some possibly empty).  Raises
    :class:`ValueError` on a non-positive shard count or duplicate
    domains.
    """
    ordered = stable_site_order(domains)
    if num_shards is None:
        num_shards = default_shard_count(len(ordered))
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    shards: List[List[str]] = [[] for _ in range(num_shards)]
    for domain in ordered:
        shards[int(_domain_hash(domain), 16) % num_shards].append(domain)
    return shards


@dataclass(frozen=True)
class ShardInfo:
    """Identity of one shard inside a concrete layout.

    Stored on every sharded :class:`~repro.crawler.CrawlSession` and
    therefore inside every per-shard checkpoint; resuming validates it
    against the running layout (see :meth:`CrawlSession.load`).
    """

    index: int                  # which shard of the layout this is
    num_shards: int             # total shards in the layout
    layout_digest: str          # ShardLayout.digest() of the whole layout
    domains: Tuple[str, ...]    # this shard's exact site sequence

    def describe(self) -> str:
        """Human-readable identity for error messages."""
        return ("shard %d/%d (layout %s, %d sites)"
                % (self.index + 1, self.num_shards,
                   self.layout_digest[:12], len(self.domains)))


@dataclass(frozen=True)
class ShardLayout:
    """A complete, deterministic partition of a site list."""

    num_shards: int
    shards: Tuple[Tuple[str, ...], ...]

    @classmethod
    def for_domains(cls, domains: Iterable[str],
                    num_shards: Optional[int] = None) -> "ShardLayout":
        """Build the canonical layout for ``domains``.

        ``num_shards`` defaults to :func:`default_shard_count`.  Raises
        :class:`ValueError` on duplicates or a non-positive count.
        """
        shards = shard_domains(domains, num_shards)
        return cls(num_shards=len(shards),
                   shards=tuple(tuple(shard) for shard in shards))

    @property
    def site_count(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def digest(self) -> str:
        """Stable digest identifying this exact layout.

        Folds the shard count and every shard's ordered domain list, so
        any change to membership, ordering or shard count changes the
        digest.
        """
        digest = hashlib.sha256()
        digest.update(("layout:%d" % self.num_shards).encode("utf-8"))
        for shard in self.shards:
            digest.update(b"\x00")
            for domain in shard:
                digest.update(domain.encode("utf-8"))
                digest.update(b"\x01")
        return digest.hexdigest()

    def info(self, index: int) -> ShardInfo:
        """The :class:`ShardInfo` identity of shard ``index``.

        Raises :class:`IndexError` for an out-of-range index.
        """
        if not 0 <= index < self.num_shards:
            raise IndexError("shard %d of a %d-shard layout"
                             % (index, self.num_shards))
        return ShardInfo(index=index, num_shards=self.num_shards,
                         layout_digest=self.digest(),
                         domains=self.shards[index])
