"""Public Suffix List matching (publicsuffix.org algorithm).

Implements the canonical algorithm: among all rules matching a domain, the
exception rule wins if present, otherwise the rule with the most labels; the
public suffix is the matched labels (minus one for exceptions) and the
registrable domain ("eTLD+1") is the suffix plus one more label.  Unlisted
TLDs fall back to the implicit ``*`` rule.

This is the primitive the paper uses to decide whether an HTTP request is a
*third-party* request: two hosts are "same party" when their registrable
domains are equal.

The PSL is queried for every captured request — several times per request
across partitioning, attribution and heuristics — so lookups are served
from two layers of precomputation: rules are bucketed by their TLD label
(only a handful of rules can ever match a given host, not the whole
snapshot), and per-host results are memoised on the instance (the crawl
and the detector revisit the same few hundred hosts tens of thousands of
times).  Both layers are pure caches over the immutable rule set, so
every query returns exactly what the uncached algorithm returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .data import SNAPSHOT

#: Cache-miss marker (``None`` is a valid cached registrable domain).
_MISSING = object()


@dataclass(frozen=True)
class Rule:
    """One PSL rule: its labels (reversed), wildcard/exception flags."""

    labels: Tuple[str, ...]
    is_exception: bool

    @property
    def label_count(self) -> int:
        return len(self.labels)


class PublicSuffixList:
    """Parsed rule set with suffix/registrable-domain queries."""

    def __init__(self, text: Optional[str] = None) -> None:
        self._rules: Dict[Tuple[str, ...], Rule] = {}
        self._load(text if text is not None else SNAPSHOT)
        # TLD-label index: a rule can only match hosts whose last label
        # equals the rule's first (reversed) label, or anything for the
        # rare leading-wildcard rules — bucketing turns the per-lookup
        # scan from every rule in the snapshot into a handful.
        self._by_tld: Dict[str, List[Rule]] = {}
        for key_labels, rule in self._rules.items():
            self._by_tld.setdefault(key_labels[0], []).append(rule)
        self._wildcard_tld: List[Rule] = self._by_tld.pop("*", [])
        # Per-host memos (host -> result); hosts repeat enormously
        # across a crawl, and results are pure functions of the rules.
        self._suffix_cache: Dict[str, str] = {}
        self._registrable_cache: Dict[str, Optional[str]] = {}

    def _load(self, text: str) -> None:
        for raw_line in text.splitlines():
            line = raw_line.strip()
            if not line or line.startswith("//"):
                continue
            is_exception = line.startswith("!")
            if is_exception:
                line = line[1:]
            labels = tuple(reversed(line.lower().split(".")))
            self._rules[labels] = Rule(labels, is_exception)

    def _matching_rules(self, labels: Tuple[str, ...]) -> List[Rule]:
        matches = []
        for rule in self._by_tld.get(labels[0], ()):
            if rule.label_count > len(labels):
                continue
            if all(rule_label in ("*", domain_label)
                   for rule_label, domain_label
                   in zip(rule.labels, labels)):
                matches.append(rule)
        for rule in self._wildcard_tld:
            if rule.label_count > len(labels):
                continue
            if all(rule_label in ("*", domain_label)
                   for rule_label, domain_label
                   in zip(rule.labels, labels)):
                matches.append(rule)
        return matches

    def public_suffix(self, host: str) -> str:
        """The public suffix of ``host`` (e.g. ``co.uk`` for ``a.b.co.uk``).

        A single-label host is its own suffix; unknown TLDs match the
        implicit ``*`` rule.
        """
        host = _normalize(host)
        cached = self._suffix_cache.get(host)
        if cached is not None:
            return cached
        labels = tuple(reversed(host.split(".")))
        matches = self._matching_rules(labels)

        exception = next((r for r in matches if r.is_exception), None)
        if exception is not None:
            suffix_len = exception.label_count - 1
        elif matches:
            suffix_len = max(r.label_count for r in matches)
        else:
            suffix_len = 1  # implicit "*" rule
        suffix_labels = labels[:suffix_len]
        suffix = ".".join(reversed(suffix_labels))
        self._suffix_cache[host] = suffix
        return suffix

    def registrable_domain(self, host: str) -> Optional[str]:
        """The eTLD+1 of ``host``, or ``None`` if host *is* a public suffix."""
        # Memoised by the host as given: hosts arrive normalised almost
        # always, so a hit skips the normalising copy altogether.
        cached = self._registrable_cache.get(host, _MISSING)
        if cached is not _MISSING:
            return cached
        normalized = _normalize(host)
        suffix = self.public_suffix(normalized)
        if normalized == suffix:
            registrable: Optional[str] = None
        else:
            labels = normalized.split(".")
            suffix_count = suffix.count(".") + 1
            registrable = ".".join(labels[-(suffix_count + 1):])
        self._registrable_cache[host] = registrable
        return registrable

    def same_party(self, host_a: str, host_b: str) -> bool:
        """Whether two hosts share a registrable domain (first-party test)."""
        domain_a = self.registrable_domain(host_a) or _normalize(host_a)
        domain_b = self.registrable_domain(host_b) or _normalize(host_b)
        return domain_a == domain_b

    def is_third_party(self, request_host: str, site_host: str) -> bool:
        """The paper's third-party test: different registrable domains."""
        return not self.same_party(request_host, site_host)


def _normalize(host: str) -> str:
    host = host.strip().rstrip(".").lower()
    if not host:
        raise ValueError("empty host")
    return host


_DEFAULT: Optional[PublicSuffixList] = None


def default_list() -> PublicSuffixList:
    """Process-wide PSL built from the embedded snapshot (lazily created)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = PublicSuffixList()
    return _DEFAULT


def registrable_domain(host: str) -> Optional[str]:
    """Module-level convenience over :func:`default_list`."""
    return default_list().registrable_domain(host)


def public_suffix(host: str) -> str:
    """Module-level convenience over :func:`default_list`."""
    return default_list().public_suffix(host)


def is_third_party(request_host: str, site_host: str) -> bool:
    """Module-level convenience over :func:`default_list`."""
    return default_list().is_third_party(request_host, site_host)
