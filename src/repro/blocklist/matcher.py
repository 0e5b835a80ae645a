"""Filter-list matching engine.

Evaluates parsed ABP filters against requests the way content blockers do:
find any blocking filter that matches the address and its context options,
then let a matching exception (``@@``) rule override it.  An index over
filter tokens keeps matching fast enough to scan thousands of captured
requests against thousands of rules: :class:`RuleSet` probes its token
index once per URL token (regex tokenisation plus a dict lookup each).
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set

from ..psl import default_list
from .parser import Filter, parse_filter_list

_TOKEN_RE = re.compile(r"[a-z0-9%]{3,}")


class RequestContext(NamedTuple):
    """Context options for one request being checked."""

    url: str
    resource_type: str = "other"
    page_domain: str = ""        # registrable domain of the visited page
    is_third_party: bool = True


class MatchResult(NamedTuple):
    """Outcome of matching one request against a rule set.  A tuple,
    so always true: test :attr:`blocked`."""

    blocked: bool
    blocking_filter: Optional[Filter] = None
    exception_filter: Optional[Filter] = None


#: The result of a request no blocking filter matches.
_NOT_BLOCKED = MatchResult(blocked=False)


def _index_token(filter_: Filter) -> Optional[str]:
    """A literal token that must appear in any URL the filter matches."""
    # Strip anchors and wildcards; take the longest literal run.
    pattern = filter_.pattern.lstrip("|")
    runs = _TOKEN_RE.findall(pattern.lower().replace("^", " ")
                             .replace("*", " "))
    if not runs:
        return None
    return max(runs, key=len)


class RuleSet:
    """A compiled filter list (or union of lists)."""

    def __init__(self, filters: Iterable[Filter], name: str = "") -> None:
        self.name = name
        self._blocking: List[Filter] = []
        self._exceptions: List[Filter] = []
        self._block_index: Dict[str, List[Filter]] = {}
        self._unindexed_blocking: List[Filter] = []
        for filter_ in filters:
            self.add(filter_)

    @classmethod
    def from_text(cls, text: str, name: str = "") -> "RuleSet":
        return cls(parse_filter_list(text), name=name)

    @classmethod
    def union(cls, rule_sets: Sequence["RuleSet"], name: str = "") -> "RuleSet":
        combined = cls((), name=name)
        for rule_set in rule_sets:
            for filter_ in rule_set.all_filters():
                combined.add(filter_)
        return combined

    def add(self, filter_: Filter) -> None:
        if filter_.is_exception:
            self._exceptions.append(filter_)
            return
        self._blocking.append(filter_)
        token = _index_token(filter_)
        if token is None:
            self._unindexed_blocking.append(filter_)
        else:
            self._block_index.setdefault(token, []).append(filter_)

    def all_filters(self) -> List[Filter]:
        return self._blocking + self._exceptions

    def __len__(self) -> int:
        return len(self._blocking) + len(self._exceptions)

    # -- matching ----------------------------------------------------------

    def _candidates(self, url: str) -> Iterable[Filter]:
        lowered = url.lower()
        seen: Set[int] = set()
        for token in _TOKEN_RE.findall(lowered):
            for filter_ in self._block_index.get(token, ()):
                if id(filter_) not in seen:
                    seen.add(id(filter_))
                    yield filter_
        for filter_ in self._unindexed_blocking:
            yield filter_

    def match(self, context: RequestContext) -> MatchResult:
        """Check a request; exceptions override blocking filters."""
        blocking = None
        for filter_ in self._candidates(context.url):
            if not filter_.applies_to_type(context.resource_type):
                continue
            if not filter_.applies_to_party(context.is_third_party):
                continue
            if not filter_.applies_to_domain(context.page_domain):
                continue
            if filter_.matches_url(context.url):
                blocking = filter_
                break
        if blocking is None:
            return _NOT_BLOCKED
        for exception in self._exceptions:
            if not exception.applies_to_type(context.resource_type):
                continue
            if not exception.applies_to_party(context.is_third_party):
                continue
            if not exception.applies_to_domain(context.page_domain):
                continue
            if exception.matches_url(context.url):
                return MatchResult(blocked=False, blocking_filter=blocking,
                                   exception_filter=exception)
        return MatchResult(blocked=True, blocking_filter=blocking)

    def should_block(self, url: str, resource_type: str = "other",
                     page_domain: str = "",
                     is_third_party: Optional[bool] = None) -> bool:
        """Convenience wrapper around :meth:`match`."""
        if is_third_party is None and page_domain:
            host = url.split("://", 1)[-1].split("/", 1)[0]
            is_third_party = default_list().is_third_party(
                host, "www." + page_domain)
        context = RequestContext(
            url=url, resource_type=resource_type, page_domain=page_domain,
            is_third_party=bool(is_third_party))
        return self.match(context).blocked
