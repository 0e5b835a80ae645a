"""Simulated DNS with CNAME chain resolution.

CNAME cloaking — pointing a first-party subdomain (``metrics.shop.example``)
at a tracker's hostname via a CNAME record — hides third-party trackers from
origin-based privacy protections.  The paper detects it by resolving the
CNAME records of every subdomain of the visited sites; this resolver provides
that capability for the synthetic web.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

RECORD_A = "A"
RECORD_CNAME = "CNAME"

_MAX_CHAIN = 16


class DnsError(Exception):
    """Raised for NXDOMAIN and CNAME loops."""


@dataclass(frozen=True)
class ResourceRecord:
    """One DNS resource record (A or CNAME)."""

    name: str
    rtype: str
    value: str

    def __post_init__(self) -> None:
        if self.rtype not in (RECORD_A, RECORD_CNAME):
            raise ValueError("unsupported record type: %r" % self.rtype)


@dataclass
class Zone:
    """A collection of records; the simulated authoritative data."""

    records: Dict[str, List[ResourceRecord]] = field(default_factory=dict)

    #: Bumped by every :meth:`add`; resolvers drop their memo when it moves.
    revision = 0

    def add(self, name: str, rtype: str, value: str) -> None:
        record = ResourceRecord(name.lower().rstrip("."), rtype,
                                value.lower().rstrip("."))
        self.records.setdefault(record.name, []).append(record)
        self.revision += 1

    def add_a(self, name: str, address: str = "203.0.113.10") -> None:
        self.add(name, RECORD_A, address)

    def add_cname(self, name: str, target: str) -> None:
        self.add(name, RECORD_CNAME, target)

    def lookup(self, name: str) -> List[ResourceRecord]:
        return self.records.get(name.lower().rstrip("."), [])


@dataclass(frozen=True)
class Resolution:
    """Result of resolving a name: the CNAME chain and final address.

    Frozen because a resolver hands the same memoised answer to every
    caller that asks for the name.
    """

    query: str
    cname_chain: Tuple[str, ...]
    address: str

    @property
    def canonical_name(self) -> str:
        """The final name in the chain (the query itself if no CNAME)."""
        return self.cname_chain[-1] if self.cname_chain else self.query


class Resolver:
    """Iterative resolver over a :class:`Zone` with loop protection.

    Answers are memoised per queried name: a crawl asks for the same few
    hundred hosts tens of thousands of times.  The memo holds the
    :class:`Resolution` or the :class:`DnsError` message, is dropped
    whenever the zone's :attr:`Zone.revision` moves (every
    :meth:`Zone.add`), and is left out of the pickled state.
    """

    def __init__(self, zone: Zone) -> None:
        self._zone = zone
        self._memo: Dict[str, Union[Resolution, str]] = {}
        self._memo_revision = zone.revision

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        del state["_memo"], state["_memo_revision"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._memo = {}
        self._memo_revision = self._zone.revision

    def resolve(self, name: str) -> Resolution:
        """Resolve ``name`` to an address, following CNAMEs.

        Raises :class:`DnsError` on NXDOMAIN or a CNAME loop.
        """
        answer = self._answer(name)
        if isinstance(answer, str):
            raise DnsError(answer)
        return answer

    def _answer(self, name: str) -> Union[Resolution, str]:
        """The memoised resolution of ``name``, or its error message."""
        if self._memo_revision != self._zone.revision:
            self._memo.clear()
            self._memo_revision = self._zone.revision
        answer = self._memo.get(name)
        if answer is None:
            try:
                answer = self._resolve(name)
            except DnsError as exc:
                answer = str(exc)
            self._memo[name] = answer
        return answer

    def _resolve(self, name: str) -> Resolution:
        query = name.lower().rstrip(".")
        chain: List[str] = []
        current = query
        seen = {current}
        for _ in range(_MAX_CHAIN):
            records = self._zone.lookup(current)
            cname = next((r for r in records if r.rtype == RECORD_CNAME), None)
            if cname is not None:
                current = cname.value
                if current in seen:
                    raise DnsError("CNAME loop at %s" % current)
                seen.add(current)
                chain.append(current)
                continue
            a_record = next((r for r in records if r.rtype == RECORD_A), None)
            if a_record is None:
                raise DnsError("NXDOMAIN: %s" % current)
            return Resolution(query=query, cname_chain=tuple(chain),
                              address=a_record.value)
        raise DnsError("CNAME chain too long for %s" % query)

    def cname_chain(self, name: str) -> Tuple[str, ...]:
        """The CNAME chain for ``name`` (empty when none or NXDOMAIN)."""
        answer = self._answer(name)
        return () if isinstance(answer, str) else answer.cname_chain

    def exists(self, name: str) -> bool:
        """Whether ``name`` resolves to an address."""
        return not isinstance(self._answer(name), str)
