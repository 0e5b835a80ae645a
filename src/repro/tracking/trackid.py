"""PII identifier parameter ("trackid") inference (§5.2).

For each third-party receiver, looks for the *parameter names* that carry
PII values — in URI query strings, payload bodies and cookies — and groups
them per receiver.  A receiver with a stable PII-bearing parameter across
senders is a candidate persistent tracker: the parameter is its user
identifier slot (Facebook's ``udff[em]``, Criteo's ``p0``, …).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..core.analysis import encoding_label
from ..core.leakmodel import LeakEvent

#: Generic event parameters that are never identifiers even if a PII token
#: appears in them (e.g. a full URL captured into ``dl``).
_NON_ID_PARAMS = frozenset({"ev", "dl", "rl", "if", "ts"})


@dataclass(frozen=True)
class TrackIdParameter:
    """One inferred identifier parameter of a receiver."""

    receiver: str
    parameter: str
    location: str                 # query / body / cookie
    senders: Tuple[str, ...]      # senders observed using it
    tokens: Tuple[str, ...]       # distinct PII token values observed
    encodings: Tuple[str, ...]    # encoding labels observed

    @property
    def sender_count(self) -> int:
        return len(self.senders)

    @property
    def is_cross_site(self) -> bool:
        """Same identifier received from more than one sender."""
        return len(self.senders) >= 2 and len(set(self.tokens)) >= 1


class TrackIdAnalyzer:
    """Infers identifier parameters from leak events."""

    def __init__(self, events: Sequence[LeakEvent]) -> None:
        self.events = [e for e in events if e.parameter
                       and e.parameter not in _NON_ID_PARAMS]

    def parameters(self) -> List[TrackIdParameter]:
        """All inferred (receiver, parameter) identifier slots."""
        grouped: Dict[Tuple[str, str, str], List[LeakEvent]] = {}
        for event in self.events:
            key = (event.receiver, event.parameter, event.location)
            grouped.setdefault(key, []).append(event)
        result = []
        for (receiver, parameter, location), events in grouped.items():
            senders = tuple(sorted({e.sender for e in events}))
            tokens = tuple(sorted({e.token for e in events if e.token}))
            encodings = tuple(sorted({encoding_label(e.chain)
                                      for e in events}))
            result.append(TrackIdParameter(
                receiver=receiver, parameter=parameter, location=location,
                senders=senders, tokens=tokens, encodings=encodings))
        result.sort(key=lambda p: (-p.sender_count, p.receiver, p.parameter))
        return result

    def receivers_with_stable_id(self, min_senders: int = 2) -> List[str]:
        """Receivers whose identifier parameter recurs across senders.

        These are the paper's 34 receivers that "get the same ID from more
        than one first-party sender".
        """
        seen: Set[str] = set()
        for parameter in self.parameters():
            if parameter.sender_count >= min_senders:
                seen.add(parameter.receiver)
        return sorted(seen)
