"""Aggregation of leak events into the paper's result structures (§4.2).

The unit of aggregation is the *leak relationship*: one (sender, receiver)
pair with everything observed about it — channels, encoding forms, PII
types, parameters, stages.  Table 1's three breakdowns count senders and
receivers per attribute, with the "Combined" rows counting those that have
a relationship using several methods (or several encoding forms) at once,
matching the paper's examples ("via request URI and cookie", "plaintext
and SHA256").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .. import hashes
from .leakmodel import LeakEvent

# Canonical Table 1b encoding rows.
ENCODING_ROWS = ("plaintext", "base64", "md5", "sha1", "sha256",
                 "sha256 of md5")


def encoding_label(chain: Tuple[str, ...]) -> str:
    """Normalize a chain to the paper's Table 1b vocabulary.

    ``base64url`` is folded into ``base64``: for the token alphabet PII
    values produce, the two encoders emit identical strings, so a detector
    cannot (and the paper does not) distinguish them.
    """
    normalized = tuple("base64" if name == "base64url" else name
                       for name in chain)
    return hashes.chain_label(normalized)


@dataclass
class LeakRelationship:
    """Everything observed for one (sender, receiver) pair."""

    sender: str
    receiver: str
    channels: Set[str] = field(default_factory=set)
    encodings: Set[str] = field(default_factory=set)
    pii_types: Set[str] = field(default_factory=set)
    parameters: Set[str] = field(default_factory=set)
    stages: Set[str] = field(default_factory=set)
    cloaked: bool = False
    events: List[LeakEvent] = field(default_factory=list)

    @property
    def uses_combined_channels(self) -> bool:
        return len(self.channels) >= 2

    @property
    def uses_combined_encodings(self) -> bool:
        return len(self.encodings) >= 2

    @property
    def seen_on_subpage(self) -> bool:
        return "subpage" in self.stages


@dataclass(frozen=True)
class BreakdownRow:
    """One row of a Table 1 style breakdown."""

    label: str
    senders: int
    receivers: int
    sender_pct: float
    receiver_pct: float


class LeakAnalysis:
    """Computed views over a set of leak events."""

    def __init__(self, events: Sequence[LeakEvent]) -> None:
        self.events = list(events)
        self._relationships: Dict[Tuple[str, str], LeakRelationship] = {}
        for event in self.events:
            key = (event.sender, event.receiver)
            rel = self._relationships.get(key)
            if rel is None:
                rel = LeakRelationship(sender=event.sender,
                                       receiver=event.receiver)
                self._relationships[key] = rel
            rel.channels.add(event.channel)
            rel.encodings.add(encoding_label(event.chain))
            rel.pii_types.add(event.pii_type)
            if event.parameter:
                rel.parameters.add(event.parameter)
            rel.stages.add(event.stage)
            rel.cloaked = rel.cloaked or event.cloaked
            rel.events.append(event)

    # -- basic sets ---------------------------------------------------------

    def relationships(self) -> List[LeakRelationship]:
        return list(self._relationships.values())

    def senders(self) -> List[str]:
        return sorted({rel.sender for rel in self._relationships.values()})

    def receivers(self) -> List[str]:
        return sorted({rel.receiver for rel in self._relationships.values()})

    def relationships_of_sender(self, sender: str) -> List[LeakRelationship]:
        return [rel for rel in self._relationships.values()
                if rel.sender == sender]

    def relationships_of_receiver(self, receiver: str) -> List[LeakRelationship]:
        return [rel for rel in self._relationships.values()
                if rel.receiver == receiver]

    # -- headline statistics (§4.2) ------------------------------------------

    def headline(self, total_sites: Optional[int] = None) -> Dict[str, float]:
        """The §4.2 summary statistics."""
        senders = self.senders()
        receivers = self.receivers()
        per_sender = [len({rel.receiver
                           for rel in self.relationships_of_sender(s)})
                      for s in senders]
        stats: Dict[str, float] = {
            "senders": len(senders),
            "receivers": len(receivers),
            "relationships": len(self._relationships),
            "mean_receivers_per_sender": (
                sum(per_sender) / len(per_sender) if per_sender else 0.0),
            "max_receivers_per_sender": max(per_sender, default=0),
            "pct_senders_with_3plus": (
                100.0 * sum(1 for n in per_sender if n >= 3) / len(per_sender)
                if per_sender else 0.0),
        }
        if total_sites:
            stats["pct_sites_leaking"] = 100.0 * len(senders) / total_sites
        return stats

    def max_receiver_sender(self) -> Optional[Tuple[str, int]]:
        """(sender, receiver count) with the most receivers (loccitane)."""
        best: Optional[Tuple[str, int]] = None
        for sender in self.senders():
            count = len({rel.receiver
                         for rel in self.relationships_of_sender(sender)})
            if best is None or count > best[1]:
                best = (sender, count)
        return best

    # -- Table 1 breakdowns ---------------------------------------------------

    def _breakdown(self, attribute_of, combined_of) -> List[BreakdownRow]:
        sender_total = len(self.senders()) or 1
        receiver_total = len(self.receivers()) or 1
        rows: Dict[str, Tuple[Set[str], Set[str]]] = {}
        combined_senders: Set[str] = set()
        combined_receivers: Set[str] = set()
        for rel in self._relationships.values():
            for label in attribute_of(rel):
                senders, receivers = rows.setdefault(label, (set(), set()))
                senders.add(rel.sender)
                receivers.add(rel.receiver)
            if combined_of(rel):
                combined_senders.add(rel.sender)
                combined_receivers.add(rel.receiver)
        result = [
            BreakdownRow(label=label, senders=len(senders),
                         receivers=len(receivers),
                         sender_pct=100.0 * len(senders) / sender_total,
                         receiver_pct=100.0 * len(receivers) / receiver_total)
            for label, (senders, receivers) in rows.items()]
        result.append(BreakdownRow(
            label="combined", senders=len(combined_senders),
            receivers=len(combined_receivers),
            sender_pct=100.0 * len(combined_senders) / sender_total,
            receiver_pct=100.0 * len(combined_receivers) / receiver_total))
        return result

    def table1a(self) -> List[BreakdownRow]:
        """Breakdown by leak method, in the paper's row order."""
        rows = self._breakdown(lambda rel: rel.channels,
                               lambda rel: rel.uses_combined_channels)
        return _ordered(rows, ("referer", "uri", "payload", "cookie",
                               "combined"))

    def table1b(self) -> List[BreakdownRow]:
        """Breakdown by encoding/hashing form."""
        rows = self._breakdown(lambda rel: rel.encodings,
                               lambda rel: rel.uses_combined_encodings)
        order = ENCODING_ROWS + ("combined",)
        return _ordered(rows, order, keep_extra=True)

    def table1c(self) -> List[BreakdownRow]:
        """Breakdown by PII type combination."""
        def combo_label(rel: LeakRelationship):
            return [ ",".join(sorted(rel.pii_types)) ]
        rows = self._breakdown(combo_label, lambda rel: False)
        return [row for row in rows if row.label != "combined"]

    # -- Figure 2 --------------------------------------------------------------

    def figure2(self, top_n: int = 15) -> List[Tuple[str, int, float]]:
        """Top receivers by distinct sender count: (domain, n, pct)."""
        sender_total = len(self.senders()) or 1
        counts: Dict[str, Set[str]] = {}
        for rel in self._relationships.values():
            counts.setdefault(rel.receiver, set()).add(rel.sender)
        ranked = sorted(counts.items(),
                        key=lambda item: (-len(item[1]), item[0]))
        return [(domain, len(senders), 100.0 * len(senders) / sender_total)
                for domain, senders in ranked[:top_n]]

    # -- convenience ------------------------------------------------------------

    def receiver_degree(self) -> Dict[str, int]:
        """receiver -> number of distinct senders."""
        degrees: Dict[str, Set[str]] = {}
        for rel in self._relationships.values():
            degrees.setdefault(rel.receiver, set()).add(rel.sender)
        return {domain: len(senders) for domain, senders in degrees.items()}

    def single_sender_receivers(self) -> List[str]:
        """Receivers seen with exactly one sender (the paper's 58)."""
        return sorted(domain for domain, degree
                      in self.receiver_degree().items() if degree == 1)


def _ordered(rows: List[BreakdownRow], order: Sequence[str],
             keep_extra: bool = False) -> List[BreakdownRow]:
    by_label = {row.label: row for row in rows}
    result = [by_label[label] for label in order if label in by_label]
    if keep_extra:
        extras = [row for row in rows if row.label not in order]
        combined = [row for row in result if row.label == "combined"]
        body = [row for row in result if row.label != "combined"]
        result = body + sorted(extras, key=lambda r: r.label) + combined
    return result
