"""Tracker-ecosystem graph analytics.

Builds the bipartite sender/receiver graph from leak relationships and
derives the ecosystem-structure measures measurement studies report on
top of raw counts: tracker reach and coverage concentration, receiver
co-occurrence (which trackers ride the same pages), and the user-exposure
view (how many PII receivers one authentication flow feeds on average).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..core.analysis import LeakAnalysis

SENDER = "sender"
RECEIVER = "receiver"

#: An edge's data: the relationship's sorted channels and encodings.
EdgeData = Tuple[Tuple[str, ...], Tuple[str, ...]]


@dataclass
class LeakGraph:
    """The bipartite sender/receiver map of leak relationships.

    ``by_sender`` maps each sender to its receivers and their edge data;
    ``by_receiver`` maps each receiver to its senders.  Both keep
    insertion order.  A domain that both sends and receives is a key of
    both maps, so it keeps both roles.
    """

    by_sender: Dict[str, Dict[str, EdgeData]] = field(default_factory=dict)
    by_receiver: Dict[str, Set[str]] = field(default_factory=dict)

    def number_of_nodes(self) -> int:
        return len(self.by_sender.keys() | self.by_receiver.keys())

    def number_of_edges(self) -> int:
        return sum(len(receivers) for receivers in self.by_sender.values())

    def roles(self, node: str) -> Tuple[str, ...]:
        """``(sender,)``, ``(receiver,)`` or both, in that order."""
        return tuple(role for role, nodes in ((SENDER, self.by_sender),
                                              (RECEIVER, self.by_receiver))
                     if node in nodes)

    def channels(self, sender: str, receiver: str) -> Tuple[str, ...]:
        return self.by_sender[sender][receiver][0]


def build_leak_graph(analysis: LeakAnalysis) -> LeakGraph:
    """The bipartite sender-receiver graph of leak relationships.

    Edges carry the relationship's channels and encodings.
    """
    graph = LeakGraph()
    for rel in analysis.relationships():
        graph.by_sender.setdefault(rel.sender, {})[rel.receiver] = (
            tuple(sorted(rel.channels)), tuple(sorted(rel.encodings)))
        graph.by_receiver.setdefault(rel.receiver, set()).add(rel.sender)
    return graph


def receiver_reach(graph: LeakGraph) -> Dict[str, int]:
    """receiver -> number of senders feeding it (its cross-site reach)."""
    return {receiver: len(senders)
            for receiver, senders in graph.by_receiver.items()}


def coverage_curve(graph: LeakGraph) -> List[Tuple[int, float]]:
    """Cumulative sender coverage of the top-k receivers.

    Entry (k, pct): blocking the k highest-reach receivers would cut the
    leakage of pct% of senders entirely.  Quantifies how concentrated the
    ecosystem is (the paper's Figure 2 tail in one series).
    """
    ranked = sorted(receiver_reach(graph).items(),
                    key=lambda item: (-item[1], item[0]))
    curve: List[Tuple[int, float]] = []
    blocked_receivers: set = set()
    for k, (receiver, _) in enumerate(ranked, start=1):
        blocked_receivers.add(receiver)
        fully_covered = sum(1 for receivers in graph.by_sender.values()
                            if receivers.keys() <= blocked_receivers)
        curve.append((k, 100.0 * fully_covered / len(graph.by_sender)))
    return curve


def receiver_cooccurrence(graph: LeakGraph,
                          min_shared: int = 2) -> List[Tuple[str, str, int]]:
    """Receiver pairs embedded by at least ``min_shared`` common senders.

    Co-occurring receivers see the same identifier from the same sites —
    the precondition for server-side data sharing the paper warns about
    ("this ID can be used to share data among many tracking providers").
    """
    receivers = list(graph.by_receiver.items())
    pairs: List[Tuple[str, str, int]] = []
    for index, (first, first_senders) in enumerate(receivers):
        for second, second_senders in receivers[index + 1:]:
            shared = len(first_senders & second_senders)
            if shared >= min_shared:
                low, high = sorted((first, second))
                pairs.append((low, high, shared))
    pairs.sort(key=lambda item: (-item[2], item[0], item[1]))
    return pairs


@dataclass(frozen=True)
class ExposureSummary:
    """User-exposure view of one crawl."""

    flows_with_leakage: int
    mean_receivers_per_flow: float
    max_receivers_per_flow: int
    pct_flows_feeding_facebook: float


def exposure_summary(analysis: LeakAnalysis) -> ExposureSummary:
    """How much one user's authentication activity feeds the ecosystem."""
    senders = build_leak_graph(analysis).by_sender
    if not senders:
        return ExposureSummary(0, 0.0, 0, 0.0)
    degrees = [len(receivers) for receivers in senders.values()]
    facebook = sum(1 for receivers in senders.values()
                   if "facebook.com" in receivers)
    return ExposureSummary(
        flows_with_leakage=len(senders),
        mean_receivers_per_flow=sum(degrees) / len(degrees),
        max_receivers_per_flow=max(degrees),
        pct_flows_feeding_facebook=100.0 * facebook / len(senders))
