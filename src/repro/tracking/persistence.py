"""Persistent-tracking classification and Table 2 construction (§5.2).

Implements the paper's three-step funnel:

1. group the leaking senders with their receivers and infer each
   receiver's PII identifier parameters (:mod:`repro.tracking.trackid`);
2. keep receivers that obtain the *same identifier from more than one
   sender* (cross-site tracking capability — 34 in the paper);
3. keep those whose identifier also appears on ordinary *subpages* of the
   senders, not just in the authentication flow (indisputable persistent
   tracking — the paper's 20 providers, Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..core.analysis import LeakAnalysis, encoding_label
from ..core.leakmodel import LeakEvent
from ..netsim import STAGE_SUBPAGE
from .trackid import TrackIdAnalyzer


@dataclass(frozen=True)
class Table2Row:
    """One (receiver, sender-group) row of Table 2."""

    receiver: str
    senders: int
    methods: str          # e.g. "uri/payload"
    encoding: str         # e.g. "sha256"
    parameters: str       # trackid parameter names, "/"-joined


@dataclass(frozen=True)
class PersistenceReport:
    """Output of the §5.2 analysis."""

    cross_site_receivers: Tuple[str, ...]     # paper: 34
    persistent_receivers: Tuple[str, ...]     # paper: 20
    rows: Tuple[Table2Row, ...]               # Table 2

    @property
    def provider_count(self) -> int:
        return len(self.persistent_receivers)


class PersistenceAnalyzer:
    """Runs the full §5.2 funnel over detected leak events."""

    def __init__(self, events: Sequence[LeakEvent]) -> None:
        self.events = list(events)
        self.analysis = LeakAnalysis(self.events)
        self.trackids = TrackIdAnalyzer(self.events)

    def cross_site_receivers(self) -> List[str]:
        """Receivers getting the same ID from more than one sender.

        "Same ID" follows the paper's definition: the same PII value
        arriving in the same identifier parameter from several senders.
        Different encodings of one email still count — the provider can
        join them trivially (hash the plaintext it received elsewhere), and
        Table 2 itself lists providers accepting several encoding forms in
        one parameter (criteo's ``p0``).
        """
        # Who sent each surface form, per (receiver, parameter): one pass.
        form_senders: Dict[Tuple[str, str], Dict[str, Set[str]]] = {}
        for event in self.events:
            form_senders.setdefault(
                (event.receiver, event.parameter), {}).setdefault(
                    event.surface_form, set()).add(event.sender)
        result: Set[str] = set()
        for parameter in self.trackids.parameters():
            if parameter.sender_count < 2:
                continue
            # The same underlying PII surface form from >= 2 senders.
            forms = form_senders.get((parameter.receiver,
                                      parameter.parameter), {})
            if any(len(senders) >= 2 for senders in forms.values()):
                result.add(parameter.receiver)
        return sorted(result)

    def persistent_receivers(self) -> List[str]:
        """Cross-site receivers whose ID also appears on subpages."""
        return self._persistent(self.cross_site_receivers())

    def _persistent(self, cross_site: Sequence[str]) -> List[str]:
        subpage_receivers = {
            event.receiver for event in self.events
            if event.stage == STAGE_SUBPAGE and event.parameter}
        return sorted(set(cross_site) & subpage_receivers)

    def table2(self) -> List[Table2Row]:
        """Table 2: per-provider breakdown by (method, encoding) group."""
        return self._table2(self.persistent_receivers())

    def _table2(self, persistent: Sequence[str]) -> List[Table2Row]:
        rows: List[Table2Row] = []
        for receiver in persistent:
            groups: Dict[Tuple[str, str], Dict[str, Set[str]]] = {}
            for rel in self.analysis.relationships_of_receiver(receiver):
                id_events = [e for e in rel.events if e.parameter]
                if not id_events:
                    continue
                methods = "/".join(sorted({e.channel for e in id_events}))
                encodings = "/".join(sorted({encoding_label(e.chain)
                                             for e in id_events}))
                group = groups.setdefault((methods, encodings),
                                          {"senders": set(), "params": set()})
                group["senders"].add(rel.sender)
                group["params"].update(e.parameter for e in id_events
                                       if e.parameter)
            for (methods, encodings), group in sorted(
                    groups.items(),
                    key=lambda item: -len(item[1]["senders"])):
                rows.append(Table2Row(
                    receiver=receiver, senders=len(group["senders"]),
                    methods=methods, encoding=encodings,
                    parameters="/".join(sorted(group["params"]))))
        rows.sort(key=lambda row: (row.receiver, -row.senders))
        return rows

    def report(self) -> PersistenceReport:
        """The whole funnel, with one cross-site pass."""
        cross_site = self.cross_site_receivers()
        persistent = self._persistent(cross_site)
        return PersistenceReport(
            cross_site_receivers=tuple(cross_site),
            persistent_receivers=tuple(persistent),
            rows=tuple(self._table2(persistent)))
