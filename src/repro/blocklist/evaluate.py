"""Blocklist effectiveness evaluation (§7.2, Table 4).

Follows the paper's procedure: take every captured request that contains
leaked PII, match it — and every request in its initiator chain — against
EasyList, EasyPrivacy, and their union, and report how many senders and
receivers would have had their leakage suppressed, broken down by leak
method.

A leak event counts as *prevented* when the leaking request itself or any
request in its initiator chain (the embedding page's script load) would
have been blocked: blocking the snippet stops the beacon.  A sender
(receiver) appears in a method row when all of its leak events using that
method are prevented, mirroring the paper's per-method percentages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.detector import LeakDetector
from ..core.leakmodel import LeakEvent
from ..netsim import CaptureEntry, CaptureLog, RESOURCE_SCRIPT
from ..obs.runtime import gc_paused
from ..psl import default_list
from .lists import easylist_text, easyprivacy_text
from .matcher import RequestContext, RuleSet

_METHOD_ROWS = ("referer", "uri", "payload", "cookie", "combined")


@dataclass(frozen=True)
class Table4Cell:
    blocked: int
    total: int

    @property
    def pct(self) -> float:
        return 100.0 * self.blocked / self.total if self.total else 0.0


@dataclass
class Table4Report:
    """Measured Table 4: {list_name: {row: cell}} for senders/receivers."""

    senders: Dict[str, Dict[str, Table4Cell]] = field(default_factory=dict)
    receivers: Dict[str, Dict[str, Table4Cell]] = field(default_factory=dict)


def default_rule_sets() -> Dict[str, RuleSet]:
    """The three rule sets of Table 4."""
    easylist = RuleSet.from_text(easylist_text(), name="easylist")
    easyprivacy = RuleSet.from_text(easyprivacy_text(), name="easyprivacy")
    combined = RuleSet.union((easylist, easyprivacy), name="combined")
    return {"easylist": easylist, "easyprivacy": easyprivacy,
            "combined": combined}


class BlocklistEvaluator:
    """Runs the Table 4 evaluation over a capture log."""

    def __init__(self, detector: LeakDetector,
                 rule_sets: Optional[Dict[str, RuleSet]] = None) -> None:
        self.detector = detector
        self.rule_sets = rule_sets or default_rule_sets()

    # -- request-level matching ------------------------------------------

    def entry_blocked(self, entry: CaptureEntry, rules: RuleSet) -> bool:
        """Whether the request or its initiator chain would be blocked."""
        request = entry.request
        page_host = "www." + entry.site
        contexts = [RequestContext(
            url=str(request.url),
            resource_type=request.resource_type,
            page_domain=entry.site,
            is_third_party=default_list().is_third_party(
                request.url.host, page_host))]
        for initiator in request.initiator_chain[1:]:
            # Chain entries beyond the document are loader scripts.
            contexts.append(RequestContext(
                url=str(initiator), resource_type=RESOURCE_SCRIPT,
                page_domain=entry.site,
                is_third_party=default_list().is_third_party(
                    initiator.host, page_host)))
        return any(rules.match(context).blocked for context in contexts)

    # -- Table 4 ------------------------------------------------------------

    @gc_paused
    def evaluate(self, log: CaptureLog) -> Table4Report:
        """Compute the full Table 4 from a crawl capture."""
        # Pair each leak event with its capture entry.
        observations: List[Tuple[CaptureEntry, LeakEvent]] = []
        for entry in log:
            if entry.was_blocked:
                continue
            for event in self.detector.detect_entry(entry):
                observations.append((entry, event))

        report = Table4Report()
        for list_name, rules in self.rule_sets.items():
            blocked_cache: Dict[int, bool] = {}

            def is_prevented(entry: CaptureEntry) -> bool:
                key = id(entry)
                if key not in blocked_cache:
                    blocked_cache[key] = self.entry_blocked(entry, rules)
                return blocked_cache[key]

            report.senders[list_name] = self._aggregate(
                observations, is_prevented, lambda event: event.sender)
            report.receivers[list_name] = self._aggregate(
                observations, is_prevented, lambda event: event.receiver)
        return report

    def _aggregate(self, observations, is_prevented,
                   subject_of) -> Dict[str, Table4Cell]:
        # subject -> channel -> [total events, prevented events]
        per_channel: Dict[str, Dict[str, List[int]]] = {}
        # subject -> (sender, receiver) -> channel set (for "combined").
        rel_channels: Dict[str, Dict[Tuple[str, str], Set[str]]] = {}
        rel_prevented: Dict[str, Dict[Tuple[str, str], List[int]]] = {}
        overall: Dict[str, List[int]] = {}

        for entry, event in observations:
            subject = subject_of(event)
            prevented = is_prevented(entry)
            counts = per_channel.setdefault(subject, {}).setdefault(
                event.channel, [0, 0])
            counts[0] += 1
            counts[1] += 1 if prevented else 0
            total = overall.setdefault(subject, [0, 0])
            total[0] += 1
            total[1] += 1 if prevented else 0
            rel_key = (event.sender, event.receiver)
            rel_channels.setdefault(subject, {}).setdefault(
                rel_key, set()).add(event.channel)
            rel_counts = rel_prevented.setdefault(subject, {}).setdefault(
                rel_key, [0, 0])
            rel_counts[0] += 1
            rel_counts[1] += 1 if prevented else 0

        rows: Dict[str, Table4Cell] = {}
        for channel in ("referer", "uri", "payload", "cookie"):
            subjects = [s for s, channels in per_channel.items()
                        if channel in channels]
            blocked = sum(
                1 for s in subjects
                if per_channel[s][channel][1] == per_channel[s][channel][0])
            rows[channel] = Table4Cell(blocked=blocked, total=len(subjects))

        combined_subjects = []
        combined_blocked = 0
        for subject, relationships in rel_channels.items():
            combined_rels = [key for key, channels in relationships.items()
                             if len(channels) >= 2]
            if not combined_rels:
                continue
            combined_subjects.append(subject)
            if all(rel_prevented[subject][key][1] ==
                   rel_prevented[subject][key][0] for key in combined_rels):
                combined_blocked += 1
        rows["combined"] = Table4Cell(blocked=combined_blocked,
                                      total=len(combined_subjects))

        total_blocked = sum(1 for counts in overall.values()
                            if counts[1] == counts[0])
        rows["total"] = Table4Cell(blocked=total_blocked, total=len(overall))
        return rows
