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
from typing import Dict, FrozenSet, List, Set, Tuple

from ..core.detector import LeakDetector
from ..netsim import CaptureEntry, CaptureLog, RESOURCE_SCRIPT, Url
from ..obs.runtime import gc_paused
from ..psl import default_list
from .lists import easylist_text, easyprivacy_text
from .matcher import RequestContext, RuleSet

#: The per-method rows; "combined" and "total" follow them.
_CHANNEL_ROWS = ("referer", "uri", "payload", "cookie")


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
    """Runs the Table 4 evaluation over a capture log.

    Detection goes through the detector's shared per-part hits (see
    :mod:`repro.core.hits`), so a log the study's detector has just
    scanned is not scanned again.  Each request context is built once
    per (URL, site, resource type) and matched once per rule set.
    """

    def __init__(self, detector: LeakDetector) -> None:
        self.detector = detector
        #: Table 4's columns: :func:`default_rule_sets`.
        self.rule_sets = default_rule_sets()

    # -- request-level matching ------------------------------------------

    def entry_blocked(self, entry: CaptureEntry, rules: RuleSet) -> bool:
        """Whether the request or its initiator chain would be blocked."""
        return any(rules.match(context).blocked
                   for context in _Contexts().of_entry(entry))

    # -- Table 4 ------------------------------------------------------------

    @gc_paused
    def evaluate(self, log: CaptureLog) -> Table4Report:
        """Compute the full Table 4 from a crawl capture."""
        # Each leaking entry's request contexts, sender, receiver and
        # leak methods: its events share the entry's site and attributed
        # receiver, so a method's events all fare alike.
        observations: List[Tuple[Tuple[RequestContext, ...], str, str,
                                 FrozenSet[str]]] = []
        contexts = _Contexts()
        leak = self.detector.receiver_and_channels
        for entry in log:
            if entry.blocked_by is not None:
                continue
            found = leak(entry)
            if found is not None:
                observations.append((contexts.of_entry(entry), entry.site)
                                    + found)

        report = Table4Report()
        for list_name, rules in self.rule_sets.items():
            blocked: Dict[RequestContext, bool] = {}
            senders, receivers = _Tally(), _Tally()
            for entry_contexts, sender, receiver, channels in observations:
                prevented = False
                for context in entry_contexts:
                    verdict = blocked.get(context)
                    if verdict is None:
                        verdict = blocked[context] = \
                            rules.match(context).blocked
                    if verdict:
                        prevented = True
                        break
                relationship = (sender, receiver)
                for channel in channels:
                    senders.add(sender, channel, relationship, prevented)
                    receivers.add(receiver, channel, relationship, prevented)
            report.senders[list_name] = senders.rows()
            report.receivers[list_name] = receivers.rows()
        return report


class _Contexts:
    """Request contexts, one per (URL, site, resource type)."""

    def __init__(self) -> None:
        self._built: Dict[Tuple[Url, str, str], RequestContext] = {}

    def of_entry(self, entry: CaptureEntry) -> Tuple[RequestContext, ...]:
        """The contexts of the request and of its initiator chain beyond
        the document (loader scripts)."""
        request = entry.request
        site = entry.site
        return (self._context(request.url, site, request.resource_type),) \
            + tuple(self._context(initiator, site, RESOURCE_SCRIPT)
                    for initiator in request.initiator_chain[1:])

    def _context(self, url: Url, site: str,
                 resource_type: str) -> RequestContext:
        key = (url, site, resource_type)
        context = self._built.get(key)
        if context is None:
            context = self._built[key] = RequestContext(
                url=str(url), resource_type=resource_type, page_domain=site,
                is_third_party=default_list().is_third_party(
                    url.host, "www." + site))
        return context


class _Tally:
    """Table 4 rows for one kind of subject (senders or receivers).

    A subject counts as blocked in a method row when every one of its
    leak events using that method is prevented; in the combined row
    when every relationship it leaks over by two or more methods is
    fully prevented; in the total row when every event is.
    """

    def __init__(self) -> None:
        #: subject -> channel -> every event prevented so far.
        self._channels: Dict[str, Dict[str, bool]] = {}
        #: subject -> (sender, receiver) -> (channels, every event
        #: prevented so far).
        self._relationships: Dict[str, Dict[Tuple[str, str],
                                            Tuple[Set[str], bool]]] = {}

    def add(self, subject: str, channel: str,
            relationship: Tuple[str, str], prevented: bool) -> None:
        channels = self._channels.setdefault(subject, {})
        channels[channel] = channels.get(channel, True) and prevented
        relationships = self._relationships.setdefault(subject, {})
        seen, all_prevented = relationships.get(relationship,
                                                (set(), True))
        seen.add(channel)
        relationships[relationship] = (seen, all_prevented and prevented)

    def rows(self) -> Dict[str, Table4Cell]:
        rows: Dict[str, Table4Cell] = {}
        for channel in _CHANNEL_ROWS:
            flags = [channels[channel] for channels in self._channels.values()
                     if channel in channels]
            rows[channel] = Table4Cell(blocked=sum(flags), total=len(flags))
        combined = [all(prevented for seen, prevented
                        in relationships.values() if len(seen) >= 2)
                    for relationships in self._relationships.values()
                    if any(len(seen) >= 2
                           for seen, _ in relationships.values())]
        rows["combined"] = Table4Cell(blocked=sum(combined),
                                      total=len(combined))
        totals = [all(channels.values())
                  for channels in self._channels.values()]
        rows["total"] = Table4Cell(blocked=sum(totals), total=len(totals))
        return rows
