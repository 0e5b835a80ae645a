"""PII leakage detection (§4.1).

Given the raw capture log of a crawl, the detector:

1. classifies every request as first-party or third-party using the Public
   Suffix List, additionally re-classifying first-party subdomains whose
   CNAME chains land in known tracker zones (CNAME cloaking);
2. scans each third-party request for candidate PII tokens — in the
   request URI (per query parameter and in the path), the ``Referer``
   header, the ``Cookie`` header, and the payload body (urlencoded, JSON,
   and raw text) — in every plaintext/encoded/hashed form the candidate
   token set enumerates;
3. emits one :class:`~repro.core.leakmodel.LeakEvent` per distinct
   observation, attributed to the receiving tracker service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, FrozenSet, List, NamedTuple, Optional, Sequence,
                    Tuple)

from ..dnssim import CnameCloakingDetector, Resolver
from ..obs import NULL_RECORDER, Recorder
from ..obs.runtime import gc_paused
from ..netsim import CaptureEntry, CaptureLog
from ..psl import default_list
from ..websim.trackers import TrackerCatalog
from .leakmodel import LeakEvent, channel_for_location
from .tokens import CandidateTokenSet


#: Attribution-cache miss marker (``None`` is a cached answer).
_UNATTRIBUTED = object()


class _Attribution(NamedTuple):
    """How a request host was attributed to a third party."""

    receiver: str
    cloaked: bool


@dataclass
class DetectionResult:
    """Everything one pass over a capture log produces: the leak events
    and the entries that carried them (the paper's 1,522 leaking
    requests), without re-scanning the log."""

    events: List[LeakEvent]
    leaking_entries: List[CaptureEntry]
    entries_scanned: int
    entries_blocked_skipped: int

    @property
    def leaking_entry_count(self) -> int:
        return len(self.leaking_entries)


class LeakDetector:
    """Scans capture logs for PII leaks to third parties."""

    def __init__(self, tokens: CandidateTokenSet,
                 catalog: Optional[TrackerCatalog] = None,
                 resolver: Optional[Resolver] = None,
                 locations: Optional[Sequence[str]] = None,
                 recorder: Optional[Recorder] = None) -> None:
        """``locations`` restricts which request parts are scanned (for
        ablation studies, e.g. URL-only detection as in prior work);
        ``None`` scans everything.  ``recorder`` (a
        :class:`repro.obs.Recorder`) records detection-funnel counters
        — entries scanned, pruned and matched — at no cost when left
        ``None``."""
        self.tokens = tokens
        self.recorder = recorder or NULL_RECORDER
        self.catalog = catalog
        self.psl = default_list()
        self.locations = frozenset(locations) if locations else None
        self._cloaking = (CnameCloakingDetector(resolver)
                          if resolver is not None else None)
        if self._cloaking is not None and catalog is not None:
            # Catalog-declared cloaking zones extend the published
            # blocklists (covers custom/simulated cloaked services).
            for service in catalog.services():
                if service.cloaked_zone:
                    self._cloaking.add_zone(service.cloaked_zone,
                                            service.organisation)
        #: (request host, site) -> attribution; one per pair a log holds.
        self._attribution_cache: Dict[Tuple[str, str],
                                      Optional[_Attribution]] = {}
        self._hits = tokens.leak_hits(self.locations)

    # -- public API --------------------------------------------------------

    @gc_paused
    def run(self, log: CaptureLog) -> DetectionResult:
        """One pass over a capture log: events *and* leaking entries.

        Entries a blocker stopped never left the browser, so they are
        skipped, not scanned.  With a recorder attached, the §4.1
        detection funnel becomes visible as counters: how many entries
        were scanned vs. skipped as blocked, how many produced at least
        one event, and how many events survived in total.
        """
        events: List[LeakEvent] = []
        leaking_entries: List[CaptureEntry] = []
        scanned = skipped = 0
        for entry in log:
            if entry.blocked_by is not None:
                skipped += 1
                continue
            scanned += 1
            found = self.detect_entry(entry)
            if found:
                leaking_entries.append(entry)
            events.extend(found)
        recorder = self.recorder
        recorder.count("detector.entries_scanned", scanned)
        recorder.count("detector.entries_blocked_skipped", skipped)
        recorder.count("detector.entries_leaking", len(leaking_entries))
        recorder.count("detector.events", len(events))
        return DetectionResult(events=events, leaking_entries=leaking_entries,
                               entries_scanned=scanned,
                               entries_blocked_skipped=skipped)

    def detect(self, log: CaptureLog) -> List[LeakEvent]:
        """All leak events in a capture log (see :meth:`run`)."""
        return self.run(log).events

    def detect_entry(self, entry: CaptureEntry) -> List[LeakEvent]:
        """Leak events for a single capture entry.

        The entry's parts are scanned once per distinct value for every
        detector over the same token set and ``locations`` (see
        :mod:`repro.core.hits`); this only attributes the request and
        builds its events from the hits.
        """
        found = self._attributed_hits(entry)
        if found is None:
            return []
        attribution, hits = found
        request = entry.request
        url = str(request.url)
        return [LeakEvent(sender=entry.site,
                          receiver=attribution.receiver,
                          request_host=request.url.host,
                          channel=channel_for_location(location),
                          location=location,
                          pii_type=origin.pii_type,
                          chain=origin.chain,
                          parameter=parameter,
                          stage=entry.stage,
                          url=url,
                          cloaked=attribution.cloaked,
                          surface_form=origin.surface_form,
                          token=token,
                          timestamp=request.timestamp)
                for location, parameter, origin, token in hits]

    def receiver_and_channels(self, entry: CaptureEntry
                              ) -> Optional[Tuple[str, FrozenSet[str]]]:
        """The receiver and the channels of the leak events
        :meth:`detect_entry` finds in ``entry``, or None when it finds
        none, without building the events: the entry's events all share
        its site and receiver, so this is all Table 4 reads of them."""
        found = self._attributed_hits(entry)
        if found is None:
            return None
        attribution, hits = found
        return attribution.receiver, frozenset(
            [channel_for_location(hit[0]) for hit in hits])

    def _attributed_hits(self, entry: CaptureEntry
                         ) -> Optional[Tuple[_Attribution, tuple]]:
        """The attribution of ``entry``'s request and its leak hits, or
        None when the request is first party or carries no hit."""
        request = entry.request
        host = request.url.host
        attribution = self._attribution_cache.get((host, entry.site),
                                                  _UNATTRIBUTED)
        if attribution is _UNATTRIBUTED:
            attribution = self._attribute(host, entry.site)
        if attribution is None:
            return None
        hits = self._hits.of_request(request)
        if not hits:
            return None
        return attribution, hits

    # -- attribution --------------------------------------------------------

    def _attribute(self, host: str, site: str) -> Optional[_Attribution]:
        """Receiver attribution for a request host on ``site``'s pages
        (None = first party), cached for :meth:`detect_entry`."""
        attribution = self._attribute_uncached(host, "www." + site)
        self._attribution_cache[(host, site)] = attribution
        return attribution

    def _attribute_uncached(self, host: str,
                            site_host: str) -> Optional[_Attribution]:
        # Counter totals are per unique (host, site) pair — the cache
        # guarantees one uncached call each — so they are independent
        # of scan order and of how the crawl was sharded.
        if self.psl.is_third_party(host, site_host):
            receiver = self._service_domain(host)
            self.recorder.count("detector.attribution.third_party")
            return _Attribution(receiver=receiver, cloaked=False)
        # First-party by registrable domain: check for CNAME cloaking.
        if self._cloaking is not None:
            verdict = self._cloaking.classify(host, site_host)
            if verdict.cloaked and verdict.tracker_zone is not None:
                self.recorder.count("detector.attribution.cloaked")
                return _Attribution(receiver=verdict.tracker_zone,
                                    cloaked=True)
        self.recorder.count("detector.attribution.first_party")
        return None

    def _service_domain(self, host: str) -> str:
        if self.catalog is not None:
            service = self.catalog.attribute_host(host)
            if service is not None:
                return service.domain
        return self.psl.registrable_domain(host) or host
