"""PII firewall: first-party-side leak termination.

The paper's conclusion argues "the site's publishers should take a more
proactive approach to terminating this type of data transfer".  This
module prototypes that approach: a request-rewriting firewall a publisher
(or privacy proxy) can put on the outgoing path.  For every third-party
request it scans the same surfaces the detector scans — URL parameters,
Referer, Cookie header, payload body — and *redacts* any candidate PII
token before the request leaves, instead of blocking the request outright
(so site functionality that relies on the tracker's non-PII features
survives).

The firewall is built from the same candidate-token machinery as the
detector, which makes the guarantee precise: whatever the §4.1 detector
would have flagged, the firewall removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.tokens import CandidateTokenSet
from ..dnssim import CnameCloakingDetector, Resolver
from ..netsim import (
    HttpRequest,
    decode_urlencoded,
    encode_urlencoded,
    percent_decode,
)
from ..psl import default_list

#: Replacement for redacted token occurrences.
REDACTION = "__pii_redacted__"


@dataclass
class FirewallReport:
    """What the firewall did to one request."""

    redacted_locations: List[str] = field(default_factory=list)

    @property
    def modified(self) -> bool:
        return bool(self.redacted_locations)


class PiiFirewall:
    """Scrubs candidate PII tokens out of outgoing third-party requests."""

    def __init__(self, tokens: CandidateTokenSet,
                 resolver: Optional[Resolver] = None) -> None:
        """Pass ``resolver`` to make the firewall CNAME-cloaking aware:
        without it, cloaked collection subdomains look first-party and
        their cookie-channel leaks pass through — the same blind spot the
        paper found in origin-based protections."""
        self.tokens = tokens
        self.psl = default_list()
        self._cloaking = (CnameCloakingDetector(resolver)
                          if resolver is not None else None)
        self._scrubbed_requests = 0
        self._redactions = 0

    # -- statistics --------------------------------------------------------

    @property
    def scrubbed_requests(self) -> int:
        return self._scrubbed_requests

    @property
    def redactions(self) -> int:
        return self._redactions

    # -- checkpointing -------------------------------------------------------

    def journal_state(self) -> Tuple[int, int]:
        """The statistics counters, for a crawl checkpoint record."""
        return self._scrubbed_requests, self._redactions

    def restore_journal_state(self, state: Tuple[int, int]) -> None:
        """Adopt the counters from :meth:`journal_state`."""
        self._scrubbed_requests, self._redactions = state

    # -- scrubbing -----------------------------------------------------------

    def _scrub_text(self, text: str) -> Tuple[str, int]:
        """Replace every candidate-token occurrence in ``text``."""
        matches = self.tokens.scan(text)
        if not matches:
            return text, 0
        # Merge overlapping spans, replace right-to-left.
        spans = sorted({(m.start, m.end) for m in matches})
        merged: List[List[int]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        result = text
        for start, end in reversed(merged):
            result = result[:start] + REDACTION + result[end:]
        return result, len(merged)

    def _scrub_pairs(self, pairs):
        count = 0
        scrubbed = []
        for name, value in pairs:
            # Decode once so percent-encoded plaintext cannot slip through.
            new_value, hits = self._scrub_text(percent_decode(value))
            if hits == 0:
                new_value = value
            count += hits
            scrubbed.append((name, new_value))
        return scrubbed, count

    def scrub_request(self, request: HttpRequest,
                      site_host: str) -> Tuple[HttpRequest, FirewallReport]:
        """Return a scrubbed copy of a third-party request.

        First-party requests pass through untouched — the site needs the
        data; the firewall polices what leaves the party boundary.
        """
        report = FirewallReport()
        if not self._crosses_party_boundary(request.url.host, site_host):
            return request, report

        url = request.url
        query, query_hits = self._scrub_pairs(url.query)
        if query_hits:
            url = url.with_query(query)
            report.redacted_locations.append("query")
        path, path_hits = self._scrub_text(percent_decode(url.path))
        if path_hits:
            url = url.with_path(path)
            report.redacted_locations.append("path")

        headers = request.headers.copy()
        referer = headers.get("Referer")
        if referer:
            new_referer, hits = self._scrub_text(percent_decode(referer))
            if hits:
                headers.set("Referer", new_referer)
                report.redacted_locations.append("referer")
        cookie_header = headers.get("Cookie")
        if cookie_header:
            new_cookie, hits = self._scrub_text(cookie_header)
            if hits:
                headers.set("Cookie", new_cookie)
                report.redacted_locations.append("cookie")

        body = request.body
        if body:
            body, body_hits = self._scrub_body(request)
            if body_hits:
                report.redacted_locations.append("body")

        total = len(report.redacted_locations)
        if total:
            self._scrubbed_requests += 1
            self._redactions += total
            request = HttpRequest(
                method=request.method, url=url, headers=headers, body=body,
                resource_type=request.resource_type,
                initiator_chain=request.initiator_chain,
                timestamp=request.timestamp)
        return request, report

    def _crosses_party_boundary(self, host: str, site_host: str) -> bool:
        if self.psl.is_third_party(host, site_host):
            return True
        if self._cloaking is not None:
            return self._cloaking.classify(host, site_host).cloaked
        return False

    def _scrub_body(self, request: HttpRequest) -> Tuple[bytes, int]:
        content_type = (request.headers.get("Content-Type") or "").lower()
        if "urlencoded" in content_type:
            pairs, hits = self._scrub_pairs(
                decode_urlencoded(request.body))
            if hits:
                return encode_urlencoded(pairs), hits
            return request.body, 0
        text = request.body_text()
        scrubbed, hits = self._scrub_text(text)
        if hits:
            return scrubbed.encode("utf-8"), hits
        return request.body, 0
