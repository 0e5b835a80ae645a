"""Heuristic (parameter-name) leak detection.

The token-matching detector is exact but has a known blind spot the paper
acknowledges implicitly: a tracker that *salts* or truncates its hashes
produces values no candidate set can precompute.  This module implements
the standard fallback from the measurement literature — flagging request
parameters whose *names* advertise identifier payloads (``email_sha256``,
``hashed_email``, ``u_hem``, …) when their values look like digests or
opaque identifiers.

Findings are *suspected* leaks: lower confidence than token matches, kept
separate so analyses can report them distinctly (and so exact and
heuristic detection can be compared on the same traffic).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..netsim import CaptureEntry, CaptureLog, decode_urlencoded
from ..netsim.stamps import Memo
from ..psl import default_list

#: Parameter-name fragments advertising an identity payload.
_NAME_PATTERNS = (
    r"e?mail.{0,4}(hash|sha|md5|id)",
    r"(hash|sha\d*|md5).{0,4}e?mail",
    r"\bhem\b|u_hem|udff|\bpd\b",
    r"user.{0,4}(hash|id(entifier)?)\b",
    r"^(em|uid|puid|exid|ext(ernal)?_?id)$",
)
_NAME_RE = re.compile("|".join("(?:%s)" % pattern
                               for pattern in _NAME_PATTERNS),
                      re.IGNORECASE)

_HEX_RE = re.compile(r"^[0-9a-fA-F]{16,128}$")
_B64_RE = re.compile(r"^[A-Za-z0-9+/_-]{16,}={0,2}$")

#: Digest lengths (hex chars) of common hashes.
_DIGEST_LENGTHS = {32, 40, 56, 64, 96, 128}


def _shannon_entropy(value: str) -> float:
    if not value:
        return 0.0
    counts = {}
    for char in value:
        counts[char] = counts.get(char, 0) + 1
    total = len(value)
    return -sum((count / total) * math.log2(count / total)
                for count in counts.values())


def looks_like_identifier(value: str) -> bool:
    """Whether a parameter value is plausibly a derived identifier."""
    value = value.strip()
    if _HEX_RE.match(value):
        return len(value) in _DIGEST_LENGTHS or len(value) >= 32
    if _B64_RE.match(value) and _shannon_entropy(value) >= 3.5:
        return True
    return False


def suspicious_parameter(name: str) -> bool:
    """Whether a parameter name advertises an identity payload."""
    return bool(name) and _NAME_RE.search(name) is not None


@dataclass(frozen=True)
class SuspectedLeak:
    """A heuristic finding: named like an ID slot, valued like a digest."""

    sender: str
    receiver: str
    parameter: str
    value_preview: str
    location: str
    url: str

    @property
    def confidence(self) -> str:
        return "suspected"


#: A candidate: (location, parameter name, value).
_Candidate = Tuple[str, str, str]


class HeuristicDetector:
    """Flags suspected identifier parameters in third-party traffic.

    The third-party test is made once per (request host, site), the
    name test once per parameter name, and a body's candidates are
    found once per (content type, body).  A memo of each URL's
    candidates was measured and not kept: hashing a ``Url`` costs about
    as much as testing its few parameter names.
    """

    def __init__(self, known_tokens: Optional[Set[str]] = None) -> None:
        """``known_tokens``: values already confirmed by the exact
        detector, excluded here so the two result sets stay disjoint."""
        self.psl = default_list()
        self.known_tokens = known_tokens or set()
        self._third_party: Memo[Tuple[str, str], bool] = Memo(4096)
        self._suspicious: Memo[str, bool] = Memo(4096)
        self._body_candidates: Memo[Tuple[Optional[str], bytes],
                                    Tuple[_Candidate, ...]] = Memo(2048)

    def __getstate__(self) -> Dict[str, object]:
        # The memos are left out: an unpickled detector starts them empty.
        return {"known_tokens": self.known_tokens}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__init__(**state)

    def _candidates(self, pairs: Iterable[Tuple[str, str]],
                    location: str) -> List[_Candidate]:
        known = self.known_tokens
        suspicious = self._suspicious
        found = []
        for name, value in pairs:
            flagged = suspicious.get(name)
            if flagged is None:
                flagged = suspicious.get_or_build(name, suspicious_parameter,
                                                  name)
            if flagged and looks_like_identifier(value) and \
                    value not in known and value.lower() not in known:
                found.append((location, name, value))
        return found

    def _body_pairs(self, content_type: Optional[str],
                    body: bytes) -> Tuple[_Candidate, ...]:
        if "urlencoded" not in (content_type or "").lower():
            return ()
        return tuple(self._candidates(decode_urlencoded(body), "body"))

    def detect_entry(self, entry: CaptureEntry) -> List[SuspectedLeak]:
        request = entry.request
        url = request.url
        host = url.host
        key = (host, entry.site)
        third_party = self._third_party.get(key)
        if third_party is None:
            third_party = self._third_party.get_or_build(
                key, self.psl.is_third_party, host, "www." + entry.site)
        if not third_party:
            return []
        candidates = self._candidates(url.query, "query")
        body = request.body
        if body:
            content_type = request.headers.get("Content-Type")
            candidates += self._body_candidates.get_or_build(
                (content_type, body), self._body_pairs, content_type, body)
        if not candidates:
            return []
        receiver = self.psl.registrable_domain(host) or host
        url_text = str(url)
        return [SuspectedLeak(sender=entry.site, receiver=receiver,
                              parameter=name, value_preview=value[:24],
                              location=location, url=url_text)
                for location, name, value in candidates]

    def detect(self, log: CaptureLog) -> List[SuspectedLeak]:
        findings: List[SuspectedLeak] = []
        for entry in log:
            if entry.blocked_by is not None:
                continue
            findings.extend(self.detect_entry(entry))
        return findings
