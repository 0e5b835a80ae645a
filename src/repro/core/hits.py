"""Leak hits per distinct request part (§4.1).

The detector scans four parts of every request: the URI (each query
parameter and the percent-decoded path), the ``Referer`` header, the
``Cookie`` header and the body.  A crawl's capture log shares those
parts: 19,984 seed-404 requests carry 9,127 distinct URL values, 2,820
``Referer`` values and 605 ``Cookie`` values.  :class:`LeakHits` scans
each distinct part once and hands out its hits, so every detector over
one candidate token set (the study's, Table 4's, the adblock residual
pass's) shares the work.  A URL's hits depend only on its query and
its path, so those are the keys: a query tuple hashes in C, where a
``Url`` hashes through a Python ``__hash__``, and the log's ``Url``
objects already hold both.

A hit is where a candidate token occurred and what it was: ``(location,
parameter, origin, token)``.  A part's hits are de-duplicated on
``(location, parameter, PII type, chain)``, first occurrence kept.  The
parts hold disjoint locations, so that is the detector's per-request
de-duplication too.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, FrozenSet, List, Optional, Set, Tuple

from .. import hashes
from ..netsim import (
    HttpRequest,
    decode_json,
    decode_urlencoded,
    flatten_json,
    percent_decode,
)
from ..netsim.stamps import Memo
from .leakmodel import (
    LOCATION_BODY,
    LOCATION_COOKIE,
    LOCATION_PATH,
    LOCATION_QUERY,
    LOCATION_REFERER,
)

if TYPE_CHECKING:
    from .tokens import CandidateTokenSet, TokenOrigin

#: ``(location, parameter, origin, token)``.
Hit = Tuple[str, Optional[str], "TokenOrigin", str]

#: A URL's query: its ordered (name, value) pairs.
Query = Tuple[Tuple[str, str], ...]

#: Bounds of the memos.  Each holds more keys than a calibrated study
#: has distinct parts (2,093 queries, 55 paths, 2,221 ``Referer``
#: values, 415 ``Cookie`` values, 828 bodies; its 11,189 URL values
#: differ mostly by host), so the study's three passes over its logs
#: scan each part once.
QUERY_LIMIT = 8192
PATH_LIMIT = 1024
REFERER_LIMIT = 4096
COOKIE_LIMIT = 2048
BODY_LIMIT = 2048


#: Header name -> its slot among the fields read (``Referer``,
#: ``Cookie``, ``Content-Type``), or -1.  The browser's own spellings
#: are listed, so only other spellings are case-folded.
_FIELD_SLOTS = {"referer": 0, "cookie": 1, "content-type": 2,
                "Referer": 0, "Cookie": 1, "Content-Type": 2,
                "User-Agent": -1, "Sec-Automation": -1}


class LeakHits:
    """The hits of request parts under one ``locations`` filter (``None``
    scans every location), one scan per distinct part value.

    The token set holds its hits, so the hits hold the set only weakly:
    a strong reference back would make a cycle, and a study runs with
    the cyclic GC paused.
    """

    def __init__(self, tokens: "CandidateTokenSet",
                 locations: Optional[FrozenSet[str]]) -> None:
        self._tokens = weakref.ref(tokens)
        self.locations = locations
        self._scans_query = self._wants(LOCATION_QUERY)
        self._scans_path = self._wants(LOCATION_PATH)
        self._scans_referer = self._wants(LOCATION_REFERER)
        self._scans_cookie = self._wants(LOCATION_COOKIE)
        self._scans_body = self._wants(LOCATION_BODY)
        self._queries: Memo[Query, Tuple[Hit, ...]] = Memo(QUERY_LIMIT)
        self._paths: Memo[str, Tuple[Hit, ...]] = Memo(PATH_LIMIT)
        self._referers: Memo[str, Tuple[Hit, ...]] = Memo(REFERER_LIMIT)
        self._cookies: Memo[str, Tuple[Hit, ...]] = Memo(COOKIE_LIMIT)
        self._bodies: Memo[Tuple[Optional[str], bytes],
                           Tuple[Hit, ...]] = Memo(BODY_LIMIT)

    def _wants(self, *locations: str) -> bool:
        return self.locations is None or \
            not self.locations.isdisjoint(locations)

    def of_request(self, request: HttpRequest) -> Tuple[Hit, ...]:
        """Every hit in ``request``: URI (query, then path), ``Referer``,
        ``Cookie``, body."""
        url = request.url
        hits: Tuple[Hit, ...] = ()
        if self._scans_query:
            query = url.query
            hits = self._queries.get(query)
            if hits is None:
                hits = self._queries.get_or_build(query, self._query_hits,
                                                  query)
        if self._scans_path:
            path = url.path
            path_hits = self._paths.get(path)
            if path_hits is None:
                path_hits = self._paths.get_or_build(path, self._path_hits,
                                                     path)
            hits += path_hits
        # One pass over the header fields for the three the detector
        # reads; the first field of a name wins, as in Headers.get.
        found: List[Optional[str]] = [None, None, None]
        for name, value in request.headers:
            slot = _FIELD_SLOTS.get(name)
            if slot is None:
                slot = _FIELD_SLOTS.get(name.lower(), -1)
            if slot >= 0 and found[slot] is None:
                found[slot] = value
        referer, cookie, content_type = found
        if referer and self._scans_referer:
            found_hits = self._referers.get(referer)
            if found_hits is None:
                found_hits = self._referers.get_or_build(
                    referer, self._referer_hits, referer)
            hits += found_hits
        if cookie and self._scans_cookie:
            found_hits = self._cookies.get(cookie)
            if found_hits is None:
                found_hits = self._cookies.get_or_build(
                    cookie, self._cookie_hits, cookie)
            hits += found_hits
        body = request.body
        if body and self._scans_body:
            key = (content_type, body)
            found_hits = self._bodies.get(key)
            if found_hits is None:
                found_hits = self._bodies.get_or_build(
                    key, self._body_hits, content_type, body)
            hits += found_hits
        return hits

    # -- one scan per distinct part ------------------------------------------

    def _query_hits(self, query: Query) -> Tuple[Hit, ...]:
        return self._scan([(LOCATION_QUERY, name, value)
                           for name, value in query])

    def _path_hits(self, path: str) -> Tuple[Hit, ...]:
        return self._scan([(LOCATION_PATH, None, percent_decode(path))])

    def _referer_hits(self, referer: str) -> Tuple[Hit, ...]:
        return self._scan([(LOCATION_REFERER, None,
                            percent_decode(referer))])

    def _cookie_hits(self, cookie: str) -> Tuple[Hit, ...]:
        targets = []
        for pair in cookie.split(";"):
            name, _, value = pair.strip().partition("=")
            targets.append((LOCATION_COOKIE, name, value))
        return self._scan(targets)

    def _body_hits(self, content_type: Optional[str],
                   body: bytes) -> Tuple[Hit, ...]:
        return self._scan(_body_targets((content_type or "").lower(), body))

    def _scan(self, targets: List[Tuple[str, Optional[str], str]]
              ) -> Tuple[Hit, ...]:
        locations = self.locations
        scan_distinct = self._tokens().scan_distinct
        hits: List[Hit] = []
        seen: Set[Tuple] = set()
        for location, parameter, text in targets:
            if not text:
                continue
            if locations is not None and location not in locations:
                continue
            for origin in scan_distinct(text):
                key = (location, parameter, origin.pii_type, origin.chain)
                if key in seen:
                    continue
                seen.add(key)
                hits.append((location, parameter, origin,
                             _token_for(origin)))
        return tuple(hits)


def _body_targets(content_type: str, body: bytes
                  ) -> List[Tuple[str, Optional[str], str]]:
    """(location, parameter, text) of a body: JSON leaves, urlencoded
    pairs, or the whole text."""
    if "json" in content_type:
        payload = decode_json(body)
        if payload is not None:
            return [(LOCATION_BODY, key, value)
                    for key, value in flatten_json(payload)]
    body_text = body.decode("utf-8", errors="replace")
    if "urlencoded" in content_type or ("=" in body_text
                                        and "{" not in body_text):
        return [(LOCATION_BODY, name, value)
                for name, value in decode_urlencoded(body)]
    return [(LOCATION_BODY, None, body_text)]


def _token_for(origin: "TokenOrigin") -> str:
    """The matched token, for reporting."""
    if not origin.chain:
        return origin.surface_form
    return hashes.apply_chain(origin.surface_form, origin.chain)
