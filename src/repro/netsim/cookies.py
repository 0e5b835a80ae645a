"""RFC 6265 cookie model and cookie jar.

The jar implements the pieces of RFC 6265 that the study observes: domain
matching (host-only vs domain cookies), path matching, secure-only delivery,
expiry against a simulated clock, and the sort order for the ``Cookie``
header.  It also supports *partitioned* storage — keyed by the top-level
site — which is how Safari's ITP and Brave's Shields isolate third-party
state in the browser-countermeasure experiments (§7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .stamps import ChangeStamps, Memo
from .url import Url

#: A stored cookie's identity: (partition, domain, path, name).
_Key = Tuple[str, str, str, str]


@dataclass
class Cookie:
    """One cookie as stored by the user agent."""

    name: str
    value: str
    domain: str
    path: str = "/"
    secure: bool = False
    http_only: bool = False
    host_only: bool = True
    expires: Optional[float] = None  # simulated epoch seconds; None=session
    creation_time: float = 0.0

    def is_expired(self, now: float) -> bool:
        return self.expires is not None and self.expires <= now

    def domain_matches(self, host: str) -> bool:
        """RFC 6265 §5.1.3 domain-match, honouring host-only cookies."""
        host = host.lower()
        if self.host_only:
            return host == self.domain
        if host == self.domain:
            return True
        return host.endswith("." + self.domain)

    def path_matches(self, request_path: str) -> bool:
        """RFC 6265 §5.1.4 path-match."""
        cookie_path = self.path
        if request_path == cookie_path:
            return True
        if request_path.startswith(cookie_path):
            if cookie_path.endswith("/"):
                return True
            return request_path[len(cookie_path):].startswith("/")
        return False


def parse_set_cookie(header_value: str, request_url: Url,
                     now: float = 0.0) -> Optional[Cookie]:
    """Parse one ``Set-Cookie`` header in the context of ``request_url``.

    Returns ``None`` for unparseable or rejected cookies (e.g. a ``Domain``
    attribute that does not cover the request host).
    """
    parts = header_value.split(";")
    name, sep, value = parts[0].partition("=")
    name = name.strip()
    if not sep or not name:
        return None

    cookie = Cookie(name=name, value=value.strip(),
                    domain=request_url.host.lower(),
                    creation_time=now)
    for attribute in parts[1:]:
        attr_name, _, attr_value = attribute.partition("=")
        attr_name = attr_name.strip().lower()
        attr_value = attr_value.strip()
        if attr_name == "domain" and attr_value:
            domain = attr_value.lstrip(".").lower()
            host = request_url.host.lower()
            if host != domain and not host.endswith("." + domain):
                return None  # domain attribute does not cover the host
            cookie.domain = domain
            cookie.host_only = False
        elif attr_name == "path" and attr_value.startswith("/"):
            cookie.path = attr_value
        elif attr_name == "secure":
            cookie.secure = True
        elif attr_name == "httponly":
            cookie.http_only = True
        elif attr_name == "max-age":
            try:
                cookie.expires = now + int(attr_value)
            except ValueError:
                pass
        elif attr_name == "expires" and cookie.expires is None:
            # The simulator emits Max-Age; raw Expires dates are treated as
            # far-future persistent cookies rather than parsed as RFC 1123.
            cookie.expires = now + 365 * 24 * 3600.0
    if not cookie.path.startswith("/"):
        cookie.path = "/"
    return cookie


class CookieJar:
    """User-agent cookie store with optional per-site partitioning.

    Cookies are indexed by ``(partition, domain)``, so a lookup visits
    only the buckets named by the request host's label suffixes instead
    of every stored cookie.  Each key also carries its first-insert
    sequence number, which breaks RFC 6265 order ties exactly as the
    insertion order of ``_cookies`` does.  Only ``_cookies`` is pickled;
    the index is rebuilt on load and the header memo starts empty.

    For checkpoint journals the jar also stamps every stored key with a
    change counter, so :meth:`journal_changes` can hand out just the
    cookies set since an earlier :attr:`journal_version`.
    """

    def __init__(self) -> None:
        self._cookies: Dict[_Key, Cookie] = {}
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        # (partition, domain) -> {cookie key: first-insert sequence}
        self._index: Dict[Tuple[str, str], Dict[_Key, int]] = {}
        self._sequence = 0
        # rendered Cookie header value -> its one shared string
        self._headers: Memo[str, str] = Memo(1024)
        # changes to stored keys (keys new since a version come in the
        # order they were stored), and the version of the last removal
        self._changes: ChangeStamps[_Key] = ChangeStamps()
        self._removed_at = 0
        for key in self._cookies:
            self._add_to_index(key)

    def _add_to_index(self, key: _Key) -> None:
        self._index.setdefault(key[:2], {})[key] = self._sequence
        self._sequence += 1

    def __getstate__(self) -> Dict[str, Dict[_Key, Cookie]]:
        return {"_cookies": self._cookies}

    def __setstate__(self, state: Dict[str, Dict[_Key, Cookie]]) -> None:
        self._cookies = state["_cookies"]
        self._rebuild_index()

    def set_cookie(self, cookie: Cookie, partition: str = "") -> None:
        """Store (or overwrite) a cookie, optionally in a partition."""
        key = (partition, cookie.domain, cookie.path, cookie.name)
        existing = self._cookies.get(key)
        if existing is not None:
            cookie.creation_time = existing.creation_time
        else:
            self._add_to_index(key)
        self._cookies[key] = cookie
        self._changes.stamp(key)

    def set_from_header(self, header_value: str, request_url: Url,
                        now: float = 0.0, partition: str = "") -> Optional[Cookie]:
        """Parse a ``Set-Cookie`` header and store the result."""
        cookie = parse_set_cookie(header_value, request_url, now)
        if cookie is not None:
            self.set_cookie(cookie, partition=partition)
        return cookie

    def cookies_for(self, url: Url, now: float = 0.0,
                    partition: str = "") -> List[Cookie]:
        """Cookies to attach to a request for ``url`` (RFC 6265 §5.4 order)."""
        host = url.host.lower()
        path = url.path
        insecure = url.scheme != "https"
        matches = []
        domain = host
        while True:
            bucket = self._index.get((partition, domain))
            if bucket:
                for key, sequence in bucket.items():
                    cookie = self._cookies[key]
                    if cookie.host_only and domain != host:
                        continue
                    if cookie.is_expired(now):
                        continue
                    if not cookie.path_matches(path):
                        continue
                    if cookie.secure and insecure:
                        continue
                    matches.append((-len(cookie.path), cookie.creation_time,
                                    sequence, cookie))
            dot = domain.find(".")
            if dot == -1:
                break
            domain = domain[dot + 1:]
        matches.sort()
        return [match[3] for match in matches]

    def cookie_header(self, url: Url, now: float = 0.0,
                      partition: str = "") -> str:
        """Render the ``Cookie`` request header value ('' if no cookies).

        Equal values come back as one shared string: a crawl sends the
        same few cookies on thousands of requests, so the capture log
        holds, pickles and ships each value once.
        """
        return self._headers.intern("; ".join(
            "%s=%s" % (c.name, c.value)
            for c in self.cookies_for(url, now, partition)))

    def all_cookies(self) -> List[Cookie]:
        """Every stored cookie (for instrumentation snapshots)."""
        return list(self._cookies.values())

    def clear_expired(self, now: float) -> int:
        """Drop expired cookies; returns how many were removed."""
        expired = [key for key, cookie in self._cookies.items()
                   if cookie.is_expired(now)]
        for key in expired:
            del self._cookies[key]
            self._changes.discard(key)
            bucket = self._index[key[:2]]
            del bucket[key]
            if not bucket:
                del self._index[key[:2]]
        if expired:
            self._removed()
        return len(expired)

    def clear(self) -> None:
        """Empty the jar (fresh browser profile)."""
        self._cookies.clear()
        self._index.clear()
        self._changes.clear()
        self._removed()

    def _removed(self) -> None:
        self._removed_at = self._changes.advance()

    # -- checkpoint journal ---------------------------------------------

    @property
    def journal_version(self) -> int:
        """A counter that every change to the jar advances."""
        return self._changes.version

    def journal_changes(self, since: Optional[int] = None
                        ) -> Tuple[bool, List[Tuple[_Key, Cookie]]]:
        """The cookies changed after version ``since``, for a checkpoint
        record: ``(False, [(key, cookie), ...])``.  With ``since=None``,
        or when a cookie was removed after ``since``, the whole jar
        instead: ``(True, [...])``."""
        if since is None or self._removed_at > since:
            return True, list(self._cookies.items())
        return False, [(key, self._cookies[key])
                       for key in self._changes.changed_since(since)]

    def apply_journal_changes(
            self, changes: Tuple[bool, List[Tuple[_Key, Cookie]]]) -> None:
        """Adopt cookies from :meth:`journal_changes`.  A changed key
        keeps its place in the jar's order and a new key goes last, as
        :meth:`set_cookie` does it."""
        whole, cookies = changes
        if whole:
            self._cookies = dict(cookies)
            self._rebuild_index()
            return
        for key, cookie in cookies:
            if key not in self._cookies:
                self._add_to_index(key)
            self._cookies[key] = cookie

    def __len__(self) -> int:
        return len(self._cookies)
