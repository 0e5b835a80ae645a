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
from typing import Dict, List, Optional, Set, Tuple

from .stamps import ChangeStamps, Memo
from .url import Url

#: A stored cookie's identity: (partition, domain, path, name).
_Key = Tuple[str, str, str, str]
#: A bucket of the index: (partition, domain).
_Bucket = Tuple[str, str]
#: What a rendered ``Cookie`` header is kept for: (partition, request
#: host, path, scheme).
_View = Tuple[str, str, str, str]

#: The expiry of a render whose cookies never expire.
_NEVER = float("inf")


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
    pair, _, attributes = header_value.partition(";")
    return _cookie(pair, _parse_attributes(attributes,
                                           request_url.host.lower()), now)


#: A ``Set-Cookie`` header's attributes as parsed for one request host:
#: (domain, host-only, path, secure, http-only, expiry offset from the
#: time the cookie is set, or None for a session cookie).
_Attributes = Tuple[str, bool, str, bool, bool, Optional[float]]

#: The parse of attributes whose ``Domain`` does not cover the host.
_REJECTED = ("",)


def _parse_attributes(attributes: str, host: str) -> _Attributes:
    """The attributes (the header after its first ``;``) of a cookie set
    by a response from ``host``, or :data:`_REJECTED`."""
    domain, host_only, path = host, True, "/"
    secure = http_only = False
    offset: Optional[float] = None
    for attribute in attributes.split(";"):
        attr_name, _, attr_value = attribute.partition("=")
        attr_name = attr_name.strip().lower()
        attr_value = attr_value.strip()
        if attr_name == "domain" and attr_value:
            domain = attr_value.lstrip(".").lower()
            if host != domain and not host.endswith("." + domain):
                return _REJECTED  # domain attribute does not cover the host
            host_only = False
        elif attr_name == "path" and attr_value.startswith("/"):
            path = attr_value
        elif attr_name == "secure":
            secure = True
        elif attr_name == "httponly":
            http_only = True
        elif attr_name == "max-age":
            try:
                offset = int(attr_value)
            except ValueError:
                pass
        elif attr_name == "expires" and offset is None:
            # The simulator emits Max-Age; raw Expires dates are treated as
            # far-future persistent cookies rather than parsed as RFC 1123.
            offset = 365 * 24 * 3600.0
    return domain, host_only, path, secure, http_only, offset


def _cookie(pair: str, attributes: _Attributes,
            now: float) -> Optional[Cookie]:
    """The cookie that ``name=value`` and parsed attributes set at
    ``now``, or None for an unparseable pair or rejected attributes."""
    name, sep, value = pair.partition("=")
    name = name.strip()
    if not sep or not name or attributes is _REJECTED:
        return None
    domain, host_only, path, secure, http_only, offset = attributes
    return Cookie(name=name, value=value.strip(), domain=domain, path=path,
                  secure=secure, http_only=http_only, host_only=host_only,
                  expires=None if offset is None else now + offset,
                  creation_time=now)


def _buckets(partition: str, host: str) -> Tuple[_Bucket, ...]:
    """The index buckets a request to ``host`` reads: one per label
    suffix of the host, the host itself first."""
    buckets = [(partition, host)]
    dot = host.find(".")
    while dot != -1:
        host = host[dot + 1:]
        buckets.append((partition, host))
        dot = host.find(".")
    return tuple(buckets)


class CookieJar:
    """User-agent cookie store with optional per-site partitioning.

    Cookies are indexed by ``(partition, domain)``, so a lookup visits
    only the buckets named by the request host's label suffixes instead
    of every stored cookie.  Each key also carries its first-insert
    sequence number, which breaks RFC 6265 order ties exactly as the
    insertion order of ``_cookies`` does.

    A rendered ``Cookie`` header is kept per (partition, host, path,
    scheme) and handed out again while no bucket it read has changed
    and the clock stands between the time it was rendered and the
    earliest expiry among its cookies.  A change to a bucket drops the
    renders that read it; removing cookies drops them all.  The parse
    of each ``Set-Cookie`` header's attributes is kept per request host.
    Only ``_cookies`` is pickled; the index is rebuilt on load and the
    memos start empty.

    For checkpoint journals the jar also stamps every stored key with a
    change counter, so :meth:`journal_changes` can hand out just the
    cookies set since an earlier :attr:`journal_version`.
    """

    def __init__(self) -> None:
        self._cookies: Dict[_Key, Cookie] = {}
        self._rebuild_index()

    def _rebuild_index(self) -> None:
        # (partition, domain) -> {cookie key: first-insert sequence}
        self._index: Dict[_Bucket, Dict[_Key, int]] = {}
        self._sequence = 0
        # rendered Cookie header value -> its one shared string
        self._headers: Memo[str, str] = Memo(1024)
        # (request host, attributes) -> their parse (see set_from_header)
        self._attributes: Memo[Tuple[str, str], _Attributes] = Memo(256)
        self._forget_rendered()
        # changes to stored keys (keys new since a version come in the
        # order they were stored), and the version of the last removal
        self._changes: ChangeStamps[_Key] = ChangeStamps()
        self._removed_at = 0
        for key in self._cookies:
            self._add_to_index(key)

    def _forget_rendered(self) -> None:
        #: (partition, host, path, scheme) -> (header value, the clock it
        #: was rendered at, the earliest expiry among its cookies, the
        #: buckets it read)
        self._rendered: Memo[_View, Tuple[str, float, float,
                                          Tuple[_Bucket, ...]]] = Memo(256)
        #: bucket -> the views whose render read it
        self._readers: Dict[_Bucket, Set[_View]] = {}
        #: the latest clock a kept header was rendered at
        self._rendered_until = -_NEVER

    def _changed(self, bucket: _Bucket) -> None:
        """Drop the renders that read ``bucket``."""
        views = self._readers.pop(bucket, None)
        if not views:
            return
        readers = self._readers
        for view in views:
            for other in self._rendered.pop(view)[3]:
                others = readers.get(other)
                if others is not None:
                    others.discard(view)
                    if not others:
                        del readers[other]

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
        if existing is None:
            self._add_to_index(key)
            self._changed(key[:2])
        else:
            cookie.creation_time = existing.creation_time
            if not self._renders_alike(existing, cookie):
                self._changed(key[:2])
        self._cookies[key] = cookie
        self._changes.stamp(key)

    def _renders_alike(self, old: Cookie, new: Cookie) -> bool:
        """Whether every kept render stays right with ``new`` in place
        of ``old``: the same header text in the same renders, and an
        expiry no earlier.  That needs ``old`` live at every kept
        render's clock, or no render left it out for having expired."""
        if new.value != old.value or new.secure != old.secure or \
                new.host_only != old.host_only:
            return False
        if old.expires is None:
            return new.expires is None
        return old.expires > self._rendered_until and \
            (new.expires is None or new.expires >= old.expires)

    def set_from_header(self, header_value: str, request_url: Url,
                        now: float = 0.0, partition: str = "") -> Optional[Cookie]:
        """Parse a ``Set-Cookie`` header and store the result.

        The attributes (the header after its first ``;``) parse the same
        for every response from one host, so their parse is kept per
        (host, attributes); only ``name=value`` is split per call.
        """
        pair, _, attributes = header_value.partition(";")
        key = (request_url.host, attributes)
        parsed = self._attributes.get(key)
        if parsed is None:
            parsed = self._attributes.get_or_build(
                key, _parse_attributes, attributes, request_url.host.lower())
        cookie = _cookie(pair, parsed, now)
        if cookie is not None:
            self.set_cookie(cookie, partition=partition)
        return cookie

    def cookies_for(self, url: Url, now: float = 0.0,
                    partition: str = "") -> List[Cookie]:
        """Cookies to attach to a request for ``url`` (RFC 6265 §5.4 order)."""
        host = url.host.lower()
        return self._matches(url, now, host, _buckets(partition, host))

    def _matches(self, url: Url, now: float, host: str,
                 buckets: Tuple[_Bucket, ...]) -> List[Cookie]:
        """:meth:`cookies_for` ``url``, whose lower-case host and index
        buckets are given."""
        path = url.path
        insecure = url.scheme != "https"
        matches = []
        for bucket_key in buckets:
            bucket = self._index.get(bucket_key)
            if bucket:
                domain = bucket_key[1]
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
        matches.sort()
        return [match[3] for match in matches]

    def cookie_header(self, url: Url, now: float = 0.0,
                      partition: str = "") -> str:
        """Render the ``Cookie`` request header value ('' if no cookies).

        A render is kept and handed out again while it stays right (see
        the class docstring).  Equal values come back as one shared
        string: a crawl sends the same few cookies on thousands of
        requests, so the capture log holds, pickles and ships each value
        once.
        """
        view = (partition, url.host, url.path, url.scheme)
        rendered = self._rendered.get(view)
        if rendered is not None and rendered[1] <= now < rendered[2]:
            return rendered[0]
        host = url.host.lower()
        buckets = _buckets(partition, host)
        cookies = self._matches(url, now, host, buckets)
        value = self._headers.intern("; ".join(
            "%s=%s" % (c.name, c.value) for c in cookies))
        if len(self._rendered) >= self._rendered.limit:
            self._forget_rendered()
        self._rendered[view] = (value, now, min(
            [c.expires for c in cookies if c.expires is not None],
            default=_NEVER), buckets)
        readers = self._readers
        for bucket in buckets:
            views = readers.get(bucket)
            if views is None:
                views = readers[bucket] = set()
            views.add(view)
        if now > self._rendered_until:
            self._rendered_until = now
        return value

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
            self._forget_rendered()
        return len(expired)

    def clear(self) -> None:
        """Empty the jar (fresh browser profile)."""
        self._cookies.clear()
        self._index.clear()
        self._changes.clear()
        self._removed()
        self._forget_rendered()

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
            self._changed(key[:2])

    def __len__(self) -> int:
        return len(self._cookies)
