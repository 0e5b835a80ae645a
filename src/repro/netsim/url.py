"""URL model with ordered query parameters.

The leak detector needs byte-accurate access to every component of a request
URL — scheme, host, path, and the query string as an *ordered multimap*
(trackers routinely repeat parameter names, and parameter order is part of
the observable fingerprint).  The standard library flattens some of these
distinctions, so the model is implemented from scratch, including RFC 3986
percent-encoding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from .stamps import Memo

_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~")
_HEX_DIGITS = "0123456789ABCDEF"
_ESCAPE = re.compile(r"%[0-9A-Fa-f]{2}")


@lru_cache(maxsize=64)
def _encode_table(safe: str) -> Tuple[str, ...]:
    """Byte -> output text for :func:`percent_encode` with ``safe``."""
    keep = _UNRESERVED.union(safe)
    return tuple(
        chr(byte) if chr(byte) in keep
        else "%%%c%c" % (_HEX_DIGITS[byte >> 4], _HEX_DIGITS[byte & 0xF])
        for byte in range(256))


def percent_encode(text: str, safe: str = "") -> str:
    """RFC 3986 percent-encoding; ``safe`` characters pass through.

    With no ``safe`` characters the encoding of each text is kept: a
    crawl encodes the same few hundred query keys and values thousands
    of times.
    """
    if safe:
        return _encode(text, safe)
    encoded = _ENCODED.get(text)
    if encoded is None:
        encoded = _ENCODED.get_or_build(text, _encode, text, "")
    return encoded


def _encode(text: str, safe: str) -> str:
    # Latin-1 maps each UTF-8 byte to the code point of the same value,
    # so the byte table serves as a ``str.translate`` table.
    return text.encode("utf-8").decode("latin-1").translate(
        _encode_table(safe))


#: text -> :func:`percent_encode` of it with no ``safe`` characters.
_ENCODED: Memo[str, str] = Memo(1024)


@lru_cache(maxsize=8192)
def percent_decode(text: str) -> str:
    """Inverse of :func:`percent_encode`; tolerates malformed escapes.

    Only ``%`` followed by two hex digits (RFC 3986 ``pct-encoded``) is
    decoded; any other ``%`` is kept literally.  ``+`` decodes to a space.

    Memoised: the detector percent-decodes every path/referer of every
    captured request, and a crawl revisits the same few thousand
    strings constantly.  Decoding is pure, so the cache is invisible.
    """
    if "%" not in text and "+" not in text:
        return text
    out = bytearray()
    index = 0
    for match in _ESCAPE.finditer(text):
        out += text[index:match.start()].replace("+", " ").encode("utf-8")
        out.append(int(match.group()[1:], 16))
        index = match.end()
    out += text[index:].replace("+", " ").encode("utf-8")
    return out.decode("utf-8", errors="replace")


def encode_query(params: Iterable[Tuple[str, str]]) -> str:
    """Serialize ordered (key, value) pairs as a query string."""
    return "&".join(
        "%s=%s" % (percent_encode(key), percent_encode(value))
        for key, value in params)


def decode_query(query: str) -> List[Tuple[str, str]]:
    """Parse a query string into ordered (key, value) pairs."""
    pairs: List[Tuple[str, str]] = []
    if not query:
        return pairs
    for chunk in query.split("&"):
        if not chunk:
            continue
        key, _, value = chunk.partition("=")
        pairs.append((percent_decode(key), percent_decode(value)))
    return pairs


@dataclass(frozen=True, init=False)
class Url:
    """An absolute http(s) URL with ordered query parameters.

    A crawl holds, pickles and ships one per captured request, so the
    fields live in ``__slots__`` (no per-instance ``__dict__``) and a
    pickle carries only the six field values.  The slots are spelled out
    rather than ``dataclass(slots=True)``, which needs Python 3.10; a
    slot cannot carry a class-level default, so the defaults live in
    :meth:`__init__`.  The dataclass still generates ``__eq__``,
    ``__hash__`` and ``__repr__``.
    """

    __slots__ = ("scheme", "host", "path", "query", "fragment", "port")

    scheme: str
    host: str
    path: str
    query: Tuple[Tuple[str, str], ...]
    fragment: str
    port: Optional[int]

    def __init__(self, scheme: str = "https", host: str = "",
                 path: str = "/", query: Tuple[Tuple[str, str], ...] = (),
                 fragment: str = "", port: Optional[int] = None) -> None:
        if scheme not in ("http", "https"):
            raise ValueError("unsupported scheme: %r" % scheme)
        if not host:
            raise ValueError("URL requires a host")
        if not path.startswith("/"):
            path = "/" + path
        setattr_ = object.__setattr__
        setattr_(self, "scheme", scheme)
        setattr_(self, "host", host)
        setattr_(self, "path", path)
        setattr_(self, "query", query)
        setattr_(self, "fragment", fragment)
        setattr_(self, "port", port)

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        return (Url, (self.scheme, self.host, self.path, self.query,
                      self.fragment, self.port))

    @classmethod
    def parse(cls, text: str) -> "Url":
        """Parse an absolute URL string."""
        scheme, sep, rest = text.partition("://")
        if not sep:
            raise ValueError("not an absolute URL: %r" % text)
        rest, _, fragment = rest.partition("#")
        rest, _, query = rest.partition("?")
        slash = rest.find("/")
        if slash == -1:
            authority, path = rest, "/"
        else:
            authority, path = rest[:slash], rest[slash:]
        host, _, port_text = authority.partition(":")
        port = int(port_text) if port_text else None
        return cls(scheme.lower(), host.lower(), path,
                   tuple(decode_query(query)), fragment, port)

    @property
    def origin(self) -> str:
        """scheme://host[:port] — the same-origin tuple rendered as text."""
        if self.port is None:
            return "%s://%s" % (self.scheme, self.host)
        return "%s://%s:%d" % (self.scheme, self.host, self.port)

    @property
    def query_string(self) -> str:
        return encode_query(self.query)

    def query_get(self, key: str) -> Optional[str]:
        """First value for ``key``, or None."""
        for name, value in self.query:
            if name == key:
                return value
        return None

    def query_all(self, key: str) -> List[str]:
        """All values for ``key``, in order."""
        return [value for name, value in self.query if name == key]

    def query_dict(self) -> Dict[str, str]:
        """Last-writer-wins view of the query (convenience for tests)."""
        return dict(self.query)

    def with_query(self, params: Iterable[Tuple[str, str]]) -> "Url":
        """A copy with the query replaced."""
        return Url(self.scheme, self.host, self.path, tuple(params),
                   self.fragment, self.port)

    def adding_query(self, params: Iterable[Tuple[str, str]]) -> "Url":
        """A copy with parameters appended after the existing ones."""
        return Url(self.scheme, self.host, self.path,
                   self.query + tuple(params), self.fragment, self.port)

    def with_path(self, path: str) -> "Url":
        """A copy with the path replaced."""
        return Url(self.scheme, self.host, path, self.query, self.fragment,
                   self.port)

    def without_query(self) -> "Url":
        """A copy with the query and fragment stripped."""
        return Url(self.scheme, self.host, self.path, (), "", self.port)

    def join(self, reference: str) -> "Url":
        """Resolve an absolute or path-absolute reference against this URL."""
        if "://" in reference:
            return Url.parse(reference)
        path, _, query = reference.partition("?")
        if not reference.startswith("/"):
            # Relative path: resolve against the current directory.
            path = "%s/%s" % (self.path.rsplit("/", 1)[0], path)
        return Url(self.scheme, self.host, path,
                   tuple(decode_query(query)), "", self.port)

    def __str__(self) -> str:
        text = "%s://%s" % (self.scheme, self.host)
        if self.port is not None:
            text += ":%d" % self.port
        text += self.path
        if self.query:
            text += "?" + self.query_string
        if self.fragment:
            text += "#" + self.fragment
        return text
