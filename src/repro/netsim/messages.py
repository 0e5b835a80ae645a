"""HTTP request/response models as captured by the instrumented browser.

These are observation-side objects: every field the paper inspects when
detecting PII leakage is first-class — the full URL, the ``Referer`` header,
the ``Cookie`` header, the payload body, plus the *request initiator chain*
(used when matching blocklists in §7.2) and the resource type (used when
applying ``$script``/``$image`` filter options).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .headers import Headers
from .url import Url

#: Resource types mirroring the Chromium/ABP taxonomy used by blocklists.
RESOURCE_DOCUMENT = "document"
RESOURCE_SUBDOCUMENT = "subdocument"
RESOURCE_SCRIPT = "script"
RESOURCE_IMAGE = "image"
RESOURCE_STYLESHEET = "stylesheet"
RESOURCE_XHR = "xmlhttprequest"
RESOURCE_PING = "ping"

RESOURCE_TYPES = (
    RESOURCE_DOCUMENT,
    RESOURCE_SUBDOCUMENT,
    RESOURCE_SCRIPT,
    RESOURCE_IMAGE,
    RESOURCE_STYLESHEET,
    RESOURCE_XHR,
    RESOURCE_PING,
)
_RESOURCE_TYPE_SET = frozenset(RESOURCE_TYPES)


@dataclass(init=False)
class HttpRequest:
    """One outgoing HTTP request.

    Slotted and pickled as its field values, like :class:`Url`: the
    capture log holds one per exchange.
    """

    __slots__ = ("method", "url", "headers", "body", "resource_type",
                 "initiator_chain", "timestamp")

    method: str
    url: Url
    headers: Headers
    body: bytes
    resource_type: str
    #: URLs that caused this request, outermost first (document, script, ...).
    initiator_chain: Tuple[Url, ...]
    timestamp: float

    def __init__(self, method: str, url: Url,
                 headers: Optional[Headers] = None, body: bytes = b"",
                 resource_type: str = RESOURCE_DOCUMENT,
                 initiator_chain: Tuple[Url, ...] = (),
                 timestamp: float = 0.0) -> None:
        if not method.isupper():
            method = method.upper()
        if resource_type not in _RESOURCE_TYPE_SET:
            raise ValueError("unknown resource type: %r" % resource_type)
        self.method = method
        self.url = url
        self.headers = Headers() if headers is None else headers
        self.body = body
        self.resource_type = resource_type
        self.initiator_chain = initiator_chain
        self.timestamp = timestamp

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        return (HttpRequest, (self.method, self.url, self.headers, self.body,
                              self.resource_type, self.initiator_chain,
                              self.timestamp))

    @property
    def referer(self) -> Optional[str]:
        return self.headers.get("Referer")

    @property
    def cookie_header(self) -> Optional[str]:
        return self.headers.get("Cookie")

    def body_text(self) -> str:
        """Payload decoded as UTF-8 (lossy) for substring scanning."""
        return self.body.decode("utf-8", errors="replace")


@dataclass(init=False)
class HttpResponse:
    """One incoming HTTP response.

    ``latency_seconds`` is how long a slow origin took to answer (set by
    fault injection, else None).  It is a slot but not a dataclass
    field, so ``repr`` and ``==`` do not see it; a pickle carries it.

    ``page`` is the :class:`~repro.websim.html.ParsedPage` the synthetic
    web's server rendered ``body`` from, else None.  The browser takes
    it off the response in place of parsing the body.  It is a slot but
    not a dataclass field, and no pickle carries it: the capture log
    keeps only what a real browser would have received, the bytes.
    """

    __slots__ = ("status", "headers", "body", "latency_seconds", "page")

    status: int
    headers: Headers
    body: bytes

    def __init__(self, status: int = 200, headers: Optional[Headers] = None,
                 body: bytes = b"",
                 latency_seconds: Optional[float] = None,
                 page: Optional[object] = None) -> None:
        self.status = status
        self.headers = Headers() if headers is None else headers
        self.body = body
        self.latency_seconds = latency_seconds
        self.page = page

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        return (HttpResponse, (self.status, self.headers, self.body,
                               self.latency_seconds))

    @property
    def set_cookie_headers(self) -> List[str]:
        return self.headers.get_all("Set-Cookie")

    @property
    def location(self) -> Optional[str]:
        return self.headers.get("Location")

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307, 308)
