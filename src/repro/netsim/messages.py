"""HTTP request/response models as captured by the instrumented browser.

These are observation-side objects: every field the paper inspects when
detecting PII leakage is first-class — the full URL, the ``Referer`` header,
the ``Cookie`` header, the payload body, plus the *request initiator chain*
(used when matching blocklists in §7.2) and the resource type (used when
applying ``$script``/``$image`` filter options).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class HttpRequest:
    """One outgoing HTTP request."""

    method: str
    url: Url
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    resource_type: str = RESOURCE_DOCUMENT
    #: URLs that caused this request, outermost first (document, script, ...).
    initiator_chain: Tuple[Url, ...] = ()
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if not self.method.isupper():
            self.method = self.method.upper()
        if self.resource_type not in RESOURCE_TYPES:
            raise ValueError("unknown resource type: %r" % self.resource_type)

    @property
    def referer(self) -> Optional[str]:
        return self.headers.get("Referer")

    @property
    def cookie_header(self) -> Optional[str]:
        return self.headers.get("Cookie")

    def body_text(self) -> str:
        """Payload decoded as UTF-8 (lossy) for substring scanning."""
        return self.body.decode("utf-8", errors="replace")


@dataclass
class HttpResponse:
    """One incoming HTTP response."""

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""

    @property
    def set_cookie_headers(self) -> List[str]:
        return self.headers.get_all("Set-Cookie")

    @property
    def location(self) -> Optional[str]:
        return self.headers.get("Location")

    @property
    def is_redirect(self) -> bool:
        return self.status in (301, 302, 303, 307, 308)
