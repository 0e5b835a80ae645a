"""HAR-style capture log.

The paper records, for every step of every authentication flow: HTTP
requests (URL, headers, payload body), HTTP responses (URL, headers) and
cookies.  :class:`CaptureLog` is that recording — the single artifact the
whole analysis pipeline (leak detection, tracking analysis, blocklist
evaluation) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

from .cookies import Cookie
from .messages import HttpRequest, HttpResponse

# Stages of the paper's manual authentication flow (§3.2).
STAGE_HOMEPAGE = "homepage"
STAGE_SIGNUP = "signup"
STAGE_CONFIRM = "confirm"
STAGE_SIGNIN = "signin"
STAGE_RELOAD = "reload"
STAGE_SUBPAGE = "subpage"

FLOW_STAGES = (
    STAGE_HOMEPAGE,
    STAGE_SIGNUP,
    STAGE_CONFIRM,
    STAGE_SIGNIN,
    STAGE_RELOAD,
    STAGE_SUBPAGE,
)

#: Stages in which the user has just typed PII into a form ("authentication
#: flow" pages in the paper's terminology, as opposed to ordinary subpages).
AUTH_STAGES = frozenset({STAGE_SIGNUP, STAGE_CONFIRM, STAGE_SIGNIN,
                         STAGE_RELOAD})


@dataclass(init=False)
class CaptureEntry:
    """One request/response exchange with its page context.

    Slotted and pickled as its field values, like the request and
    response it holds: the capture log is the crawl's dataset, its shard
    IPC payload and its checkpoint.
    """

    __slots__ = ("request", "response", "site", "stage", "page_url",
                 "blocked_by")

    request: HttpRequest
    response: Optional[HttpResponse]
    site: str                      # registrable domain of the visited site
    stage: str                     # one of FLOW_STAGES
    page_url: str                  # document URL active when request fired
    blocked_by: Optional[str]      # protection that suppressed it, if any

    def __init__(self, request: HttpRequest,
                 response: Optional[HttpResponse], site: str, stage: str,
                 page_url: str, blocked_by: Optional[str] = None) -> None:
        self.request = request
        self.response = response
        self.site = site
        self.stage = stage
        self.page_url = page_url
        self.blocked_by = blocked_by

    def __reduce__(self) -> Tuple[type, Tuple[object, ...]]:
        return (CaptureEntry, (self.request, self.response, self.site,
                               self.stage, self.page_url, self.blocked_by))

    @property
    def was_blocked(self) -> bool:
        return self.blocked_by is not None


@dataclass
class CaptureLog:
    """Ordered log of all exchanges observed during a crawl."""

    entries: List[CaptureEntry] = field(default_factory=list)
    stored_cookies: List[Cookie] = field(default_factory=list)

    def record(self, entry: CaptureEntry) -> None:
        self.entries.append(entry)

    def snapshot_cookies(self, cookies: List[Cookie]) -> None:
        """Store a copy of the browser's cookie store (end-of-flow state)."""
        self.stored_cookies = list(cookies)

    def requests(self, include_blocked: bool = False) -> List[HttpRequest]:
        """All requests that actually left the browser (by default)."""
        return [e.request for e in self.entries
                if include_blocked or not e.was_blocked]

    def filter(self, predicate: Callable[[CaptureEntry], bool]) -> List[CaptureEntry]:
        return [e for e in self.entries if predicate(e)]

    def by_stage(self, stage: str) -> List[CaptureEntry]:
        return [e for e in self.entries if e.stage == stage]

    def by_site(self, site: str) -> List[CaptureEntry]:
        return [e for e in self.entries if e.site == site]

    def extend(self, other: "CaptureLog") -> None:
        """Merge another log (used when aggregating across sites)."""
        self.entries.extend(other.entries)
        self.stored_cookies.extend(other.stored_cookies)

    def __iter__(self) -> Iterator[CaptureEntry]:
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)
