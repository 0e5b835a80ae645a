"""Content-blocking browser extension (uBlock/Adblock-Plus style).

§7.2 evaluates the filter lists *offline*, by matching captured requests.
This module closes the loop: it turns a :class:`~repro.blocklist.RuleSet`
into an in-browser protection — the request filter an extension applies
*before* traffic leaves the machine — so the lists can be evaluated the
way users actually deploy them and compared against Brave's built-in
Shields on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..netsim.stamps import Memo
from ..psl import default_list
from .evaluate import default_rule_sets
from .matcher import RequestContext, RuleSet


@dataclass
class AdblockExtension:
    """A content blocker driven by ABP filter lists.

    A crawl asks about the same request again and again (9,091 requests
    for 3,805 distinct ones in the calibrated adblock crawl), so each
    verdict is kept per (URL, resource type, page host).  The page host
    is in the key, so a key recurs only while its site is crawled, and
    512 keys miss 52 more requests than an unbounded memo would.  The
    rules are not edited once the extension is filtering.
    """

    rules: RuleSet
    name: str = "adblock-extension"
    #: (url, resource type, page host) -> whether the rules block it.
    _verdicts: Memo[Tuple[str, str, str], bool] = field(
        default_factory=lambda: Memo(512), init=False, repr=False,
        compare=False)

    @classmethod
    def with_default_lists(cls) -> "AdblockExtension":
        """EasyList + EasyPrivacy, the common privacy-conscious setup."""
        return cls(rules=default_rule_sets()["combined"],
                   name="easylist+easyprivacy")

    def __reduce__(self) -> Tuple[type, Tuple[RuleSet, str]]:
        # The verdicts are left out (a crawl's checkpoint snapshot
        # pickles its extension): an unpickled extension starts empty.
        return (type(self), (self.rules, self.name))

    def filter_request(self, url: str, resource_type: str,
                       page_host: str) -> Optional[str]:
        """Blocker verdict for one outgoing request.

        Returns the blocker name when the request must be cancelled,
        ``None`` to let it through — the contract of the browser engine's
        extension hook.
        """
        key = (url, resource_type, page_host)
        blocked = self._verdicts.get(key)
        if blocked is None:
            blocked = self._verdicts.get_or_build(
                key, self._blocks, url, resource_type, page_host)
        return self.name if blocked else None

    def _blocks(self, url: str, resource_type: str, page_host: str) -> bool:
        request_host = url.split("://", 1)[-1].split("/", 1)[0]
        context = RequestContext(
            url=url,
            resource_type=resource_type,
            page_domain=default_list().registrable_domain(page_host)
            or page_host,
            is_third_party=default_list().is_third_party(request_host,
                                                         page_host))
        return self.rules.match(context).blocked
