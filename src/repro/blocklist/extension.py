"""Content-blocking browser extension (uBlock/Adblock-Plus style).

§7.2 evaluates the filter lists *offline*, by matching captured requests.
This module closes the loop: it turns a :class:`~repro.blocklist.RuleSet`
into an in-browser protection — the request filter an extension applies
*before* traffic leaves the machine — so the lists can be evaluated the
way users actually deploy them and compared against Brave's built-in
Shields on equal footing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..psl import default_list
from .evaluate import default_rule_sets
from .matcher import RequestContext, RuleSet


@dataclass
class AdblockExtension:
    """A content blocker driven by ABP filter lists."""

    rules: RuleSet
    name: str = "adblock-extension"

    @classmethod
    def with_default_lists(cls) -> "AdblockExtension":
        """EasyList + EasyPrivacy, the common privacy-conscious setup."""
        return cls(rules=default_rule_sets()["combined"],
                   name="easylist+easyprivacy")

    def filter_request(self, url: str, resource_type: str,
                       page_host: str) -> Optional[str]:
        """Blocker verdict for one outgoing request.

        Returns the blocker name when the request must be cancelled,
        ``None`` to let it through — the contract of the browser engine's
        extension hook.
        """
        request_host = url.split("://", 1)[-1].split("/", 1)[0]
        context = RequestContext(
            url=url,
            resource_type=resource_type,
            page_domain=default_list().registrable_domain(page_host)
            or page_host,
            is_third_party=default_list().is_third_party(request_host,
                                                         page_host))
        if self.rules.match(context).blocked:
            return self.name
        return None
