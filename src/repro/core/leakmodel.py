"""Shared vocabulary for PII leaks (§4.1).

Defines the four leak channels the paper detects, and the
:class:`LeakEvent` record the detector emits — one per (request, PII token)
observation, carrying everything the downstream analyses group by: sender,
receiver, channel, encoding chain, PII type, flow stage, and the parameter
name that carried the value (the raw material for §5's trackid inference).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .. import hashes

# The four leakage methods of Figure 1.
CHANNEL_REFERER = "referer"
CHANNEL_URI = "uri"
CHANNEL_COOKIE = "cookie"
CHANNEL_PAYLOAD = "payload"

CHANNELS = (CHANNEL_REFERER, CHANNEL_URI, CHANNEL_COOKIE, CHANNEL_PAYLOAD)

#: Where in the request the token was found, mapped to its channel.
LOCATION_QUERY = "query"            # -> uri
LOCATION_PATH = "path"              # -> uri
LOCATION_REFERER = "referer"        # -> referer
LOCATION_COOKIE = "cookie"          # -> cookie
LOCATION_BODY = "body"              # -> payload

_LOCATION_TO_CHANNEL = {
    LOCATION_QUERY: CHANNEL_URI,
    LOCATION_PATH: CHANNEL_URI,
    LOCATION_REFERER: CHANNEL_REFERER,
    LOCATION_COOKIE: CHANNEL_COOKIE,
    LOCATION_BODY: CHANNEL_PAYLOAD,
}


def channel_for_location(location: str) -> str:
    """Map a token location inside a request to its paper leak channel."""
    return _LOCATION_TO_CHANNEL[location]


@dataclass(frozen=True)
class LeakEvent:
    """One detected PII leak observation."""

    sender: str                     # registrable domain of the visited site
    receiver: str                   # attributed third-party domain
    request_host: str               # literal host the request went to
    channel: str                    # one of CHANNELS
    location: str                   # finer-grained location
    pii_type: str                   # repro.core.persona PII_* value
    chain: Tuple[str, ...]          # transform chain, () = plaintext
    parameter: Optional[str]        # query/body/cookie parameter name
    stage: str                      # flow stage (netsim.har STAGE_*)
    url: str                        # full request URL
    cloaked: bool = False           # receiver reached via CNAME cloaking
    surface_form: str = ""          # the persona surface form that leaked
    token: str = ""                 # the matched candidate token
    timestamp: float = 0.0          # simulated time the request fired

    @property
    def encoding_label(self) -> str:
        """The paper's encoding notation (``plaintext``, ``sha256 of md5``)."""
        return hashes.chain_label(self.chain)
