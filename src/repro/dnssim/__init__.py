"""DNS substrate: zones, resolver, CNAME cloaking detection."""

from .flaky import FlakyResolver
from .cloaking import (
    DEFAULT_CLOAKING_ZONES,
    CloakingVerdict,
    CnameCloakingDetector,
)
from .resolver import (
    RECORD_A,
    RECORD_CNAME,
    DnsError,
    Resolution,
    Resolver,
    ResourceRecord,
    Zone,
)

__all__ = [
    "DEFAULT_CLOAKING_ZONES",
    "CloakingVerdict",
    "CnameCloakingDetector",
    "DnsError",
    "FlakyResolver",
    "RECORD_A",
    "RECORD_CNAME",
    "Resolution",
    "Resolver",
    "ResourceRecord",
    "Zone",
]
