"""Core contribution: persona, candidate tokens, leak detection, analysis,
and the end-to-end study pipeline."""

from .aho import AhoCorasick, Match
from .assets import CompiledStudyAssets, StudyAssetsSpec
from .analysis import (
    BreakdownRow,
    ENCODING_ROWS,
    LeakAnalysis,
    LeakRelationship,
    encoding_label,
)
from .detector import DetectionResult, LeakDetector
from .heuristics import (
    HeuristicDetector,
    SuspectedLeak,
    looks_like_identifier,
    suspicious_parameter,
)
from .leakmodel import (
    CHANNEL_COOKIE,
    CHANNEL_PAYLOAD,
    CHANNEL_REFERER,
    CHANNEL_URI,
    CHANNELS,
    LeakEvent,
    channel_for_location,
)
from .persona import (
    DEFAULT_PERSONA,
    PII_ADDRESS,
    PII_DOB,
    PII_EMAIL,
    PII_GENDER,
    PII_JOB,
    PII_NAME,
    PII_PHONE,
    PII_TYPES,
    PII_USERNAME,
    Persona,
)
from .pipeline import CrawlOutcome, Study, StudyConfig, StudyResult
from .tokens import CandidateTokenSet, TokenOrigin, TokenSetConfig

__all__ = [
    "AhoCorasick",
    "BreakdownRow",
    "CHANNELS",
    "CHANNEL_COOKIE",
    "CHANNEL_PAYLOAD",
    "CHANNEL_REFERER",
    "CHANNEL_URI",
    "CandidateTokenSet",
    "CompiledStudyAssets",
    "CrawlOutcome",
    "DetectionResult",
    "DEFAULT_PERSONA",
    "ENCODING_ROWS",
    "HeuristicDetector",
    "SuspectedLeak",
    "looks_like_identifier",
    "suspicious_parameter",
    "LeakAnalysis",
    "LeakDetector",
    "LeakEvent",
    "LeakRelationship",
    "Match",
    "PII_ADDRESS",
    "PII_DOB",
    "PII_EMAIL",
    "PII_GENDER",
    "PII_JOB",
    "PII_NAME",
    "PII_PHONE",
    "PII_TYPES",
    "PII_USERNAME",
    "Persona",
    "Study",
    "StudyAssetsSpec",
    "StudyConfig",
    "StudyResult",
    "TokenOrigin",
    "TokenSetConfig",
    "channel_for_location",
    "encoding_label",
]
