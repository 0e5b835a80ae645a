"""Candidate token precomputation (§3.1).

The paper pre-computes, for every PII value, the set of strings produced by
"all supported encodings, hashes, and checksums", chained up to three layers
deep.  A leak is then found by searching raw HTTP traffic for any of those
strings.

Enumerating the *full* transform corpus at every chain depth is
combinatorially explosive (33^3 per surface form), so the default
configuration mirrors how the search space behaves in practice:

* depth 1 applies the entire corpus (trackers pick arbitrary single
  transforms);
* depths 2-3 chain over the alphabet of transforms actually observed in
  multi-layer obfuscations (base64/md5/sha1/sha256 — Table 1b's "SHA256 of
  MD5" and "BASE64, SHA1 and SHA256" forms).

Both knobs are configurable; ``benchmarks/bench_ablation_depth.py`` measures
the recall/cost trade-off.

The search runs through a :class:`PatternIndex` keyed by each token's first
few characters: tokens are hash and encoding outputs that share almost no
prefixes, so a trie over them would hold about one state per character and
scan no faster than one anchor lookup per text position.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import (Dict, Generic, Iterator, List, Optional, Sequence, Tuple,
                    TypeVar)

from .. import hashes
from ..obs import NULL_RECORDER, Recorder
from .persona import Persona

_HEX_CHARS = set("0123456789abcdef")

#: Longest anchor :class:`PatternIndex` keys on; the default
#: ``TokenSetConfig.min_token_length``.
_MAX_ANCHOR = 6

Payload = TypeVar("Payload")


@dataclass(frozen=True)
class Match(Generic[Payload]):
    """One pattern occurrence: ``text[start:end] == pattern``."""

    start: int
    end: int
    pattern: str
    payload: Payload


class PatternIndex(Generic[Payload]):
    """Multi-pattern matcher; add patterns, ``build()``, then search.

    The index is one ``dict`` from an anchor — a pattern's first *k*
    characters, *k* being the shortest pattern's length capped at
    ``_MAX_ANCHOR`` — to the indices of the patterns that start with it.
    A scan looks up the *k* characters at every text position and confirms
    each candidate with ``str.startswith``.
    """

    def __init__(self) -> None:
        self._patterns: List[Tuple[str, Payload]] = []
        self._anchors: Dict[str, Tuple[int, ...]] = {}
        self._width = 0
        self._built = False

    def add(self, pattern: str, payload: Payload) -> None:
        """Register a pattern with an arbitrary payload.

        Adding after :meth:`build` invalidates the index; it is rebuilt
        lazily on the next search.
        """
        if not pattern:
            raise ValueError("empty pattern")
        self._patterns.append((pattern, payload))
        self._built = False

    def build(self) -> None:
        """Group the patterns by anchor, in insertion order."""
        patterns = self._patterns
        width = min([_MAX_ANCHOR] + [len(p) for p, _ in patterns])
        anchors: Dict[str, Tuple[int, ...]] = {}
        for index, (pattern, _) in enumerate(patterns):
            anchor = pattern[:width]
            anchors[anchor] = anchors.get(anchor, ()) + (index,)
        self._anchors = anchors
        self._width = width
        self._built = True

    def _hits(self, text: str) -> Iterator[Tuple[int, int, int, int]]:
        """``(end, -length, index, start)`` of each occurrence, by start."""
        if not self._built:
            self.build()
        anchors = self._anchors
        width = self._width
        patterns = self._patterns
        for start in range(len(text) - width + 1):
            for index in anchors.get(text[start:start + width], ()):
                pattern = patterns[index][0]
                if text.startswith(pattern, start):
                    yield (start + len(pattern), -len(pattern), index, start)

    def find_all(self, text: str) -> List[Match[Payload]]:
        """Every occurrence of every pattern in ``text``.

        Ordered by end position, longer pattern first, then equal
        patterns in insertion order.
        """
        patterns = self._patterns
        return [Match(start, end, *patterns[index])
                for end, _, index, start in sorted(self._hits(text))]

    def contains_any(self, text: str) -> bool:
        """Whether any pattern occurs in ``text`` (early exit)."""
        return next(self._hits(text), None) is not None

    def __len__(self) -> int:
        return len(self._patterns)


@dataclass(frozen=True)
class TokenOrigin:
    """Provenance of one candidate token."""

    pii_type: str
    surface_form: str
    chain: Tuple[str, ...]  # () for plaintext

    @property
    def encoding_label(self) -> str:
        return hashes.chain_label(self.chain)


@dataclass(frozen=True)
class TokenSetConfig:
    """Tuning for candidate-set generation."""

    max_depth: int = 3
    full_corpus_depth: int = 1
    chain_alphabet: Tuple[str, ...] = hashes.OBSERVED_CHAIN_ALPHABET
    min_token_length: int = 6
    include_case_variants: bool = True

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.full_corpus_depth > self.max_depth:
            raise ValueError("full_corpus_depth cannot exceed max_depth")
        unknown = [n for n in self.chain_alphabet if not hashes.has(n)]
        if unknown:
            raise ValueError("unknown transforms: %s" % unknown)


class CandidateTokenSet:
    """All strings whose appearance in traffic constitutes a PII leak."""

    #: Funnel counter names, in the order they are replayed.
    FUNNEL_COUNTERS = ("tokens.pruned_too_short", "tokens.origins",
                      "tokens.duplicate_origins")

    def __init__(self, persona: Persona,
                 config: Optional[TokenSetConfig] = None,
                 recorder: Optional[Recorder] = None, *,
                 compiled: Optional["CandidateTokenSet"] = None) -> None:
        """``recorder`` (a :class:`repro.obs.Recorder`) records the
        candidate-generation funnel — tokens emitted, pruned as too
        short, and deduplicated — as counters and gauges.

        ``compiled`` is an already-built set for the same persona and
        config: the new set shares its token table and index, which
        are immutable once built, instead of generating them again.
        """
        self.persona = persona
        self.config = config or TokenSetConfig()
        self.recorder = recorder or NULL_RECORDER
        self._scan_distinct_memo: Dict[str, List[TokenOrigin]] = {}
        if compiled is not None:
            if (compiled.persona, compiled.config) != (persona, self.config):
                raise ValueError("compiled token set was built for another "
                                 "persona or config")
            self._origins: Dict[str, List[TokenOrigin]] = compiled._origins
            self._index: PatternIndex[TokenOrigin] = compiled._index
            self.funnel_counts: Dict[str, int] = dict(compiled.funnel_counts)
        else:
            self._origins = {}
            self._index = PatternIndex()
            # Funnel tallies are kept as plain ints so a precomputed
            # token set can *replay* them into any recorder later (see
            # `replay_funnel`) — that is what keeps traces identical
            # when `CompiledStudyAssets` builds the set once and reuses
            # it.
            self.funnel_counts = {name: 0 for name in self.FUNNEL_COUNTERS}
            self._generate()
            self._index.build()
        self.replay_funnel(self.recorder)

    # -- generation --------------------------------------------------------

    def _generate(self) -> None:
        all_names = [t.name for t in hashes.all_transforms()]
        config = self.config
        alphabet = config.chain_alphabet
        for pii_type, forms in self.persona.surface_forms().items():
            for form in forms:
                self._add_token(form, TokenOrigin(pii_type, form, ()))
                # Chains share prefixes massively (every depth-d chain
                # extends a depth-(d-1) chain over the same alphabet),
                # so each level is derived from the previous level's
                # values with exactly one transform application per
                # chain instead of re-walking the whole chain.  The
                # enumeration order below is the naive depth-by-depth
                # product order (pinned by `test_chain_enumeration_order`
                # in tests/test_core_persona_tokens.py) — token insertion
                # order, and with it every downstream scan, must not
                # change.
                previous: Dict[Tuple[str, ...], str] = {(): form}
                for depth in range(1, config.max_depth + 1):
                    level: Dict[Tuple[str, ...], str] = {}
                    if depth <= config.full_corpus_depth:
                        first_choices: Sequence[str] = all_names
                    else:
                        first_choices = alphabet
                    if depth == 1:
                        for name in first_choices:
                            level[(name,)] = hashes.get(name).apply_text(form)
                    else:
                        for first in first_choices:
                            for mid in product(alphabet, repeat=depth - 2):
                                prefix = (first,) + mid
                                base = previous.get(prefix)
                                if base is None:
                                    base = hashes.apply_chain(form, prefix)
                                for last in alphabet:
                                    level[prefix + (last,)] = (
                                        hashes.get(last).apply_text(base))
                    for chain, token in level.items():
                        self._add_token(
                            token, TokenOrigin(pii_type, form, chain))
                    previous = level

    def _add_token(self, token: str, origin: TokenOrigin) -> None:
        if len(token) < self.config.min_token_length:
            self.funnel_counts["tokens.pruned_too_short"] += 1
            return
        self._register(token, origin)
        if self.config.include_case_variants and _is_hex(token):
            self._register(token.upper(), origin)

    def _register(self, token: str, origin: TokenOrigin) -> None:
        bucket = self._origins.setdefault(token, [])
        if origin not in bucket:
            bucket.append(origin)
            self._index.add(token, origin)
            self.funnel_counts["tokens.origins"] += 1
        else:
            self.funnel_counts["tokens.duplicate_origins"] += 1

    def replay_funnel(self, recorder: Optional[Recorder]) -> None:
        """Emit the generation funnel into ``recorder``.

        Counter totals are order-independent aggregates, so replaying
        the saved tallies produces the exact counters/gauge a fresh
        construction with the same recorder would have recorded —
        letting precomputed token sets keep traces bit-identical.
        """
        if recorder is None or recorder is NULL_RECORDER:
            return
        for name in self.FUNNEL_COUNTERS:
            value = self.funnel_counts[name]
            if value:
                recorder.count(name, value)
        recorder.gauge("tokens.candidates", len(self._origins))

    # -- queries -----------------------------------------------------------

    @property
    def token_count(self) -> int:
        return len(self._origins)

    def tokens(self) -> List[str]:
        """All candidate tokens (deterministic order)."""
        return list(self._origins)

    def origins_of(self, token: str) -> List[TokenOrigin]:
        """Provenance records for an exact token."""
        return list(self._origins.get(token, []))

    def scan(self, text: str) -> List[Match[TokenOrigin]]:
        """All candidate-token occurrences in ``text`` (single pass), in
        :meth:`PatternIndex.find_all` order."""
        if not text:
            return []
        return self._index.find_all(text)

    def scan_distinct(self, text: str) -> List[TokenOrigin]:
        """Distinct origins whose token occurs in ``text``.

        Results are memoised per text: the same header values, URLs and
        cookie strings recur across thousands of captured requests, and
        the origin list is a pure function of the (immutable) token set.
        """
        cached = self._scan_distinct_memo.get(text)
        if cached is not None:
            return list(cached)
        seen: List[TokenOrigin] = []
        for match in self.scan(text):
            if match.payload not in seen:
                seen.append(match.payload)
        if len(self._scan_distinct_memo) >= 8192:
            self._scan_distinct_memo.clear()
        self._scan_distinct_memo[text] = seen
        return list(seen)

    def contains_leak(self, text: str) -> bool:
        """Fast check: does ``text`` contain any candidate token?"""
        return bool(text) and self._index.contains_any(text)


def _is_hex(token: str) -> bool:
    return len(token) >= 8 and all(ch in _HEX_CHARS for ch in token)
