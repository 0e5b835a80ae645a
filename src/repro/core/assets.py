"""Compiled study assets: build once, match many (the hot-path API).

Every stage of a study hammers the same immutable inputs — the persona's
candidate token set, the tracker catalog, the PSL — yet the historical
code paths rebuilt them per call: ``Study.analyze`` enumerated thousands
of encoding chains per invocation, and every shard rebuilt its
population and token index from scratch.  :class:`CompiledStudyAssets`
is the one public construction path that replaces those implicit
rebuilds: a study compiles its assets once and threads them
``Study.crawl → supervisor/parallel → runner → detector``.

Every stage of a crawl uses the one population the study (or the
parallel engine's parent process) holds; forked workers inherit it and
non-forking start methods receive it once per worker with the job list.
:class:`CompiledStudyAssets` is the live bundle: the built population,
the lazily-compiled :class:`~repro.core.tokens.CandidateTokenSet`
(built recorder-free so it can be reused under any trace; see
:meth:`~CompiledStudyAssets.replay_token_funnel`) and detector
factories.  The token set is a function of the persona and the token
config alone, so its token table and index are built once per
``(persona, TokenSetConfig)`` per process and shared by every bundle —
every study and every service job — that asks for the same pair.

Nothing here may move a fingerprint: assets only cache pure functions
of the study's immutable inputs, and the funnel counters a precomputed
token set would have recorded are replayed verbatim into whichever
recorder the reusing stage supplies.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..obs import Recorder
from ..psl import PublicSuffixList, default_list
from .detector import LeakDetector
from .persona import Persona
from .tokens import CandidateTokenSet, TokenSetConfig


class CompiledStudyAssets:
    """Everything the crawl/analyze hot path needs, compiled once.

    Build it with :meth:`for_population`;
    :class:`~repro.core.pipeline.Study` builds one automatically, or
    accepts a prebuilt instance via
    ``StudyConfig(assets=...)`` so several studies over the same
    population can share the compiled state.
    """

    def __init__(self, population, *,
                 population_spec=None,
                 token_config: Optional[TokenSetConfig] = None,
                 psl: Optional[PublicSuffixList] = None) -> None:
        self.population = population
        self.population_spec = population_spec
        self.token_config = token_config
        self.psl = psl or default_list()
        self._tokens: Optional[CandidateTokenSet] = None

    @classmethod
    def for_population(cls, population, *, population_spec=None,
                       token_config: Optional[TokenSetConfig] = None,
                       psl: Optional[PublicSuffixList] = None
                       ) -> "CompiledStudyAssets":
        """The single public construction path for live assets."""
        return cls(population, population_spec=population_spec,
                   token_config=token_config, psl=psl)

    # -- identity ---------------------------------------------------------

    @property
    def persona(self):
        return self.population.persona

    @property
    def catalog(self):
        return self.population.catalog

    # -- compiled pieces --------------------------------------------------

    def tokens(self) -> CandidateTokenSet:
        """The persona's candidate token set (compiled on first use).

        The set depends only on the persona and the token config, not on
        the population, so its tables come from a process-local memo
        keyed by ``(persona, token_config)`` by value: every bundle in
        the process — later studies, later service jobs — with the same
        persona and config gets its own set over one token table and
        one index, and only the first pays the build.  Built without a
        recorder (generation-funnel tallies are kept as plain ints on
        the set), so one compilation serves every stage and every trace;
        stages that trace call :meth:`replay_token_funnel` to surface
        the funnel.
        """
        if self._tokens is None:
            self._tokens = _shared_token_set(self.persona,
                                             self.token_config)
        return self._tokens

    def replay_token_funnel(self, recorder: Optional[Recorder]) -> None:
        """Replay the token-generation funnel into ``recorder``.

        Emits exactly the counters/gauge a fresh
        :class:`CandidateTokenSet` constructed with that recorder would
        have recorded, so traces stay bit-identical whether the token
        set was compiled here or built inline.
        """
        self.tokens().replay_funnel(recorder)

    def detector(self, recorder: Optional[Recorder] = None,
                 scan_first_party: bool = False,
                 locations=None,
                 fault_plan=None) -> LeakDetector:
        """A :class:`LeakDetector` over the compiled token set."""
        return LeakDetector(self.tokens(), catalog=self.catalog,
                            resolver=self.population.resolver(fault_plan),
                            psl=self.psl,
                            scan_first_party=scan_first_party,
                            locations=locations, recorder=recorder)


#: Process-local memo of built token sets (see
#: `CompiledStudyAssets.tokens`): (persona, TokenSetConfig) -> the set
#: whose tables later sets share, insertion-ordered for FIFO eviction.
_PROCESS_TOKENS: Dict[Tuple[Persona, TokenSetConfig], CandidateTokenSet] = {}
_PROCESS_TOKENS_LIMIT = 4


def _trim(memo: Dict) -> None:
    """FIFO-evict ``memo`` down to `_PROCESS_TOKENS_LIMIT` entries.

    Bounds what a long-lived service process can pin (token automata
    are large); evicted entries just rebuild.  Every
    insert is followed by its own trim, over a snapshot of the keys with
    ``pop(key, None)``, so runner threads that insert at once never
    raise and leave the memo within the bound.
    """
    keys = list(memo)
    for stale in keys[:max(0, len(keys) - _PROCESS_TOKENS_LIMIT)]:
        memo.pop(stale, None)


def _shared_token_set(persona: Persona,
                      config: Optional[TokenSetConfig]) -> CandidateTokenSet:
    """A token set for ``(persona, config)`` whose tables are built once
    per process.

    Each call returns a set of its own (its scan memo is per bundle)
    that shares the token table and index of the set the memo
    holds for the key.  On a miss the new set is built and published
    with ``setdefault``: two threads that race on one key each build
    once and the first published stays, so no lock is needed.  An
    unhashable persona or config cannot be a key; each bundle then
    builds a set of its own.
    """
    key = (persona, config or TokenSetConfig())
    try:
        compiled = _PROCESS_TOKENS.get(key)
    except TypeError:
        return CandidateTokenSet(persona, config=config, recorder=None)
    tokens = CandidateTokenSet(persona, config=config, recorder=None,
                               compiled=compiled)
    if compiled is None:
        _PROCESS_TOKENS.setdefault(key, tokens)
        _trim(_PROCESS_TOKENS)
    return tokens


def clear_process_assets() -> None:
    """Drop the process-local token-set memo (tests, cold benchmarks and
    long-lived services)."""
    _PROCESS_TOKENS.clear()
