"""Compiled study assets: build once, match many (the hot-path API).

Every stage of a study hammers the same immutable inputs — the persona's
candidate token set, the tracker catalog, the PSL — yet the historical
code paths rebuilt them per call: ``Study.analyze`` enumerated thousands
of encoding chains per invocation, and every shard rebuilt its
population and token automaton from scratch.  :class:`CompiledStudyAssets`
is the one public construction path that replaces those implicit
rebuilds: a study compiles its assets once and threads them
``Study.crawl → supervisor/parallel → runner → detector``.

Two classes split the work across the process boundary:

* :class:`CompiledStudyAssets` — the live, *unpicklable-by-intent*
  bundle: the built population, the lazily-compiled
  :class:`~repro.core.tokens.CandidateTokenSet` (built recorder-free so
  it can be reused under any trace; see :meth:`replay_token_funnel`)
  and detector factories.  The token set is a function of the persona
  and the token config alone, so its token table and automaton are
  built once per ``(persona, TokenSetConfig)`` per process and shared
  by every bundle — every study and every service job — that asks for
  the same pair.
* :class:`StudyAssetsSpec` — the compact picklable recipe
  (population spec + token config) a :class:`~repro.crawler.parallel.
  ShardJob` carries instead of heavyweight live objects.  Workers call
  :meth:`StudyAssetsSpec.compiled`, which memoises per process: every
  shard that lands in the same worker (and, under a forking start
  method, every worker inheriting the parent's warm memo) reuses one
  compiled bundle instead of rebuilding per shard.

Nothing here may move a fingerprint: assets only cache pure functions
of the study's immutable inputs, and the funnel counters a precomputed
token set would have recorded are replayed verbatim into whichever
recorder the reusing stage supplies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from ..obs import Recorder
from ..psl import PublicSuffixList, default_list
from .detector import LeakDetector
from .persona import Persona
from .tokens import CandidateTokenSet, TokenSetConfig


class CompiledStudyAssets:
    """Everything the crawl/analyze hot path needs, compiled once.

    Build it with :meth:`for_population` (or :meth:`StudyAssetsSpec.
    compiled` inside workers); :class:`~repro.core.pipeline.Study`
    builds one automatically, or accepts a prebuilt instance via
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

    def spec(self) -> "StudyAssetsSpec":
        """The picklable recipe for these assets.

        Requires a ``population_spec``; a bundle built straight from a
        live population has no compact recipe to ship.
        """
        if self.population_spec is None:
            raise ValueError(
                "these assets were built from a live population without a "
                "population_spec; construct them with one (e.g. "
                "Study(population, population_spec=...)) to get a "
                "picklable StudyAssetsSpec")
        return StudyAssetsSpec(population_spec=self.population_spec,
                               token_config=self.token_config)

    # -- compiled pieces --------------------------------------------------

    def tokens(self) -> CandidateTokenSet:
        """The persona's candidate token set (compiled on first use).

        The set depends only on the persona and the token config, not on
        the population, so its tables come from a process-local memo
        keyed by ``(persona, token_config)`` by value: every bundle in
        the process — later studies, later service jobs — with the same
        persona and config gets its own set over one token table and
        one automaton, and only the first pays the build.  Built without a
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


@dataclass(frozen=True)
class StudyAssetsSpec:
    """Picklable recipe for :class:`CompiledStudyAssets`.

    The compact payload shard jobs carry across the process boundary:
    a :class:`~repro.crawler.parallel.PopulationSpec` plus the token
    config.  :meth:`compiled` rebuilds — or, crucially, *reuses* — the
    live bundle in the executing process.
    """

    population_spec: object
    token_config: Optional[TokenSetConfig] = None

    def compiled(self) -> CompiledStudyAssets:
        """The process-local compiled bundle for this recipe.

        Memoised per process keyed by the spec's value (identity for
        unhashable population specs, e.g. prebuilt ones wrapping live
        populations): all shards executed by one process share a single
        population + token automaton, and processes forked from a warm
        parent inherit its memo copy-on-write.
        """
        key = self._memo_key()
        entry = _PROCESS_ASSETS.get(key)
        # Entries keep the keying spec alive, so an id()-based key can
        # never alias a new spec onto a dead one's bundle; the identity
        # check makes that explicit.
        if entry is not None and (key is self or entry[0] is self):
            return entry[1]
        population = self.population_spec.build()
        assets = CompiledStudyAssets(
            population, population_spec=self.population_spec,
            token_config=self.token_config)
        _memo_store(key, self, assets)
        return assets

    def seed(self, assets: CompiledStudyAssets) -> None:
        """Pre-populate the process memo with a live bundle.

        The parent-side warm-up for forking engines: seeding before the
        workers fork lets every child inherit the already-built bundle
        copy-on-write and skip its own population build entirely.  (With
        a ``spawn`` start method children start cold and :meth:`compiled`
        rebuilds once per worker as before.)
        """
        _memo_store(self._memo_key(), self, assets)

    def _memo_key(self) -> Union["StudyAssetsSpec", int]:
        # Probes hashability only; the memo this keys is process-local
        # by design, so per-process hash randomisation cannot leak into
        # anything that crosses a process or a fingerprint.
        try:
            hash(self)  # statan: ignore[DET104] -- process-local memo key, never serialized or fingerprinted
        except TypeError:
            return id(self)
        return self


#: Process-local memo of compiled bundles (see `StudyAssetsSpec.compiled`):
#: key -> (keying spec, bundle), insertion-ordered for FIFO eviction.
_PROCESS_ASSETS: Dict[object, tuple] = {}
_PROCESS_ASSETS_LIMIT = 4

#: Process-local memo of built token sets (see
#: `CompiledStudyAssets.tokens`): (persona, TokenSetConfig) -> the set
#: whose tables later sets share, insertion-ordered for FIFO eviction,
#: bounded like `_PROCESS_ASSETS`.
_PROCESS_TOKENS: Dict[Tuple[Persona, TokenSetConfig], CandidateTokenSet] = {}


def _trim(memo: Dict) -> None:
    """FIFO-evict ``memo`` down to `_PROCESS_ASSETS_LIMIT` entries.

    Bounds what a long-lived service process can pin (populations and
    token automata are large); evicted entries just rebuild.  Every
    insert is followed by its own trim, over a snapshot of the keys with
    ``pop(key, None)``, so runner threads that insert at once never
    raise and leave the memo within the bound.
    """
    keys = list(memo)
    for stale in keys[:max(0, len(keys) - _PROCESS_ASSETS_LIMIT)]:
        memo.pop(stale, None)


def _memo_store(key: object, spec: "StudyAssetsSpec",
                assets: CompiledStudyAssets) -> None:
    _PROCESS_ASSETS[key] = (spec, assets)
    _trim(_PROCESS_ASSETS)


def _shared_token_set(persona: Persona,
                      config: Optional[TokenSetConfig]) -> CandidateTokenSet:
    """A token set for ``(persona, config)`` whose tables are built once
    per process.

    Each call returns a set of its own (its scan memo is per bundle)
    that shares the token table and automaton of the set the memo
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
    """Drop the process-local assets and token-set memos (tests, cold
    benchmarks and long-lived services)."""
    _PROCESS_ASSETS.clear()
    _PROCESS_TOKENS.clear()
