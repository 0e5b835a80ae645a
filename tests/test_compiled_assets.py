"""The compiled-assets API and its hard invariant.

:class:`repro.core.CompiledStudyAssets` is the single construction path
for the crawl/analyze hot path's shared state; these tests pin down

* the API surface (construction, spec round-trip, process memo, seeding,
  eviction, detector/token factories),
* the process token-set memo: one set per (persona, token config),
  shared across populations, studies and service jobs without changing
  a trace, a result or a fingerprint,
* trace equivalence (a reused compiled token set replays the exact
  funnel a fresh one would have recorded), and
* the hard invariant: the merged ``CrawlDataset.fingerprint()`` is
  bit-identical with and without precompiled assets, at every worker
  count, seeds 0-4, faults on and off.
"""

from __future__ import annotations

import json
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import CompiledStudyAssets, Study, StudyConfig
from repro.core.assets import (
    _PROCESS_ASSETS,
    _PROCESS_ASSETS_LIMIT,
    _PROCESS_TOKENS,
    StudyAssetsSpec,
    clear_process_assets,
)
from repro.core.detector import DetectionResult
from repro.core.persona import DEFAULT_PERSONA, Persona
from repro.core.tokens import CandidateTokenSet, TokenSetConfig
from repro.crawler import GeneratedPopulationSpec, ParallelCrawler
from repro.hashes import OBSERVED_CHAIN_ALPHABET
from repro.netsim.faults import FaultPlan
from repro.obs import Recorder, write_trace
from repro.service import STATE_COMPLETE, JobRun, JobSpec
from repro.websim.generator import GeneratorConfig

_CONFIG = GeneratorConfig(n_sites=10, n_trackers=4, leak_probability=0.6,
                          confirmation_probability=0.5)
_NUM_SHARDS = 5


def _spec(seed: int) -> GeneratedPopulationSpec:
    return GeneratedPopulationSpec(seed=seed, config=_CONFIG)


def _assets(seed: int) -> CompiledStudyAssets:
    spec = _spec(seed)
    return CompiledStudyAssets.for_population(spec.build(),
                                              population_spec=spec)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_process_assets()
    yield
    clear_process_assets()


# ---------------------------------------------------------------------------
# The hard invariant: precompiled assets never move a fingerprint.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_fingerprint_invariant_across_workers_and_faults(seed):
    """Seeds 0-4 x workers {1,2,4} +/- faults: assets path == plain path."""
    def fingerprint(workers, fault_seed, assets):
        clear_process_assets()
        plan = (FaultPlan(seed=fault_seed, transient_rate=0.25)
                if fault_seed is not None else None)
        return ParallelCrawler(_spec(seed), workers=workers,
                               num_shards=_NUM_SHARDS, fault_plan=plan,
                               assets=assets).crawl().fingerprint()

    for fault_seed in (None, seed + 100):
        reference = fingerprint(1, fault_seed, assets=None)
        for workers in (1, 2, 4):
            assert fingerprint(workers, fault_seed,
                               assets=_assets(seed)) == reference


def test_parallel_crawler_reuses_the_assets_population():
    assets = _assets(0)
    engine = ParallelCrawler(_spec(0), workers=1, num_shards=_NUM_SHARDS,
                             assets=assets)
    dataset = engine.crawl()
    assert dataset.population is assets.population


def test_study_crawl_and_analyze_thread_one_bundle():
    spec = _spec(1)
    study = Study(spec.build(), population_spec=spec,
                  config=StudyConfig(workers=2, num_shards=_NUM_SHARDS))
    assert study.assets() is study.assets()  # built once, cached
    dataset = study.crawl().dataset
    result = study.analyze(dataset)
    # A fresh study without the shared bundle, analyzing the same
    # dataset, agrees event-for-event.
    plain = Study(spec.build()).analyze(dataset)
    assert result.events == plain.events
    assert result.events, "seeded study produced no leak events"


def test_study_config_accepts_a_shared_bundle():
    assets = _assets(2)
    study = Study(assets.population,
                  config=StudyConfig(assets=assets))
    assert study.assets() is assets
    other = Study(assets.population,
                  config=StudyConfig(assets=assets))
    assert other.assets() is assets  # several studies share one bundle


# ---------------------------------------------------------------------------
# Construction, spec round-trip, and the process memo.
# ---------------------------------------------------------------------------

def test_for_population_exposes_identity():
    assets = _assets(0)
    assert assets.persona is assets.population.persona
    assert assets.catalog is assets.population.catalog
    assert assets.tokens() is assets.tokens()  # compiled once


def test_spec_requires_a_population_spec():
    population = _spec(0).build()
    bare = CompiledStudyAssets.for_population(population)
    with pytest.raises(ValueError):
        bare.spec()


def test_spec_round_trip_memoises_per_process():
    spec = _assets(3).spec()
    first = spec.compiled()
    assert spec.compiled() is first
    # An equal-by-value recipe resolves to the same bundle.
    assert StudyAssetsSpec(population_spec=_spec(3)).compiled() is first
    clear_process_assets()
    assert spec.compiled() is not first


def test_seed_prepopulates_the_memo():
    assets = _assets(4)
    spec = assets.spec()
    spec.seed(assets)
    assert spec.compiled() is assets


def test_memo_eviction_is_bounded():
    for seed in range(_PROCESS_ASSETS_LIMIT + 2):
        StudyAssetsSpec(population_spec=_spec(seed)).compiled()
    assert len(_PROCESS_ASSETS) == _PROCESS_ASSETS_LIMIT


# ---------------------------------------------------------------------------
# The token-set memo: one set per (persona, token config) per process.
# ---------------------------------------------------------------------------

#: A cheap config: depth-1 chains only, so memo tests build fast.
_SHALLOW = TokenSetConfig(max_depth=1)


def _persona_assets(persona=DEFAULT_PERSONA, token_config=None):
    """A bundle whose population is only a persona (all tokens() reads)."""
    return CompiledStudyAssets(SimpleNamespace(persona=persona),
                               token_config=token_config)


@pytest.fixture
def build_count(monkeypatch):
    """How many token tables have been generated so far."""
    builds = []
    original = CandidateTokenSet._generate

    def counting(self):
        builds.append(self)
        original(self)

    monkeypatch.setattr(CandidateTokenSet, "_generate", counting)
    return lambda: len(builds)


def _shared(first, second) -> bool:
    """Do two token sets share one token table and automaton?"""
    return first._origins is second._origins and \
        first._automaton is second._automaton


def test_token_set_is_shared_across_populations(build_count):
    first, second = _assets(0), _assets(1)
    assert first.population is not second.population
    assert first.tokens() is not second.tokens()  # a scan memo each
    assert _shared(first.tokens(), second.tokens())
    assert build_count() == 1


def test_default_token_config_spellings_share_one_set():
    implicit = _persona_assets(token_config=None).tokens()
    assert _shared(_persona_assets(token_config=TokenSetConfig()).tokens(),
                   implicit)
    assert len(_PROCESS_TOKENS) == 1


def test_persona_and_config_each_key_their_own_set():
    default = _persona_assets(token_config=_SHALLOW).tokens()
    other = Persona(email="someone.else.77@pmail.example")
    assert not _shared(_persona_assets(other, _SHALLOW).tokens(), default)
    deeper = _persona_assets(token_config=TokenSetConfig(max_depth=2))
    assert not _shared(deeper.tokens(), default)
    assert deeper.tokens().config == TokenSetConfig(max_depth=2)
    assert len(_PROCESS_TOKENS) == 3


def test_shared_tables_need_the_same_persona_and_config():
    built = CandidateTokenSet(DEFAULT_PERSONA, config=_SHALLOW)
    other = Persona(email="someone.else.77@pmail.example")
    with pytest.raises(ValueError, match="another persona or config"):
        CandidateTokenSet(other, config=_SHALLOW, compiled=built)
    with pytest.raises(ValueError, match="another persona or config"):
        CandidateTokenSet(DEFAULT_PERSONA, compiled=built)


def test_clear_process_assets_drops_the_token_set():
    first = _persona_assets(token_config=_SHALLOW).tokens()
    clear_process_assets()
    assert not _PROCESS_TOKENS
    assert not _shared(_persona_assets(token_config=_SHALLOW).tokens(),
                       first)


def test_token_memo_is_bounded(build_count):
    configs = [TokenSetConfig(max_depth=1, min_token_length=6 + index)
               for index in range(_PROCESS_ASSETS_LIMIT + 2)]
    for config in configs:
        _persona_assets(token_config=config).tokens()
        assert len(_PROCESS_TOKENS) <= _PROCESS_ASSETS_LIMIT
    assert len(_PROCESS_TOKENS) == _PROCESS_ASSETS_LIMIT
    # FIFO: the oldest configs were evicted and rebuild on demand.
    assert (DEFAULT_PERSONA, configs[0]) not in _PROCESS_TOKENS
    assert (DEFAULT_PERSONA, configs[-1]) in _PROCESS_TOKENS
    builds = build_count()
    _persona_assets(token_config=configs[-1]).tokens()
    assert build_count() == builds


def test_unhashable_token_config_builds_per_bundle():
    config = TokenSetConfig(max_depth=1,
                            chain_alphabet=list(OBSERVED_CHAIN_ALPHABET))
    first = _persona_assets(token_config=config)
    second = _persona_assets(token_config=config)
    assert first.tokens() is first.tokens()  # still cached per bundle
    assert not _shared(second.tokens(), first.tokens())
    assert second.tokens().tokens() == first.tokens().tokens()
    assert not _PROCESS_TOKENS


def test_racing_threads_share_one_set_per_key():
    """Eight threads, more than the cores, with a short switch interval:
    first all race on one key and must all get equal sets, with one
    published; then each inserts a key of its own, and the racing
    inserts and evictions must neither raise nor leave the memo over
    its bound."""
    threads_count = 8
    shared = []
    errors = []
    published = []
    barrier = threading.Barrier(threads_count, timeout=120, action=lambda:
                                published.append(dict(_PROCESS_TOKENS)))

    def work(offset):
        try:
            shared.append(_persona_assets(token_config=_SHALLOW).tokens())
            barrier.wait()
            _persona_assets(token_config=TokenSetConfig(
                max_depth=1, min_token_length=7 + offset)).tokens()
        except Exception as exc:  # noqa: BLE001 — asserted below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(offset,))
                   for offset in range(threads_count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(shared) == threads_count
    assert all(tokens.tokens() == shared[0].tokens() for tokens in shared)
    [memo] = published  # as it stood once every thread had its set
    assert list(memo) == [(DEFAULT_PERSONA, _SHALLOW)]
    assert any(_shared(tokens, memo[(DEFAULT_PERSONA, _SHALLOW)])
               for tokens in shared)
    assert len(_PROCESS_TOKENS) == _PROCESS_ASSETS_LIMIT


def _job(seed: int) -> JobSpec:
    return JobSpec(seed=seed, sites=6, trackers=3, workers=1,
                   fault_rate=0.1, fault_seed=seed)


def _job_output(outcome, tmp_path, name):
    """A job's served artifacts as bytes: trace, result document and
    fingerprint."""
    assert outcome.state == STATE_COMPLETE, outcome.error
    path = write_trace(outcome.recorder, str(tmp_path / name))
    with open(path, "rb") as handle:
        trace = handle.read()
    result = json.dumps(outcome.result, sort_keys=True).encode("utf-8")
    return trace, result, outcome.fingerprint


def test_warm_memo_changes_no_job_output(build_count, tmp_path):
    JobRun(_job(7)).execute()
    warm = JobRun(_job(8)).execute()
    assert build_count() == 1  # the second job reused the first's set
    clear_process_assets()
    cold = JobRun(_job(8)).execute()
    assert build_count() == 2
    assert _job_output(warm, tmp_path, "warm.jsonl") == \
        _job_output(cold, tmp_path, "cold.jsonl")


def test_concurrent_jobs_share_the_memo_safely():
    cold = {}
    for seed in (7, 8):
        clear_process_assets()
        cold[seed] = JobRun(_job(seed)).execute().fingerprint
    clear_process_assets()
    outcomes = {}

    def run(seed):
        outcomes[seed] = JobRun(_job(seed)).execute()

    threads = [threading.Thread(target=run, args=(seed,))
               for seed in (7, 8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    for seed in (7, 8):
        assert outcomes[seed].state == STATE_COMPLETE, outcomes[seed].error
        assert outcomes[seed].fingerprint == cold[seed]
    assert len(_PROCESS_TOKENS) == 1


# ---------------------------------------------------------------------------
# Trace equivalence: compiled state replays the exact inline funnel.
# ---------------------------------------------------------------------------

def test_replayed_token_funnel_matches_inline_build():
    population = _spec(0).build()
    inline = Recorder()
    CandidateTokenSet(population.persona, recorder=inline)
    assets = CompiledStudyAssets.for_population(population)
    replayed = Recorder()
    assets.replay_token_funnel(replayed)
    assert replayed.snapshot() == inline.snapshot()


def test_analyze_trace_identical_with_and_without_assets():
    spec = _spec(1)
    dataset = Study(spec.build()).crawl().dataset

    def snapshot(config):
        recorder = Recorder()
        study = Study(dataset.population,
                      config=config.replace(recorder=recorder))
        study.analyze(dataset)
        return recorder.snapshot()

    plain = snapshot(StudyConfig())
    assets = CompiledStudyAssets.for_population(dataset.population)
    assets.tokens()  # pre-compile before any recorder exists
    assert snapshot(StudyConfig(assets=assets)) == plain


# ---------------------------------------------------------------------------
# Detector: single-pass results.
# ---------------------------------------------------------------------------

def test_detector_run_is_one_pass_over_detect():
    assets = _assets(0)
    dataset = ParallelCrawler(_spec(0), workers=1,
                              num_shards=_NUM_SHARDS,
                              assets=assets).crawl()
    detector = assets.detector()
    detection = detector.run(dataset.log)
    assert isinstance(detection, DetectionResult)
    assert detection.events == detector.detect(dataset.log)
    assert detection.leaking_entry_count == len(detection.leaking_entries)
    assert detection.entries_scanned <= len(dataset.log.entries)

