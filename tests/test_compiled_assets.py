"""The compiled-assets API and its hard invariant.

:class:`repro.core.CompiledStudyAssets` is the single construction path
for the crawl/analyze hot path's shared state; these tests pin down

* the API surface (construction, spec round-trip, process memo, seeding,
  eviction, detector/token factories),
* trace equivalence (a reused compiled token set replays the exact
  funnel a fresh one would have recorded), and
* the hard invariant: the merged ``CrawlDataset.fingerprint()`` is
  bit-identical with and without precompiled assets, at every worker
  count, seeds 0-4, faults on and off.
"""

from __future__ import annotations

import pytest

from repro.core import CompiledStudyAssets, Study, StudyConfig
from repro.core.assets import (
    _PROCESS_ASSETS,
    _PROCESS_ASSETS_LIMIT,
    StudyAssetsSpec,
    clear_process_assets,
)
from repro.core.detector import DetectionResult
from repro.core.tokens import CandidateTokenSet
from repro.crawler import GeneratedPopulationSpec, ParallelCrawler
from repro.netsim.faults import FaultPlan
from repro.obs import Recorder
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

