"""Parallel sharded crawling: fingerprint invariance, sharding, resume."""

import os
import pickle

import pytest

from repro.core import Study, StudyConfig
from repro.crawler import (
    CheckpointError,
    CrawlSession,
    GeneratedPopulationSpec,
    ParallelCrawler,
    ShardLayout,
    StudyCrawler,
    default_shard_count,
    merge_shard_datasets,
    run_shard_job,
    shard_domains,
    stable_site_order,
)
from repro.netsim.faults import FaultPlan
from repro.websim.generator import GeneratorConfig, generate_population

_CONFIG = GeneratorConfig(n_sites=10, n_trackers=4, leak_probability=0.6,
                          confirmation_probability=0.4)
_NUM_SHARDS = 5


def _spec(seed):
    return GeneratedPopulationSpec(seed=seed, config=_CONFIG)


def _fingerprint(seed, workers, fault_seed=None, num_shards=_NUM_SHARDS):
    plan = (FaultPlan(seed=fault_seed, transient_rate=0.25)
            if fault_seed is not None else None)
    return ParallelCrawler(_spec(seed), workers=workers,
                           num_shards=num_shards,
                           fault_plan=plan).crawl().fingerprint()


# -- sharding ------------------------------------------------------------


def test_stable_site_order_is_input_order_independent():
    domains = ["b.example", "a.example", "c.example"]
    assert stable_site_order(domains) == stable_site_order(reversed(domains))


def test_stable_site_order_rejects_duplicates():
    with pytest.raises(ValueError):
        stable_site_order(["a.example", "a.example"])


def test_shard_domains_partitions_without_loss():
    domains = ["site%02d.example" % i for i in range(37)]
    shards = shard_domains(domains, 4)
    assert len(shards) == 4
    merged = [domain for shard in shards for domain in shard]
    assert sorted(merged) == sorted(domains)


def test_shard_layout_digest_tracks_membership_and_count():
    domains = ["site%02d.example" % i for i in range(12)]
    base = ShardLayout.for_domains(domains, 3)
    assert base.digest() == ShardLayout.for_domains(domains, 3).digest()
    assert base.digest() != ShardLayout.for_domains(domains, 4).digest()
    assert base.digest() != ShardLayout.for_domains(domains[:-1], 3).digest()
    assert base.site_count == 12


def test_default_shard_count_is_worker_independent():
    assert default_shard_count(3) == 3
    assert default_shard_count(5000) == 16
    assert default_shard_count(0) == 1


def test_shard_layout_info_bounds():
    layout = ShardLayout.for_domains(["a.example", "b.example"], 2)
    with pytest.raises(IndexError):
        layout.info(2)


# -- the fingerprint contract -------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_parallel_fingerprint_equals_serial_fingerprint(seed):
    """Seeds 0-4, workers {1, 2, 4, 7}: merged == serial, faults off/on."""
    serial = _fingerprint(seed, workers=1)
    serial_faulty = _fingerprint(seed, workers=1, fault_seed=seed + 100)
    assert serial != serial_faulty  # faults actually change the crawl
    for workers in (2, 4, 7):
        assert _fingerprint(seed, workers=workers) == serial
        assert _fingerprint(seed, workers=workers,
                            fault_seed=seed + 100) == serial_faulty


#: Pickled bytes of the seed-404 study's eight shard results, as the
#: supervisor's result queue ships them (5,704,212 while every repeated
#: exchange part was a copy of its own).  The benchmark suite's traced
#: ``study-parallel`` reports 4,461,902 as ``ipc.result_bytes``: these
#: and the resource samples its shards carry besides.
_SEED_404_SHARD_RESULT_BYTES = 4_460_782


def test_seed_404_shard_results_pickle_to_the_pinned_bytes(monkeypatch):
    from repro.crawler import parallel
    kept = []
    merge = parallel.merge_shard_datasets

    def keeping(results, population):
        kept.extend(results)
        return merge(results, population)

    monkeypatch.setattr(parallel, "merge_shard_datasets", keeping)
    spec = GeneratedPopulationSpec(seed=404, config=GeneratorConfig(
        n_sites=404, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))
    crawl = ParallelCrawler(spec, workers=1, num_shards=8).run()
    assert crawl.dataset.fingerprint().startswith("77abd62213a0f0be")
    assert len(kept) == 8
    assert sum(len(pickle.dumps(result)) for result in kept) == \
        _SEED_404_SHARD_RESULT_BYTES


def test_single_shard_engine_matches_legacy_serial_crawl():
    """One shard == the historical StudyCrawler path, site-for-site."""
    population = generate_population(seed=2, config=_CONFIG)
    order = stable_site_order(population.sites)
    legacy = StudyCrawler(population).crawl(
        [population.sites[domain] for domain in order])
    engine = ParallelCrawler(_spec(2), workers=1, num_shards=1).crawl()
    assert engine.fingerprint() == legacy.fingerprint()


def test_prebuilt_population_spec_matches_generated_spec():
    """A prebuilt, live population crawls like the spec that built it."""
    population = generate_population(seed=3, config=_CONFIG)
    via_prebuilt = ParallelCrawler(population, workers=1,
                                   num_shards=3).crawl()
    via_generated = ParallelCrawler(_spec(3), workers=1,
                                    num_shards=3).crawl()
    assert via_prebuilt.fingerprint() == via_generated.fingerprint()


def _calibrated_population():
    from repro.websim.shopping import build_study_population
    return build_study_population().population


def _population_bytes(population):
    # The tracker catalog's host memo caches a pure lookup; it is the
    # one thing a crawl may fill.
    population.catalog._host_cache.clear()
    return pickle.dumps(population)


@pytest.mark.parametrize("build", [
    lambda: generate_population(seed=5, config=GeneratorConfig(
        n_sites=24, n_trackers=6)),
    _calibrated_population,
], ids=["generated", "calibrated"])
def test_a_crawl_leaves_its_population_as_it_found_it(build):
    """Shards and the caller crawl one live population object, which is
    safe only while a crawl never changes it."""
    population = build()
    before = _population_bytes(population)
    plan = FaultPlan(seed=11, transient_rate=0.25, dead_rate=0.1)
    dataset = StudyCrawler(population, fault_plan=plan).crawl()
    assert plan.events and dataset.log.entries
    assert _population_bytes(population) == before


def test_run_reports_layout_workers_and_fault_events():
    plan = FaultPlan(seed=5, transient_rate=0.25)
    result = ParallelCrawler(_spec(1), workers=2, num_shards=_NUM_SHARDS,
                             fault_plan=plan).run()
    assert result.workers == 2
    assert result.layout.num_shards == _NUM_SHARDS
    assert result.fault_plan is not None and result.fault_plan.events
    assert plan.events == []  # the caller's plan is never consumed
    assert sum(stats[1] for stats in result.shard_stats) == \
        len(result.dataset.flows)


def test_merge_rejects_overlapping_shards():
    engine = ParallelCrawler(_spec(1), workers=1, num_shards=2)
    results = [run_shard_job(engine._job(0)) for _ in range(2)]
    results[1].index = 1
    with pytest.raises(ValueError):
        merge_shard_datasets(results, engine.population())


def test_merged_dataset_counts_every_site_exactly_once():
    dataset = ParallelCrawler(_spec(4), workers=2,
                              num_shards=_NUM_SHARDS).crawl()
    assert len(dataset.flows) == _CONFIG.n_sites
    assert sorted(dataset.flows) == sorted(
        generate_population(seed=4, config=_CONFIG).sites)


def test_study_runs_parallel_and_serial_to_same_analysis():
    population = generate_population(seed=1, config=_CONFIG)
    serial = Study(population).run()
    parallel = Study(generate_population(seed=1, config=_CONFIG),
                     StudyConfig(workers=2, num_shards=3)).run()
    serial_leaks = {(e.sender, e.receiver, e.token) for e in serial.events}
    parallel_leaks = {(e.sender, e.receiver, e.token)
                      for e in parallel.events}
    # PII-based leakage is shard-independent: the same sender->receiver
    # leaks exist however the crawl was partitioned.
    assert {(s, r) for s, r, _ in parallel_leaks} == \
        {(s, r) for s, r, _ in serial_leaks}


# -- per-shard checkpoint / resume --------------------------------------


def _interrupted_engine(tmp_path, fault_seed=9):
    plan = FaultPlan(seed=fault_seed, transient_rate=0.25)
    engine = ParallelCrawler(_spec(3), workers=2, num_shards=_NUM_SHARDS,
                             fault_plan=plan,
                             checkpoint_dir=str(tmp_path))
    for index in range(engine.layout.num_shards):
        session = engine.shard_session(index)
        if not session.done:
            session.step()  # a partially-crawled shard
        session.save(str(tmp_path / ("shard-%03d.ckpt" % index)))
    return engine


def test_per_shard_resume_converges_after_killed_checkpoint(tmp_path):
    baseline = ParallelCrawler(
        _spec(3), workers=1, num_shards=_NUM_SHARDS,
        fault_plan=FaultPlan(seed=9, transient_rate=0.25)).crawl()
    engine = _interrupted_engine(tmp_path)
    # one worker died without a usable checkpoint: that shard restarts
    os.unlink(str(tmp_path / "shard-001.ckpt"))
    resumed = engine.crawl()
    assert resumed.fingerprint() == baseline.fingerprint()


def test_resume_with_different_layout_is_rejected(tmp_path):
    _interrupted_engine(tmp_path)
    other = ParallelCrawler(_spec(3), workers=2, num_shards=_NUM_SHARDS + 3,
                            fault_plan=FaultPlan(seed=9,
                                                 transient_rate=0.25),
                            checkpoint_dir=str(tmp_path))
    with pytest.raises(CheckpointError):
        other.crawl()


def test_serial_resume_of_shard_checkpoint_is_rejected(tmp_path):
    _interrupted_engine(tmp_path)
    with pytest.raises(CheckpointError):
        CrawlSession.load(str(tmp_path / "shard-000.ckpt"),
                          _spec(3).build(), expect_shard=None)


def test_shard_resume_of_serial_checkpoint_is_rejected(tmp_path):
    engine = ParallelCrawler(_spec(3), workers=1, num_shards=_NUM_SHARDS)
    population = generate_population(seed=3, config=_CONFIG)
    serial_session = StudyCrawler(population).start()
    serial_session.step()
    path = str(tmp_path / "serial.ckpt")
    serial_session.save(path)
    with pytest.raises(CheckpointError):
        CrawlSession.load(path, population,
                          expect_shard=engine.layout.info(0))
    # and without an expectation the historical behaviour is preserved
    assert CrawlSession.load(path, population).crawled_count == 1


def test_rerun_of_a_finished_shard_finishes_again_from_its_journal(
        tmp_path):
    """A finished shard's journal ends with its last site's record (no
    save after finishing): a rerun loads it and finishes to the same
    result, trace included, delivering the marketing mail once."""
    from repro.crawler import ShardJob
    from repro.mailsim.mailbox import KIND_MARKETING

    population = generate_population(seed=3, config=_CONFIG)
    for site in population.sites.values():
        site.marketing_mail = (2, 1)
    layout = ShardLayout.for_domains(population.sites,
                                     num_shards=_NUM_SHARDS)
    index = max(range(layout.num_shards),
                key=lambda shard: len(layout.shards[shard]))
    path = str(tmp_path / "shard.ckpt")

    def run():
        return run_shard_job(ShardJob(
            population=population, shard=layout.info(index),
            fault_plan=FaultPlan(seed=9, transient_rate=0.25),
            checkpoint_path=path, trace=True))

    first = run()
    journal = open(path, "rb").read()
    second = run()
    assert open(path, "rb").read() == journal
    assert second.dataset.fingerprint() == first.dataset.fingerprint()
    assert second.recorder.snapshot() == first.recorder.snapshot()
    assert second.fault_events == first.fault_events
    marketing = first.dataset.mailbox.messages(kind=KIND_MARKETING)
    assert len(marketing) == 3 * len(first.dataset.successful_sites()) > 0
    assert second.dataset.mailbox.messages(kind=KIND_MARKETING) == marketing
