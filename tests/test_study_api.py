"""The redesigned Study/StudyConfig surface: keyword-only config,
constructor-injected population spec, and Study.crawl() dispatch."""

import re

import pytest

from repro.core import CrawlOutcome, Study, StudyConfig
from repro.crawler import GeneratedPopulationSpec, ParallelCrawler
from repro.obs import Recorder
from repro.websim.generator import GeneratorConfig

_CONFIG = GeneratorConfig(n_sites=8, n_trackers=3, leak_probability=0.5,
                          confirmation_probability=0.3)


def _spec(seed=0):
    return GeneratedPopulationSpec(seed=seed, config=_CONFIG)


def _study(workers=1, **config_kwargs):
    spec = _spec()
    config = StudyConfig(workers=workers, num_shards=4, **config_kwargs)
    return Study(spec.build(), config=config, population_spec=spec)


# -- StudyConfig is keyword-only -----------------------------------------


def test_study_config_rejects_positional_arguments():
    with pytest.raises(TypeError):
        StudyConfig(None)


def test_study_config_defaults_and_equality():
    assert StudyConfig() == StudyConfig()
    assert StudyConfig(workers=2) != StudyConfig()
    assert StudyConfig().workers == 1
    assert StudyConfig().recorder is None


def test_study_config_repr_names_every_field():
    text = repr(StudyConfig())
    assert re.findall(r"(\w+)=", text) == [
        "token_config", "fault_plan", "workers", "num_shards", "recorder",
        "progress", "resources", "supervision", "chaos", "assets"]


def test_replace_returns_modified_copy():
    config = StudyConfig(workers=3)
    changed = config.replace(num_shards=6)
    assert changed.workers == 3 and changed.num_shards == 6
    assert config.num_shards is None  # original untouched


def test_replace_rejects_unknown_fields():
    with pytest.raises(TypeError, match="unknown StudyConfig field"):
        StudyConfig().replace(worker=2)


def test_with_observability_attaches_a_recorder():
    config = StudyConfig(workers=2)
    traced = config.with_observability()
    assert isinstance(traced.recorder, Recorder)
    assert traced.workers == 2
    assert config.recorder is None  # copy, not mutation


def test_with_observability_accepts_a_custom_recorder():
    recorder = Recorder()
    assert StudyConfig().with_observability(recorder).recorder is recorder


# -- constructor-injected population spec --------------------------------


def test_population_spec_is_a_constructor_argument():
    spec = _spec()
    study = Study(spec.build(), population_spec=spec)
    assert study.population_spec is spec


def test_population_spec_defaults_to_none():
    assert Study(_spec().build()).population_spec is None


def test_calibrated_passes_the_calibrated_spec_explicitly():
    from repro.crawler import CalibratedPopulationSpec
    study = Study.calibrated()
    assert isinstance(study.population_spec, CalibratedPopulationSpec)
    assert study.spec.population is study.population


# -- Study.crawl() dispatch ----------------------------------------------


def test_crawl_serial_returns_outcome():
    outcome = _study(workers=1).crawl()
    assert isinstance(outcome, CrawlOutcome)
    assert len(outcome.dataset.flows) == _CONFIG.n_sites
    assert outcome.fault_plan is None
    assert outcome.recorder is None


def test_crawl_parallel_matches_the_engine():
    outcome = _study(workers=2).crawl()
    engine_fp = ParallelCrawler(_spec(), workers=2,
                                num_shards=4).crawl().fingerprint()
    assert outcome.dataset.fingerprint() == engine_fp


def test_run_uses_the_same_dispatch():
    serial = _study(workers=1).run()
    parallel = _study(workers=2).run()
    assert serial.dataset.fingerprint() == \
        _study(workers=1).crawl().dataset.fingerprint()
    assert parallel.dataset.fingerprint() == \
        _study(workers=2).crawl().dataset.fingerprint()


def test_crawl_serial_checkpoint_and_resume(tmp_path):
    path = str(tmp_path / "ckpt.pkl")
    baseline = _study().crawl().dataset.fingerprint()

    session = _study().crawler().start()
    session.step()
    session.save(path)
    outcome = _study().crawl(resume=path)
    assert outcome.dataset.fingerprint() == baseline


def test_crawl_rejects_foreign_resume_file(tmp_path):
    from repro.crawler import CheckpointError
    path = tmp_path / "not_a_checkpoint.pkl"
    path.write_bytes(b"junk")
    with pytest.raises((CheckpointError, OSError)):
        _study().crawl(resume=str(path))


# -- deprecations ---------------------------------------------------------


def test_crawl_itself_emits_no_deprecation_warning(recwarn):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        _study().crawl()
