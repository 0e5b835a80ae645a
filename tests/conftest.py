"""Shared fixtures.

The calibrated crawl is expensive (~20 s), so everything derived from it
is session-scoped: one crawl, one detection pass, shared by every
integration test.
"""

from __future__ import annotations

import gc

import pytest

from repro.core import CandidateTokenSet, LeakAnalysis, LeakDetector
from repro.core.persona import DEFAULT_PERSONA
from repro.crawler import StudyCrawler
from repro.websim.shopping import build_study_population


@pytest.fixture(scope="session")
def study_spec():
    """The calibrated 404-site population."""
    return build_study_population()


@pytest.fixture(scope="session")
def crawl(study_spec):
    """The main (vanilla Firefox) crawl over the calibrated population."""
    return StudyCrawler(study_spec.population).crawl()


@pytest.fixture(scope="session")
def tokens():
    """The default persona's candidate token set."""
    return CandidateTokenSet(DEFAULT_PERSONA)


@pytest.fixture(scope="session")
def detector(study_spec, tokens):
    return LeakDetector(tokens, catalog=study_spec.catalog,
                        resolver=study_spec.population.resolver())


@pytest.fixture(scope="session")
def events(crawl, detector):
    return detector.detect(crawl.log)


@pytest.fixture(scope="session")
def analysis(events):
    return LeakAnalysis(events)


@pytest.fixture
def gc_state():
    """Restore the GC's enabled state whatever a test leaves behind."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()
