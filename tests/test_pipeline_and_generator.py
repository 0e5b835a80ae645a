"""Study facade and the randomized population generator."""

import pytest

from repro import Study, StudyConfig, TokenSetConfig
from repro.core import CandidateTokenSet, LeakAnalysis, LeakDetector
from repro.crawler import StudyCrawler
from repro.websim.generator import GeneratorConfig, generate_population


@pytest.fixture(scope="module")
def small_population():
    return generate_population(seed=11, config=GeneratorConfig(
        n_sites=10, n_trackers=5))


def test_study_over_custom_population(small_population):
    result = Study(small_population).run()
    assert result.dataset.status_counts().get("success") == 10
    expected = {domain for domain, site in small_population.sites.items()
                if site.leaking_embeds()}
    assert set(result.analysis.senders()) == expected


def test_study_token_config_respected(small_population):
    config = StudyConfig(token_config=TokenSetConfig(max_depth=1))
    result = Study(small_population, config=config).run()
    assert result.tokens.config.max_depth == 1


def test_generator_deterministic():
    population_a = generate_population(seed=3)
    population_b = generate_population(seed=3)
    assert list(population_a.sites) == list(population_b.sites)
    behaviors_a = [(d, [ (e.service.domain, e.leak) for e in s.embeds])
                   for d, s in population_a.sites.items()]
    behaviors_b = [(d, [ (e.service.domain, e.leak) for e in s.embeds])
                   for d, s in population_b.sites.items()]
    assert behaviors_a == behaviors_b


def test_generator_seeds_differ():
    population_a = generate_population(seed=1)
    population_b = generate_population(seed=2)
    behaviors_a = [e.leak for s in population_a.sites.values()
                   for e in s.embeds]
    behaviors_b = [e.leak for s in population_b.sites.values()
                   for e in s.embeds]
    assert behaviors_a != behaviors_b


def test_crawler_sessions_do_not_share_simulated_time():
    """Each session a crawler starts runs on a clock of its own, so a
    second crawl from the same crawler repeats the first."""
    population = generate_population(seed=1, config=GeneratorConfig(
        n_sites=6, n_trackers=4, leak_probability=0.6,
        confirmation_probability=0.4))
    crawler = StudyCrawler(population)
    first = crawler.crawl().fingerprint()
    assert crawler.crawl().fingerprint() == first
    assert StudyCrawler(population).crawl().fingerprint() == first


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_generated_population_full_detection_recall(seed):
    """Every planted leak is found; no non-leaking site is accused."""
    population = generate_population(seed=seed, config=GeneratorConfig(
        n_sites=8, n_trackers=5))
    dataset = StudyCrawler(population).crawl()
    detector = LeakDetector(CandidateTokenSet(population.persona),
                            catalog=population.catalog,
                            resolver=population.resolver())
    analysis = LeakAnalysis(detector.detect(dataset.log))
    expected = {domain for domain, site in population.sites.items()
                if site.leaking_embeds()
                or site.auth.signup_method == "GET" and site.embeds}
    assert set(analysis.senders()) == expected
    expected_receivers = set()
    for site in population.sites.values():
        expected_receivers.update(site.receiver_domains())
        if site.auth.signup_method == "GET":
            # GET forms put PII in the URL: every embedded third party
            # then receives it in the Referer header (Figure 1.a).
            expected_receivers.update(e.service.domain
                                      for e in site.embeds)
    assert set(analysis.receivers()) == expected_receivers


def test_generated_relationship_channels_match_plan():
    population = generate_population(seed=5, config=GeneratorConfig(
        n_sites=6, n_trackers=4))
    dataset = StudyCrawler(population).crawl()
    detector = LeakDetector(CandidateTokenSet(population.persona),
                            catalog=population.catalog,
                            resolver=population.resolver())
    analysis = LeakAnalysis(detector.detect(dataset.log))
    planned = {}
    for domain, site in population.sites.items():
        for embed in site.leaking_embeds():
            planned[(domain, embed.service.domain)] = \
                set(embed.leak.channels)
    for rel in analysis.relationships():
        assert (rel.sender, rel.receiver) in planned
        assert planned[(rel.sender, rel.receiver)] <= rel.channels


def test_calibrated_study_runs_via_facade():
    result = Study.calibrated().run()
    assert len(result.analysis.senders()) == 130
    assert result.persistence.provider_count == 20
    assert result.table3_counts["disclose_not_specific"] == 102
    assert result.marketing_mail_counts() == {"inbox": 2172, "spam": 141}
    assert result.third_party_mail_senders() == []
