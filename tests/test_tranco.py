"""Site selection: ranked list, category dataset, §3.2 filter."""

import pytest

from repro.websim.tranco import (
    CATEGORY_SHOPPING,
    CategoryDataset,
    build_tranco_universe,
    select_study_sites,
)


@pytest.fixture(scope="module")
def universe():
    shopping = ["shop%03d.example" % i for i in range(50)]
    return build_tranco_universe(shopping, total=1000, seed=5), shopping


def test_universe_size_and_ranks(universe):
    (ranked, _), _ = universe
    assert len(ranked) == 1000
    assert [site.rank for site in ranked] == list(range(1, 1001))


def test_all_shopping_domains_embedded(universe):
    (ranked, dataset), shopping = universe
    embedded = {site.domain for site in ranked
                if site.category == CATEGORY_SHOPPING}
    assert embedded == set(shopping)
    for domain in shopping:
        assert dataset.classify(domain) == CATEGORY_SHOPPING


def test_selection_recovers_study_sites(universe):
    (ranked, dataset), shopping = universe
    selected = select_study_sites(ranked, dataset, max_rank=1000)
    assert sorted(selected) == sorted(shopping)


def test_rank_cutoff_respected(universe):
    (ranked, dataset), _ = universe
    top_half = select_study_sites(ranked, dataset, max_rank=500)
    full = select_study_sites(ranked, dataset, max_rank=1000)
    assert set(top_half) <= set(full)
    assert len(top_half) < len(full)


def test_no_shopping_sites_in_global_top_ranks(universe):
    # Like real Tranco: the very top of the list is not shop sites.
    (ranked, _), _ = universe
    assert all(site.category != CATEGORY_SHOPPING
               for site in ranked[:40])


def test_deterministic(universe):
    _, shopping = universe
    ranked_a, _ = build_tranco_universe(shopping, total=1000, seed=5)
    ranked_b, _ = build_tranco_universe(shopping, total=1000, seed=5)
    assert ranked_a == ranked_b


def test_total_must_exceed_shopping_count():
    with pytest.raises(ValueError):
        build_tranco_universe(["a.example"] * 10, total=10)


def test_category_dataset_queries():
    dataset = CategoryDataset({"a.com": "news-and-media",
                               "b.com": "shopping"})
    assert dataset.classify("A.COM") == "news-and-media"
    assert dataset.classify("missing.com") is None
    assert dataset.count("shopping") == 1
    assert dataset.domains("shopping") == ["b.com"]
    assert len(dataset) == 2


def test_calibrated_spec_carries_acquisition_context(study_spec):
    assert len(study_spec.tranco) == 10_000
    selected = select_study_sites(study_spec.tranco, study_spec.categories)
    assert sorted(selected) == sorted(study_spec.population.sites)
    # §3.2: 95.0% of the selected shopping sites have authentication flows.
    with_auth = sum(
        1 for domain in selected
        if study_spec.population.sites[domain].auth.has_auth)
    assert abs(100.0 * with_auth / len(selected) - 95.0) < 1.0
    # Site objects carry their actual rank in the universe.
    ranks = {study_spec.population.sites[d].tranco_rank for d in selected}
    assert len(ranks) == 404 and max(ranks) <= 10_000


#: sha256 of ``domain=rank`` over the calibrated sites, in population
#: order, as the eagerly built universe assigned them.
_CALIBRATED_RANKS_DIGEST = "64551cfadac519ed"


def test_calibrated_spec_builds_its_universe_only_when_read(monkeypatch):
    import hashlib

    from repro.websim import shopping, tranco
    builds = []
    build = tranco.build_tranco_universe

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(shopping, "build_tranco_universe", counting)
    spec = shopping.build_study_population()
    assert builds == []
    sites = spec.population.sites
    text = ",".join("%s=%d" % (domain, site.tranco_rank)
                    for domain, site in sites.items())
    assert hashlib.sha256(text.encode()).hexdigest().startswith(
        _CALIBRATED_RANKS_DIGEST)

    ranked, categories = build_tranco_universe(list(sites))
    assert spec.tranco == ranked
    assert spec.categories._assignments == categories._assignments
    assert len(builds) == 1
    assert spec.tranco is spec.tranco and len(builds) == 1
    rank_of = {site.domain: site.rank for site in ranked}
    assert all(site.tranco_rank == rank_of[domain]
               for domain, site in sites.items())
