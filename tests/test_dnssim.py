"""DNS resolver and CNAME cloaking detection."""

import pickle

import pytest

from repro.crawler import StudyCrawler
from repro.dnssim import (
    CnameCloakingDetector,
    DnsError,
    Resolver,
    ResourceRecord,
    Zone,
)
from repro.websim.generator import GeneratorConfig, generate_population


def _zone():
    zone = Zone()
    zone.add_a("www.shop.com", "203.0.113.1")
    zone.add_cname("metrics.shop.com", "shop.com.sc.omtrdc.net")
    zone.add_a("shop.com.sc.omtrdc.net", "203.0.113.2")
    zone.add_cname("a.shop.com", "b.shop.com")
    zone.add_cname("b.shop.com", "c.shop.com")
    zone.add_a("c.shop.com", "203.0.113.3")
    return zone


def test_a_record_resolution():
    resolution = Resolver(_zone()).resolve("www.shop.com")
    assert resolution.address == "203.0.113.1"
    assert resolution.cname_chain == ()
    assert resolution.canonical_name == "www.shop.com"


def test_cname_chain_followed():
    resolution = Resolver(_zone()).resolve("metrics.shop.com")
    assert resolution.address == "203.0.113.2"
    assert resolution.cname_chain == ("shop.com.sc.omtrdc.net",)


def test_multi_hop_chain():
    resolution = Resolver(_zone()).resolve("a.shop.com")
    assert resolution.cname_chain == ("b.shop.com", "c.shop.com")
    assert resolution.canonical_name == "c.shop.com"


def test_nxdomain():
    with pytest.raises(DnsError):
        Resolver(_zone()).resolve("missing.shop.com")


def test_cname_loop_detected():
    zone = Zone()
    zone.add_cname("x.shop.com", "y.shop.com")
    zone.add_cname("y.shop.com", "x.shop.com")
    with pytest.raises(DnsError):
        Resolver(zone).resolve("x.shop.com")


def test_exists_and_chain_helpers():
    resolver = Resolver(_zone())
    assert resolver.exists("www.shop.com")
    assert not resolver.exists("nope.shop.com")
    assert resolver.cname_chain("nope.shop.com") == ()


def test_record_type_validation():
    with pytest.raises(ValueError):
        ResourceRecord("x.com", "TXT", "hello")


def test_names_normalized():
    zone = Zone()
    zone.add_a("WWW.Shop.COM.", "203.0.113.9")
    assert Resolver(zone).resolve("www.shop.com").address == "203.0.113.9"


def test_nxdomain_name_resolves_after_zone_add():
    zone = _zone()
    resolver = Resolver(zone)
    assert not resolver.exists("late.shop.com")
    with pytest.raises(DnsError):
        resolver.resolve("late.shop.com")
    zone.add_a("late.shop.com", "203.0.113.7")
    assert resolver.exists("late.shop.com")
    assert resolver.resolve("late.shop.com").address == "203.0.113.7"


def test_cname_added_after_a_lookup_extends_the_chain():
    zone = _zone()
    resolver = Resolver(zone)
    assert resolver.cname_chain("a.shop.com") == ("b.shop.com", "c.shop.com")
    zone.add_cname("c.shop.com", "edge.cdn.net")
    zone.add_a("edge.cdn.net", "203.0.113.8")
    resolution = resolver.resolve("a.shop.com")
    assert resolution.cname_chain == ("b.shop.com", "c.shop.com",
                                      "edge.cdn.net")
    assert resolution.address == "203.0.113.8"


def test_memoised_resolutions_are_shared_and_frozen():
    resolver = Resolver(_zone())
    first = resolver.resolve("metrics.shop.com")
    assert resolver.resolve("metrics.shop.com") is first
    with pytest.raises(AttributeError):
        first.address = "198.51.100.1"


def test_pickled_session_carries_no_resolver_memo():
    population = generate_population(seed=5, config=GeneratorConfig(
        n_sites=4, n_trackers=3))
    session = StudyCrawler(population).start()
    session.step()
    assert session.browser.resolver._memo
    blob = pickle.dumps(session)
    assert b"_memo" not in blob
    restored = pickle.loads(blob)
    assert restored.browser.resolver._memo == {}
    assert restored.run().fingerprint() == session.run().fingerprint()


# -- Cloaking detection -------------------------------------------------------

def test_cloaked_subdomain_detected():
    detector = CnameCloakingDetector(Resolver(_zone()))
    verdict = detector.classify("metrics.shop.com", "www.shop.com")
    assert verdict.cloaked
    assert verdict.tracker_zone == "omtrdc.net"
    assert verdict.organisation == "Adobe"
    assert verdict.effective_domain == "omtrdc.net"


def test_uncloaked_first_party_subdomain():
    detector = CnameCloakingDetector(Resolver(_zone()))
    verdict = detector.classify("a.shop.com", "www.shop.com")
    assert not verdict.cloaked
    assert verdict.effective_domain == "a.shop.com"


def test_plain_third_party_not_cloaking():
    zone = _zone()
    zone.add_a("tracker.net")
    detector = CnameCloakingDetector(Resolver(zone))
    verdict = detector.classify("tracker.net", "www.shop.com")
    assert not verdict.cloaked


def test_custom_zone_registration():
    zone = Zone()
    zone.add_cname("t.shop.com", "shop.com.x.newtracker.example")
    zone.add_a("shop.com.x.newtracker.example")
    detector = CnameCloakingDetector(Resolver(zone))
    assert not detector.classify("t.shop.com", "www.shop.com").cloaked
    detector.add_zone("newtracker.example", "NewTracker")
    verdict = detector.classify("t.shop.com", "www.shop.com")
    assert verdict.cloaked and verdict.organisation == "NewTracker"


def test_cloaked_hosts_bulk():
    detector = CnameCloakingDetector(Resolver(_zone()))
    verdicts = detector.cloaked_hosts(
        ["metrics.shop.com", "a.shop.com", "www.shop.com"], "www.shop.com")
    assert list(verdicts) == ["metrics.shop.com"]
