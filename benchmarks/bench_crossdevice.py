"""§5.1 cross-browser / cross-device tracking demonstration.

Crawls the 130 leaking senders with two independent browser states (fresh
cookie jars — the "two devices"), then joins the two leak datasets on the
receiver side: every persistent provider links the profiles through the
shared PII-derived identifier, cookie-free.
"""

from repro.browser import chrome, vanilla_firefox
from repro.core import LeakDetector
from repro.crawler import StudyCrawler
from repro.tracking import linkable_receivers, match_profiles


def test_bench_cross_device_matching(benchmark, study_spec, tokens, emit):
    population = study_spec.population
    sites = [population.sites[d] for d in study_spec.leaking_domains[:40]]

    def crawl_profile(profile):
        dataset = StudyCrawler(population, profile=profile).crawl(
            sites=sites)
        detector = LeakDetector(tokens, catalog=population.catalog,
                                resolver=population.resolver())
        return detector.detect(dataset.log)

    events_device_a = crawl_profile(vanilla_firefox())
    events_device_b = crawl_profile(chrome())

    matches = benchmark(lambda: match_profiles(events_device_a,
                                               events_device_b))
    receivers = linkable_receivers(matches)
    top = matches[0]
    emit("crossdevice", "\n".join([
        "Cross-device identity joins over 40 senders, two browsers:",
        "  linkable receivers: %d" % len(receivers),
        "  best join: %s links %d sites via %r"
        % (top.receiver, top.linked_sites, top.parameter_a),
        "  receivers: %s" % ", ".join(receivers[:12]),
    ]))
    assert "facebook.com" in receivers
    assert top.linked_sites >= 2
