#!/usr/bin/env python3
"""Audit a site definition you wrote yourself.

The downstream use case: you model *your own* site's third-party embeds
(which snippets it loads, what they read from the sign-up form), run the
paper's methodology against it, and get a leak report plus the protections
that would catch each leak — before any real user types anything.

Run:  python examples/audit_custom_site.py
"""

from repro.blocklist import BlocklistEvaluator
from repro.core import CandidateTokenSet, LeakAnalysis, LeakDetector
from repro.core.persona import DEFAULT_PERSONA
from repro.crawler import StudyCrawler
from repro.websim import (
    LeakBehavior,
    TrackerEmbed,
    Website,
    build_default_catalog,
)
from repro.websim.population import Population


def my_site(catalog) -> Website:
    """Your storefront, as currently deployed."""
    return Website(
        domain="my-storefront.example",
        embeds=[
            # Facebook pixel with advanced matching enabled.
            TrackerEmbed(catalog.get("facebook.com"),
                         LeakBehavior(("uri", "payload"), (("sha256",),))),
            # Klaviyo onsite snippet identifying subscribers.
            TrackerEmbed(catalog.get("klaviyo.com"),
                         LeakBehavior(("uri",), (("base64",),))),
            # Plain analytics, no identify call: embedded but not leaking.
            TrackerEmbed(catalog.get("google-analytics.com")),
        ])


def main() -> None:
    catalog = build_default_catalog()
    site = my_site(catalog)
    population = Population(sites={site.domain: site}, catalog=catalog)

    dataset = StudyCrawler(population).crawl()
    detector = LeakDetector(CandidateTokenSet(DEFAULT_PERSONA),
                            catalog=catalog,
                            resolver=population.resolver())
    events = detector.detect(dataset.log)
    analysis = LeakAnalysis(events)

    print("Audit report for %s" % site.domain)
    print("=" * 60)
    if not events:
        print("No PII leakage detected.")
        return
    for rel in analysis.relationships():
        print("\nLEAK -> %s (%s)" % (rel.receiver,
                                     catalog.get(rel.receiver).organisation))
        print("  channels:  %s" % ", ".join(sorted(rel.channels)))
        print("  encodings: %s" % ", ".join(sorted(rel.encodings)))
        print("  PII types: %s" % ", ".join(sorted(rel.pii_types)))
        print("  params:    %s" % ", ".join(sorted(rel.parameters)))
        print("  persists on subpages: %s"
              % ("YES" if rel.seen_on_subpage else "no"))

    # Which of the user's leaks would common protections have caught?
    evaluator = BlocklistEvaluator(detector)
    report = evaluator.evaluate(dataset.log)
    print("\nWould filter lists have stopped this?")
    for list_name in ("easylist", "easyprivacy", "combined"):
        cell = report.receivers[list_name]["total"]
        print("  %-12s blocks %d of %d leak receivers"
              % (list_name, cell.blocked, cell.total))


if __name__ == "__main__":
    main()
