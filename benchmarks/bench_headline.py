"""§4.2 headline results: the full crawl -> detect pipeline.

Regenerates: 130 senders / 100 receivers / 42.3% of 307 sites / 1,522
leaking requests / mean 2.97 receivers per sender / 46.15% with >= 3 /
maximum 16 (loccitane.com).
"""

from repro.core import CandidateTokenSet, LeakAnalysis, LeakDetector
from repro.core.persona import DEFAULT_PERSONA
from repro.crawler import StudyCrawler
from repro.reporting import render_headline
from repro.websim.shopping import build_study_population


def test_bench_full_pipeline(benchmark, emit):
    """Time the entire §3-§4 methodology (build + crawl + detect)."""

    def pipeline():
        spec = build_study_population()
        dataset = StudyCrawler(spec.population).crawl()
        detector = LeakDetector(CandidateTokenSet(DEFAULT_PERSONA),
                                catalog=spec.catalog,
                                resolver=spec.population.resolver())
        return detector.run(dataset.log)

    result = benchmark.pedantic(pipeline, rounds=1, iterations=1)
    analysis = LeakAnalysis(result.events)
    emit("headline", render_headline(
        analysis, total_sites=307,
        leaking_requests=result.leaking_entry_count))
    assert len(analysis.senders()) == 130


def test_bench_detection_only(benchmark, crawl, detector):
    """Throughput of the leak detector over the captured traffic."""
    events = benchmark.pedantic(lambda: detector.detect(crawl.log),
                                rounds=3, iterations=1)
    assert events
