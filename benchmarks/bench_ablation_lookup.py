"""Ablation: candidate-set lookup strategy.

Compares the prefix-anchor pattern index (one pass over the text for all
tokens) against the naive per-token substring scan a straightforward
implementation would use.  Both find the same leaks; the index's
advantage grows with the candidate-set size.
"""

import pytest


def _scan_texts(crawl, limit=400):
    texts = []
    for entry in crawl.log:
        if entry.was_blocked:
            continue
        texts.append(str(entry.request.url))
        if len(texts) >= limit:
            break
    return texts


@pytest.fixture(scope="module")
def scan_texts(crawl):
    return _scan_texts(crawl)


def test_bench_lookup_pattern_index(benchmark, tokens, scan_texts):
    def indexed_scan():
        return sum(len(tokens.scan(text)) for text in scan_texts)

    hits = benchmark(indexed_scan)
    assert hits > 0


def test_bench_lookup_naive_substring(benchmark, tokens, scan_texts):
    all_tokens = tokens.tokens()

    def naive_scan():
        hits = 0
        for text in scan_texts:
            for token in all_tokens:
                if token in text:
                    hits += 1
        return hits

    hits = benchmark.pedantic(naive_scan, rounds=1, iterations=1)
    assert hits > 0
    # The equivalence of the two strategies is asserted in
    # tests/test_lookup_agreement.py.
