"""The indexed candidate scan equals the naive per-token scan, in order.

Companion to ``benchmarks/bench_ablation_lookup.py``: the benchmark
measures the speed difference, this test pins the equivalence on real
crawl traffic.  For the URL, every header value and the body of the first
300 unblocked requests, ``tokens.scan`` must report exactly the
``(start, end, pattern, payload)`` list a naive scan over every
(token, origin) pair finds: ordered by end, longer token first, then the
origins of one token in registration order.
"""


def _scan_texts(crawl, limit=300):
    texts = {}
    entries = [entry for entry in crawl.log if not entry.was_blocked]
    for entry in entries[:limit]:
        request = entry.request
        texts[str(request.url)] = None
        for _, value in request.headers:
            texts[value] = None
        if request.body:
            texts[request.body_text()] = None
    return list(texts)


def _naive_scan(pairs, text):
    found = []
    for order, (token, origin) in enumerate(pairs):
        start = text.find(token)
        while start != -1:
            found.append((start + len(token), -len(token), order, start,
                          token, origin))
            start = text.find(token, start + 1)
    found.sort(key=lambda hit: hit[:3])
    return [(start, end, token, origin)
            for end, _, _, start, token, origin in found]


def test_lookup_strategies_agree_on_crawl_traffic(crawl, tokens):
    # Two hits tie on (end, length) only when they are the same token, so
    # ranking pairs by token, then origin, gives the registration order.
    pairs = [(token, origin) for token in tokens.tokens()
             for origin in tokens.origins_of(token)]
    texts = _scan_texts(crawl)
    hits = 0
    for text in texts:
        indexed = [(match.start, match.end, match.pattern, match.payload)
                   for match in tokens.scan(text)]
        assert indexed == _naive_scan(pairs, text)
        hits += len(indexed)
    assert hits > 0
