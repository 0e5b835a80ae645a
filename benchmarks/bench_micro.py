"""Micro-benchmarks for the performance-critical primitives.

Run under pytest (``PYTHONPATH=src pytest benchmarks/bench_micro.py``):
each pytest-benchmark case times one primitive.  Whole-study and
per-layer host cost is the benchmark suite's job (see
``benchmarks/suite/README.md``).
"""

import pytest

from repro import hashes
from repro.blocklist import RequestContext, RuleSet, easyprivacy_text
from repro.core import CandidateTokenSet, PatternIndex, TokenSetConfig
from repro.core.persona import DEFAULT_PERSONA

_EMAIL = DEFAULT_PERSONA.email.encode()


@pytest.mark.parametrize("name", ["md5", "sha256", "md4", "ripemd160",
                                  "whirlpool", "snefru128", "md2"])
def test_bench_hash_throughput(benchmark, name):
    transform = hashes.get(name)
    benchmark(transform.apply, _EMAIL)


def test_bench_token_set_build(benchmark):
    benchmark.pedantic(
        lambda: CandidateTokenSet(DEFAULT_PERSONA,
                                  TokenSetConfig(max_depth=2)),
        rounds=2, iterations=1)


def test_bench_pattern_index_build(benchmark):
    """The pattern index over the default persona's real candidate tokens
    (3,478 tokens, 176,080 characters)."""
    patterns = CandidateTokenSet(DEFAULT_PERSONA).tokens()

    def build():
        index = PatternIndex()
        for pattern in patterns:
            index.add(pattern, pattern)
        index.build()
        return index

    index = benchmark.pedantic(build, rounds=3, iterations=1)
    assert len(index) == len(patterns)


_HIT_CONTEXT = RequestContext(
    url="https://www.facebook.com/tr?ev=identify&udff%5Bem%5D=abcd",
    resource_type="image", page_domain="shop.com",
    is_third_party=True)
_MISS_CONTEXT = RequestContext(
    url="https://api.custora.com/v1/track?uid=abcd",
    resource_type="image", page_domain="shop.com",
    is_third_party=True)


def test_bench_blocklist_match(benchmark):
    rules = RuleSet.from_text(easyprivacy_text())
    result = benchmark(rules.match, _HIT_CONTEXT)
    assert result.blocked


def test_bench_blocklist_miss(benchmark):
    rules = RuleSet.from_text(easyprivacy_text())
    result = benchmark(rules.match, _MISS_CONTEXT)
    assert not result.blocked


def test_bench_chain_enumeration_cold(benchmark):
    """Full encoding-chain enumeration with a cold apply_chain memo."""
    def build():
        hashes.clear_chain_cache()
        return CandidateTokenSet(DEFAULT_PERSONA, recorder=None)

    tokens = benchmark.pedantic(build, rounds=2, iterations=1)
    assert tokens.token_count > 1000


def test_bench_wire_serialization(benchmark):
    from repro.netsim import Headers, HttpRequest, Url
    from repro.netsim.wire import parse_request, serialize_request
    request = HttpRequest(
        method="POST",
        url=Url.parse("https://www.facebook.com/tr?ev=identify&uid=abc"),
        headers=Headers([("Referer", "https://www.shop.example/"),
                         ("Content-Type",
                          "application/x-www-form-urlencoded")]),
        body=b"udff%5Bem%5D=" + b"a" * 64)
    raw = serialize_request(request)
    benchmark(parse_request, raw)


def test_bench_caching_resolver(benchmark, study_spec):
    from repro.dnssim import CachingResolver
    clock = [0.0]
    resolver = CachingResolver(study_spec.population.resolver(),
                               lambda: clock[0])
    resolver.resolve("www.facebook.com")  # warm the cache

    def lookup():
        return resolver.resolve("www.facebook.com")

    benchmark(lookup)
    # The warm-up is the only miss, however often the benchmark calls.
    assert resolver.stats.misses == 1
    assert resolver.stats.hits >= 1
