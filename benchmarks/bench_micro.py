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


def test_bench_calibrated_population_build(benchmark, monkeypatch):
    """The paper-calibrated population, built without the Tranco
    universe that only the selection report reads."""
    from repro.websim import shopping
    universes = []
    monkeypatch.setattr(shopping, "build_tranco_universe",
                        lambda *args, **kwargs: universes.append(args))
    spec = benchmark.pedantic(shopping.build_study_population,
                              rounds=2, iterations=1)
    assert len(spec.population.sites) == 404
    assert universes == []


# -- request-path memos: each case checks the memoised answer against the
# computation it replaces ----------------------------------------------------

def _tracker_jar():
    """A jar as a crawl leaves it: a tracker's ``tuid`` cookie beside the
    first-party cookies of a few sites, every ``Cookie`` header kept."""
    from repro.netsim import CookieJar, Url
    jar = CookieJar()
    tracker = Url.parse("https://px.tracker.net/b/ss?ev=PageView")
    jar.set_from_header("tuid=0a1b2c; Path=/; Max-Age=31536000; "
                        "Domain=tracker.net", tracker, now=10.0)
    for index in range(20):
        site = Url.parse("https://www.shop%d.example/" % index)
        jar.set_from_header("session=s%d; Path=/; Max-Age=86400" % index,
                            site, now=10.0)
    return jar, tracker


def test_bench_cookie_header_warm(benchmark):
    jar, tracker = _tracker_jar()
    jar.cookie_header(tracker, 20.0)
    header = benchmark(jar.cookie_header, tracker, 20.0)
    assert header == "; ".join("%s=%s" % (cookie.name, cookie.value)
                               for cookie in jar.cookies_for(tracker, 20.0))
    assert header == "tuid=0a1b2c"


def test_bench_set_from_header_tuid(benchmark):
    from repro.netsim import CookieJar, Url, parse_set_cookie
    jar = CookieJar()
    tracker = Url.parse("https://px.tracker.net/b/ss?ev=PageView")
    header = ("tuid=9f8e7d6c5b4a39281706f5e4; Path=/; Max-Age=31536000; "
              "Domain=tracker.net")
    jar.set_from_header(header, tracker, now=10.0)
    stored = benchmark(jar.set_from_header, header, tracker, 20.0)
    expected = parse_set_cookie(header, tracker, 20.0)
    expected.creation_time = 10.0  # an overwrite keeps the first's
    assert stored == expected


def test_bench_percent_encode_repeated(benchmark):
    from repro.netsim import percent_encode
    from repro.netsim.url import _encode
    values = ["udff[em]", "https://www.shop.example/account/register",
              DEFAULT_PERSONA.email, "PageView", "Jane Doe"] * 20

    def encode_all():
        return [percent_encode(value) for value in values]

    encoded = benchmark(encode_all)
    assert encoded == [_encode(value, "") for value in values]
