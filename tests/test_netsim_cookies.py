"""RFC 6265 cookie jar semantics."""

import copyreg
import itertools
import pickle
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import Cookie, CookieJar, Url, parse_set_cookie


def _url(text="https://www.shop.com/account"):
    return Url.parse(text)


def test_parse_basic_set_cookie():
    cookie = parse_set_cookie("sid=abc123; Path=/; Max-Age=3600", _url(),
                              now=100.0)
    assert cookie.name == "sid"
    assert cookie.value == "abc123"
    assert cookie.domain == "www.shop.com"
    assert cookie.host_only
    assert cookie.expires == 3700.0


def test_domain_attribute_makes_domain_cookie():
    cookie = parse_set_cookie("id=1; Domain=shop.com", _url())
    assert cookie.domain == "shop.com"
    assert not cookie.host_only
    assert cookie.domain_matches("metrics.shop.com")
    assert cookie.domain_matches("shop.com")
    assert not cookie.domain_matches("evilshop.com")


def test_foreign_domain_attribute_rejected():
    assert parse_set_cookie("id=1; Domain=tracker.net", _url()) is None


def test_host_only_does_not_match_subdomains():
    cookie = parse_set_cookie("id=1", _url())
    assert cookie.domain_matches("www.shop.com")
    assert not cookie.domain_matches("cdn.www.shop.com")
    assert not cookie.domain_matches("shop.com")


def test_path_matching():
    cookie = parse_set_cookie("id=1; Path=/account", _url())
    assert cookie.path_matches("/account")
    assert cookie.path_matches("/account/login")
    assert not cookie.path_matches("/accounts")
    assert not cookie.path_matches("/")


def test_secure_cookie_not_sent_over_http():
    jar = CookieJar()
    jar.set_from_header("id=1; Secure", _url("https://shop.com/"))
    assert jar.cookie_header(Url.parse("https://shop.com/")) == "id=1"
    assert jar.cookie_header(Url.parse("http://shop.com/")) == ""


def test_expiry_against_simulated_clock():
    jar = CookieJar()
    jar.set_from_header("id=1; Max-Age=10", _url(), now=0.0)
    assert jar.cookie_header(_url(), now=5.0) == "id=1"
    assert jar.cookie_header(_url(), now=11.0) == ""


def test_clear_expired():
    jar = CookieJar()
    jar.set_from_header("a=1; Max-Age=10", _url(), now=0.0)
    jar.set_from_header("b=2; Max-Age=1000", _url(), now=0.0)
    assert jar.clear_expired(now=100.0) == 1
    assert len(jar) == 1


def test_overwrite_keeps_creation_time():
    jar = CookieJar()
    jar.set_from_header("id=old", _url(), now=1.0)
    jar.set_from_header("id=new", _url(), now=50.0)
    cookies = jar.all_cookies()
    assert len(cookies) == 1
    assert cookies[0].value == "new"
    assert cookies[0].creation_time == 1.0


def test_cookie_header_sort_order():
    # Longer paths first; earlier creation first among equals.
    jar = CookieJar()
    jar.set_from_header("b=2; Path=/account", _url(), now=2.0)
    jar.set_from_header("a=1; Path=/", _url(), now=1.0)
    header = jar.cookie_header(_url("https://www.shop.com/account/x"))
    assert header == "b=2; a=1"


def test_partitioned_storage_isolated():
    jar = CookieJar()
    tracker_url = Url.parse("https://tracker.net/pixel")
    jar.set_from_header("tuid=A; Domain=tracker.net", tracker_url,
                        partition="shop-a.com")
    assert jar.cookie_header(tracker_url, partition="shop-a.com") == "tuid=A"
    assert jar.cookie_header(tracker_url, partition="shop-b.com") == ""
    assert jar.cookie_header(tracker_url) == ""


def test_unparseable_header_returns_none():
    assert parse_set_cookie("no-equals-sign", _url()) is None
    assert parse_set_cookie("=value-only", _url()) is None


def test_expires_attribute_treated_as_persistent():
    cookie = parse_set_cookie(
        "id=1; Expires=Wed, 21 Oct 2026 07:28:00 GMT", _url(), now=0.0)
    assert cookie.expires is not None and cookie.expires > 0


def test_cookie_header_memo_starts_over_when_full():
    jar = CookieJar()
    url = _url()
    limit = jar._headers.limit
    assert limit == 1024
    rounds = limit + 5
    headers = []
    for index in range(rounds):
        jar.set_cookie(Cookie(name="n", value=str(index),
                              domain="www.shop.com"))
        headers.append(jar.cookie_header(url))
    assert headers == ["n=%d" % index for index in range(rounds)]
    assert len(jar._headers) <= limit
    assert jar.cookie_header(url) is headers[-1]


def test_clear():
    jar = CookieJar()
    jar.set_from_header("a=1", _url())
    jar.clear()
    assert len(jar) == 0


# -- differential check against the linear-scan jar ---------------------------

class _LinearJar:
    """Reference jar: the plain RFC 6265 linear scan over every cookie."""

    def __init__(self):
        self._cookies = {}

    def set_cookie(self, cookie, partition=""):
        key = (partition, cookie.domain, cookie.path, cookie.name)
        existing = self._cookies.get(key)
        if existing is not None:
            cookie.creation_time = existing.creation_time
        self._cookies[key] = cookie

    def cookies_for(self, url, now=0.0, partition=""):
        matches = []
        for (cookie_partition, _, _, _), cookie in self._cookies.items():
            if cookie_partition != partition:
                continue
            if cookie.is_expired(now):
                continue
            if not cookie.domain_matches(url.host):
                continue
            if not cookie.path_matches(url.path):
                continue
            if cookie.secure and url.scheme != "https":
                continue
            matches.append(cookie)
        matches.sort(key=lambda c: (-len(c.path), c.creation_time))
        return matches

    def all_cookies(self):
        return list(self._cookies.values())

    def clear_expired(self, now):
        expired = [key for key, cookie in self._cookies.items()
                   if cookie.is_expired(now)]
        for key in expired:
            del self._cookies[key]
        return len(expired)

    def clear(self):
        self._cookies.clear()

    def cookie_header(self, url, now=0.0, partition=""):
        return "; ".join("%s=%s" % (c.name, c.value)
                         for c in self.cookies_for(url, now, partition))


# Repeated entries weight the draws towards jars where lookups overlap.
_PARTITIONS = ("", "", "shop-a.com", "shop-b.com")
_HOSTS = ("shop.com", "www.shop.com", "a.www.shop.com", "evilshop.com",
          "com")
_COOKIE_DOMAINS = _HOSTS + ("shop.com", "www.shop.com", "", "Shop.com")
_PATHS = ("/", "/a", "/a/", "/a/b", "/ab")
_TIMES = (0.0, 5.0, 10.0, 15.0, 25.0)
#: Requests whose ``Cookie`` header every step renders again, so a
#: header kept from an earlier step must still be right after this one.
_PROBES = [(Url(scheme=scheme, host=host, path=path), partition)
           for scheme in ("https", "http")
           for host in ("www.shop.com", "shop.com", "a.www.shop.com")
           for path in ("/", "/a/b")
           for partition in ("", "shop-a.com")]

_cookies = st.builds(
    Cookie,
    name=st.sampled_from(("id", "uid")),
    value=st.sampled_from(("1", "2")),
    domain=st.sampled_from(_COOKIE_DOMAINS),
    path=st.sampled_from(_PATHS),
    secure=st.booleans(),
    host_only=st.booleans(),
    expires=st.sampled_from((None, None, 10.0, 20.0, 30.0)),
    creation_time=st.sampled_from((0.0, 1.0)))


@st.composite
def _request_urls(draw):
    host = draw(st.sampled_from(_HOSTS))
    spelling = draw(st.sampled_from(("plain", "plain", "upper", "dot")))
    if spelling == "upper":
        host = host.upper()
    elif spelling == "dot":
        host += "."
    return Url(scheme=draw(st.sampled_from(("https", "https", "http"))),
               host=host,
               path=draw(st.sampled_from(("/", "/a/b", "/a/b/c", "/ab"))))


# Each step stores a few cookies (often overwriting one), then queries,
# expires, clears or pickles, then sets the clock: mostly forward, past
# the cookies' expiries, sometimes back.
_steps = st.lists(st.tuples(
    st.lists(st.tuples(_cookies, st.sampled_from(_PARTITIONS)), max_size=5),
    st.one_of(
        st.tuples(st.just("clear_expired"), st.sampled_from(_TIMES)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("pickle")),
        st.tuples(st.just("query"), st.lists(st.tuples(
            _request_urls(), st.sampled_from(_PARTITIONS),
            st.sampled_from(_TIMES)), min_size=1, max_size=6))),
    st.sampled_from(_TIMES + (35.0, 35.0))),
    max_size=12)


def _state(cookies):
    return [repr(cookie) for cookie in cookies]


@settings(max_examples=300, deadline=None)
@given(_steps)
def test_jar_answers_like_the_linear_scan(steps):
    """Lookups and ``Cookie`` headers, kept ones included, match the
    linear scan after every step."""
    jar, reference = CookieJar(), _LinearJar()
    for placed, (action, *arguments), now in steps:
        for cookie, partition in placed:
            jar.set_cookie(replace(cookie), partition=partition)
            reference.set_cookie(replace(cookie), partition=partition)
        if action == "clear_expired":
            assert jar.clear_expired(*arguments) == \
                reference.clear_expired(*arguments)
        elif action == "clear":
            jar.clear()
            reference.clear()
        elif action == "pickle":
            jar = pickle.loads(pickle.dumps(jar))
        else:
            for url, partition, at in arguments[0]:
                assert _state(jar.cookies_for(url, at, partition)) == \
                    _state(reference.cookies_for(url, at, partition))
                assert jar.cookie_header(url, at, partition) == \
                    reference.cookie_header(url, at, partition)
        for url, partition in _PROBES:
            assert jar.cookie_header(url, now, partition) == \
                reference.cookie_header(url, now, partition)
        assert _state(jar.all_cookies()) == _state(reference.all_cookies())
    assert len(jar) == len(reference.all_cookies())


def test_kept_headers_follow_changes_the_scan_can_miss():
    """Cases a random walk seldom draws: an overwrite that revives a
    cookie a kept header left out as expired, removals seen from an
    earlier clock, and changes adopted from a journal."""
    url = _url()

    def cookie(value, expires):
        return Cookie(name="id", value=value, domain="www.shop.com",
                      expires=expires)

    jar = CookieJar()
    jar.set_cookie(cookie("1", 10.0))
    assert jar.cookie_header(url, 15.0) == ""
    jar.set_cookie(cookie("1", 30.0))  # same text, expiry moved on
    assert jar.cookie_header(url, 15.0) == "id=1"

    jar = CookieJar()
    jar.set_cookie(cookie("1", 10.0))
    assert jar.cookie_header(url, 5.0) == "id=1"
    assert jar.clear_expired(20.0) == 1
    assert jar.cookie_header(url, 5.0) == ""

    jar = CookieJar()
    jar.set_cookie(cookie("1", None))
    copy = pickle.loads(pickle.dumps(jar))
    version = jar.journal_version
    jar.set_cookie(Cookie(name="uid", value="2", domain="shop.com",
                          host_only=False))
    assert copy.cookie_header(url) == "id=1"
    copy.apply_journal_changes(jar.journal_changes(version))
    assert copy.cookie_header(url) == jar.cookie_header(url) == \
        "id=1; uid=2"


def _set_cookie_headers():
    """``Set-Cookie`` values over every attribute combination the parse
    distinguishes, rejected ``Domain``s and malformed pairs included."""
    attributes = itertools.product(
        ("", "; Domain=shop.com", "; Domain=.Shop.COM", "; domain=www.shop.com",
         "; Domain=tracker.net", "; Domain=hop.com", "; Domain="),
        ("", "; Path=/a", "; Path=nope", "; path=/"),
        ("", "; Secure"),
        ("", "; HttpOnly"),
        ("", "; Max-Age=10", "; Max-Age=x", "; Expires=Wed, 21 Oct 2026",
         "; Expires=Wed, 21 Oct 2026; Max-Age=60",
         "; Max-Age=60; Expires=Wed, 21 Oct 2026"))
    for domain, path, secure, http_only, expiry in attributes:
        yield "id=v1" + domain + path + secure + http_only + expiry
    yield from ("novalue", "=v; Path=/", " sp = v2 ;Secure", "id=v;")


def test_set_from_header_stores_what_the_parse_gives():
    """The kept parse of a header's attributes gives the cookie a fresh
    parse does: per request host, and at any clock."""
    urls = [Url(scheme="https", host="www.shop.com", path="/a/b"),
            Url(scheme="https", host="SHOP.com"),
            Url(scheme="http", host="px.tracker.net", path="/p")]
    for header in _set_cookie_headers():
        jar = CookieJar()
        for url in urls:
            # One header at two clocks: the second reads the kept parse.
            for now in (5.0, 50.0):
                partition = "%s@%s" % (url.host, now)
                expected = parse_set_cookie(header, url, now)
                assert jar.set_from_header(header, url, now,
                                           partition) == expected
                if expected is not None:
                    assert jar._cookies[(partition, expected.domain,
                                         expected.path,
                                         expected.name)] == expected
        assert len(jar._attributes) == len(urls)


def test_a_pickled_jar_starts_with_empty_memos():
    jar = CookieJar()
    url = Url.parse("https://px.tracker.net/p")
    jar.set_from_header("tuid=1; Max-Age=100; Domain=tracker.net", url,
                        now=1.0)
    assert jar.cookie_header(url, 2.0) == "tuid=1"
    assert jar._rendered and jar._readers and jar._attributes
    copy = pickle.loads(pickle.dumps(jar))
    assert not (copy._rendered or copy._readers or copy._attributes
                or copy._headers)
    assert copy.cookie_header(url, 2.0) == "tuid=1"
    assert copy.cookie_header(url, 101.0) == ""


class _StoredJar:
    """Pickles exactly as a jar whose ``__dict__`` holds only ``_cookies``.

    That is the shape older checkpoints carry; unpickling one must give a
    working jar, not one missing whatever the current class keeps beside
    the cookies.
    """

    def __init__(self, cookies):
        self._cookies = cookies

    @property
    def __class__(self):
        return CookieJar

    def __reduce_ex__(self, protocol):
        return (copyreg.__newobj__, (CookieJar,),
                {"_cookies": self._cookies})


def test_jar_pickled_as_bare_cookies_loads_working():
    reference = _LinearJar()
    setters = (("https://www.shop.com/", "sid=1; Path=/a", ""),
               ("https://www.shop.com/", "uid=2; Domain=shop.com", ""),
               ("https://px.tracker.net/", "t=3; Domain=tracker.net",
                "shop-a.com"),
               ("https://px.tracker.net/", "t=4; Secure", ""))
    for now, (url, header, partition) in enumerate(setters):
        reference.set_cookie(parse_set_cookie(header, Url.parse(url),
                                              now=float(now)),
                             partition=partition)
    stored = pickle.dumps(_StoredJar(dict(reference._cookies)),
                          protocol=pickle.HIGHEST_PROTOCOL)
    jar = pickle.loads(stored)
    assert isinstance(jar, CookieJar)
    assert pickle.dumps(jar, protocol=pickle.HIGHEST_PROTOCOL) == stored
    for url in ("https://www.shop.com/a/x", "https://shop.com/",
                "http://px.tracker.net/", "https://px.tracker.net/"):
        for partition in ("", "shop-a.com"):
            assert _state(jar.cookies_for(Url.parse(url), 0.0, partition)) \
                == _state(reference.cookies_for(Url.parse(url), 0.0,
                                                partition))
    jar.set_cookie(parse_set_cookie("late=5", Url.parse("https://shop.com/"),
                                    now=9.0))
    assert jar.cookie_header(Url.parse("https://shop.com/")) == \
        "uid=2; late=5"
