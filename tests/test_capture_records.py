"""Capture records: slotted, compactly pickled, and unchanged to the dataset.

``Url``, ``HttpRequest``, ``HttpResponse``, ``CaptureEntry`` and
``Headers`` keep no ``__dict__`` and pickle as their field values.  The
dataset must not see that: the golden ``repr`` strings below were
captured from the earlier ``__dict__``-backed dataclasses.
"""

import dataclasses
import gc
import pickle
from collections import Counter

import pytest

from repro.browser import Browser, RetryPolicy, vanilla_firefox
from repro.crawler import StudyCrawler
from repro.netsim import (
    CaptureEntry,
    Headers,
    HttpRequest,
    HttpResponse,
    STAGE_HOMEPAGE,
    Url,
)
from repro.netsim.faults import FAULT_SLOW, FaultPlan, NetworkError
from repro.websim import Website, build_default_catalog, wrap_server
from repro.websim.generator import GeneratorConfig, generate_population
from repro.websim.population import Population
from repro.websim.server import WebServer


def _records():
    url = Url.parse("https://Shop.Example:8443/a/b?x=1&y=%20z#frag")
    page = Url(host="www.shop.example")
    headers = Headers([("Referer", "https://www.shop.example/"),
                       ("Cookie", "a=1")])
    request = HttpRequest(method="post", url=url, headers=headers,
                          body=b"email=a%40b",
                          resource_type="xmlhttprequest",
                          initiator_chain=(page,), timestamp=12.5)
    response = HttpResponse(status=302,
                            headers=Headers([("Location", "/next")]),
                            body=b"ok")
    entry = CaptureEntry(request=request, response=response,
                         site="shop.example", stage="signup",
                         page_url="https://www.shop.example/")
    blocked = CaptureEntry(request=HttpRequest("GET", page), response=None,
                           site="shop.example", stage="homepage",
                           page_url="https://www.shop.example/",
                           blocked_by="fault:timeout")
    return {"url": url, "page": page, "headers": headers,
            "request": request, "response": response, "entry": entry,
            "blocked": blocked, "empty_response": HttpResponse()}


_URL = ("Url(scheme='https', host='shop.example', path='/a/b', "
        "query=(('x', '1'), ('y', ' z')), fragment='frag', port=8443)")
_PAGE = ("Url(scheme='https', host='www.shop.example', path='/', query=(), "
         "fragment='', port=None)")
_HEADERS = ("Headers([('Referer', 'https://www.shop.example/'), "
            "('Cookie', 'a=1')])")
_REQUEST = ("HttpRequest(method='POST', url=%s, headers=%s, "
            "body=b'email=a%%40b', resource_type='xmlhttprequest', "
            "initiator_chain=(%s,), timestamp=12.5)"
            % (_URL, _HEADERS, _PAGE))
_RESPONSE = ("HttpResponse(status=302, headers=Headers([('Location', "
             "'/next')]), body=b'ok')")

GOLDEN_REPRS = {
    "url": _URL,
    "page": _PAGE,
    "headers": _HEADERS,
    "request": _REQUEST,
    "response": _RESPONSE,
    "entry": ("CaptureEntry(request=%s, response=%s, site='shop.example', "
              "stage='signup', page_url='https://www.shop.example/', "
              "blocked_by=None)" % (_REQUEST, _RESPONSE)),
    "blocked": ("CaptureEntry(request=HttpRequest(method='GET', url=%s, "
                "headers=Headers([]), body=b'', resource_type='document', "
                "initiator_chain=(), timestamp=0.0), response=None, "
                "site='shop.example', stage='homepage', "
                "page_url='https://www.shop.example/', "
                "blocked_by='fault:timeout')" % _PAGE),
    "empty_response": "HttpResponse(status=200, headers=Headers([]), "
                      "body=b'')",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPRS))
def test_record_repr_matches_the_golden_string(name):
    assert repr(_records()[name]) == GOLDEN_REPRS[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_REPRS))
def test_record_has_no_instance_dict(name):
    record = _records()[name]
    assert not hasattr(record, "__dict__")
    with pytest.raises((AttributeError, dataclasses.FrozenInstanceError)):
        record.not_a_field = 1


@pytest.mark.parametrize("name", sorted(GOLDEN_REPRS))
def test_record_pickle_round_trip_is_equal(name):
    record = _records()[name]
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol=protocol))
        assert clone == record
        assert type(clone) is type(record)
        assert repr(clone) == repr(record)


def test_url_hashes_like_an_equal_value_and_stays_frozen():
    url = _records()["url"]
    twin = Url(scheme="https", host="shop.example", path="/a/b",
               query=(("x", "1"), ("y", " z")), fragment="frag", port=8443)
    assert url == twin and url is not twin
    assert hash(url) == hash(twin)
    assert len({url, twin, pickle.loads(pickle.dumps(url))}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        url.host = "other.example"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del url.path


def test_url_replace_keeps_the_checks():
    url = _records()["url"]
    moved = dataclasses.replace(url, host="cdn.example", path="img")
    assert str(moved) == "https://cdn.example:8443/img?x=1&y=%20z#frag"
    assert url.host == "shop.example"
    with pytest.raises(ValueError, match="unsupported scheme"):
        dataclasses.replace(url, scheme="ftp")
    with pytest.raises(ValueError, match="requires a host"):
        dataclasses.replace(url, host="")
    assert [f.name for f in dataclasses.fields(Url)] == [
        "scheme", "host", "path", "query", "fragment", "port"]


def test_request_keeps_its_checks_and_default_headers():
    url = _records()["page"]
    assert HttpRequest("get", url).method == "GET"
    with pytest.raises(ValueError, match="unknown resource type"):
        HttpRequest("GET", url, resource_type="font")
    first, second = HttpRequest("GET", url), HttpRequest("GET", url)
    assert first.headers is not second.headers
    first.headers.add("Cookie", "a=1")
    assert len(second.headers) == 0
    assert HttpRequest.__hash__ is None
    assert HttpResponse.__hash__ is None
    assert CaptureEntry.__hash__ is None


def test_response_latency_is_not_a_field():
    slow = HttpResponse(status=200, body=b"ok", latency_seconds=60.0)
    assert slow == HttpResponse(status=200, body=b"ok")
    assert repr(slow) == repr(HttpResponse(status=200, body=b"ok"))
    assert "latency_seconds" not in {
        f.name for f in dataclasses.fields(HttpResponse)}
    assert HttpResponse().latency_seconds is None


def _slow_response():
    """A genuine FAULT_SLOW answer from the fault-injecting server."""
    sites = {"shop.example": Website(domain="shop.example")}
    server = wrap_server(WebServer(sites=sites,
                                   catalog=build_default_catalog()),
                         FaultPlan(seed=4, transient_rate=0.9,
                                   max_consecutive=1000, slow_seconds=60.0))
    request = HttpRequest("GET", Url.parse("https://www.shop.example/"))
    for _ in range(300):
        try:
            response = server.handle(request)
        except NetworkError:
            continue
        if response.latency_seconds is not None:
            return response
    raise AssertionError("the plan injected no slow response")


class _ReplayServer:
    """Answers every request with one fixed response."""

    def __init__(self, response):
        self.response = response

    def handle(self, request):
        return self.response


def test_slow_response_keeps_its_latency_through_a_pickle_round_trip():
    response = _slow_response()
    clone = pickle.loads(pickle.dumps(response,
                                      protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == response
    assert clone.latency_seconds == 60.0

    site = Website(domain="shop.example")
    population = Population(sites={"shop.example": site},
                            catalog=build_default_catalog())
    browser = Browser(profile=vanilla_firefox(),
                      server=_ReplayServer(clone),
                      resolver=population.resolver(),
                      catalog=population.catalog,
                      retry_policy=RetryPolicy(max_attempts=1,
                                               request_timeout=30.0))
    result = browser.visit(site, site.page_url("home"), STAGE_HOMEPAGE)
    assert not result.ok
    assert browser.last_failure.kind == FAULT_SLOW
    assert [entry.blocked_by for entry in browser.log] == [
        "fault:%s" % FAULT_SLOW]


def test_the_page_model_is_not_a_field_and_no_pickle_carries_it():
    response = _slow_response()
    assert response.page is not None
    assert "page" not in {f.name for f in dataclasses.fields(HttpResponse)}
    clone = pickle.loads(pickle.dumps(response,
                                      protocol=pickle.HIGHEST_PROTOCOL))
    assert clone == response
    assert clone.page is None
    assert HttpResponse().page is None


def _count_parses(monkeypatch):
    """Count the browser's calls of ``parse_page``."""
    from repro.browser import engine
    calls = []
    parse = engine.parse_page

    def counting(html):
        calls.append(html)
        return parse(html)

    monkeypatch.setattr(engine, "parse_page", counting)
    return calls


def test_no_captured_response_keeps_its_page_model(monkeypatch):
    parses = _count_parses(monkeypatch)
    population = generate_population(seed=404, config=GeneratorConfig(
        n_sites=404, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))
    log = StudyCrawler(population).crawl().log
    assert parses == []
    assert all(entry.response.page is None for entry in log
               if entry.response is not None)


def test_no_captured_response_of_a_faulted_job_keeps_its_page_model(
        monkeypatch):
    from repro.netsim import CaptureLog
    from repro.service import JobRun, JobSpec
    from repro.service.jobs import STATE_COMPLETE
    entries = []
    record = CaptureLog.record

    def keeping(self, entry):
        entries.append(entry)
        return record(self, entry)

    monkeypatch.setattr(CaptureLog, "record", keeping)
    spec = JobSpec.from_dict({"seed": 404, "sites": 24, "fault_rate": 0.05,
                              "fault_seed": 3})
    assert JobRun(spec).execute().state == STATE_COMPLETE
    # The in-process job hit slow origins too: their answers, models
    # and all, were dropped with the timeout.
    assert "fault:%s" % FAULT_SLOW in {entry.blocked_by
                                       for entry in entries}
    assert any(entry.response is not None for entry in entries)
    assert all(entry.response.page is None for entry in entries
               if entry.response is not None)


def test_fault_injection_writes_no_shared_response(monkeypatch):
    """A slow fault's latency rides on a copy of the origin's answer:
    the server shares its fixed replies with every exchange, so a
    latency written onto one would slow every later exchange too."""
    from repro.service import JobRun, JobSpec
    from repro.service.jobs import STATE_COMPLETE
    from repro.websim.faults import FaultyServer
    decisions = []
    served = []
    next_fault = FaultPlan.next_fault
    handle = FaultyServer.handle

    def deciding(self, origin):
        decisions.append(next_fault(self, origin))
        return decisions[-1]

    def serving(self, request):
        response = handle(self, request)
        served.append((decisions[-1], response))
        return response

    monkeypatch.setattr(FaultPlan, "next_fault", deciding)
    monkeypatch.setattr(FaultyServer, "handle", serving)
    spec = JobSpec.from_dict({"seed": 404, "sites": 24, "fault_rate": 0.05,
                              "fault_seed": 3})
    assert JobRun(spec).execute().state == STATE_COMPLETE
    # The responses that carry a latency are exactly the slow faults.
    assert [kind == FAULT_SLOW for kind, _ in served] == [
        response.latency_seconds is not None for _, response in served]
    assert decisions.count(FAULT_SLOW) > 0
    times_served = Counter(id(response) for _, response in served)
    shared = {id(response): response for _, response in served
              if times_served[id(response)] > 1}
    assert len(shared) > 2
    for response in shared.values():
        assert response.latency_seconds is None
        assert response.page is None


def test_a_page_without_its_model_is_parsed_and_crawled_the_same(
        monkeypatch):
    """Every response goes through a pickle, as a replayed one would:
    the browser parses each page and sends the very same requests."""
    population = generate_population(seed=5, config=GeneratorConfig(
        n_sites=8, n_trackers=4, leak_probability=0.6,
        confirmation_probability=0.4))
    served = StudyCrawler(population).start().run().log.entries
    handle = WebServer.handle

    def replayed(self, request):
        return pickle.loads(pickle.dumps(handle(self, request)))

    parses = _count_parses(monkeypatch)
    monkeypatch.setattr(WebServer, "handle", replayed)
    population = generate_population(seed=5, config=GeneratorConfig(
        n_sites=8, n_trackers=4, leak_probability=0.6,
        confirmation_probability=0.4))
    parsed = StudyCrawler(population).start().run().log.entries
    assert len(parses) == sum(
        1 for entry in served if entry.response is not None
        and entry.response.headers.get("Content-Type", "").startswith(
            "text/html"))
    assert parses
    assert parsed == served


def test_a_page_model_changes_no_pickled_byte(monkeypatch):
    """A crawl that parses every page pickles its capture log to the
    very bytes of one handed the models: a model shares no string
    across pages where a parse would have made a copy per page, so
    shard results and checkpoint records keep their bytes too."""
    modelled = pickle.dumps(_crawl_entries(),
                            protocol=pickle.HIGHEST_PROTOCOL)
    handle = WebServer.handle

    def without_model(self, request):
        response = handle(self, request)
        response.page = None
        return response

    parses = _count_parses(monkeypatch)
    monkeypatch.setattr(WebServer, "handle", without_model)
    parsed = pickle.dumps(_crawl_entries(),
                          protocol=pickle.HIGHEST_PROTOCOL)
    assert parses
    assert parsed == modelled


#: Pickled bytes per capture entry of the 8-site crawl below.  With one
#: ``Headers`` per header block, one body per distinct page and one
#: chain and ping ``Url`` per (page, tracker), the log pickles to 203.7
#: bytes per entry; with only the tuples inside them shared it took
#: 220.9, with every part a copy 283.7, and the ``__dict__``-backed
#: dataclasses before them 398.3.  The ceiling leaves 7% headroom.
_PICKLED_BYTES_PER_ENTRY_CEILING = 218

#: Tuples reachable from the 8-site crawl's capture log: 670 with the
#: repeated header fields, header blocks, queries, initiator chains and
#: ping URLs shared (697 with a chain and a ping built per snippet run),
#: 2,442 with every one a copy.
_LOG_TUPLES_CEILING = 720


def _crawl_entries():
    population = generate_population(seed=5, config=GeneratorConfig(
        n_sites=8, n_trackers=4, leak_probability=0.6,
        confirmation_probability=0.4))
    return StudyCrawler(population).start().run().log.entries


def test_capture_log_pickled_footprint():
    entries = _crawl_entries()
    blob = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
    assert len(entries) > 300
    assert len(blob) / len(entries) < _PICKLED_BYTES_PER_ENTRY_CEILING
    assert pickle.loads(blob) == entries


def test_equal_cookie_headers_from_one_crawl_are_one_object():
    shared = {}
    fields = {}
    sent = 0
    for entry in _crawl_entries():
        value = entry.request.headers.get("Cookie")
        if value:
            sent += 1
            assert shared.setdefault(value, value) is value
        for field in entry.request.headers:
            if field[0] == "Cookie":
                assert fields.setdefault(field, field) is field
    assert sent > len(shared) > 1
    assert len(fields) == len(shared)


#: The tracker replies: a script, and a one-pixel GIF.
_TRACKER_BODIES = (b"/* tracking snippet */", b"GIF89a\x01\x00\x01\x00")


def test_tracker_replies_that_set_no_cookie_are_two_objects():
    replies = [entry.response for entry in _crawl_entries()
               if entry.response is not None
               and entry.response.body in _TRACKER_BODIES]
    plain = [reply for reply in replies if not reply.set_cookie_headers]
    assert len(plain) > 100
    assert len({id(reply) for reply in plain}) <= 2
    # A reply that mints a ``tuid`` is its own.
    minted = [reply for reply in replies if reply.set_cookie_headers]
    assert len({id(reply) for reply in minted}) == len(minted) > 0


def test_every_referer_field_of_one_page_is_one_object():
    fields = {}
    for entry in _crawl_entries():
        for field in entry.request.headers:
            if field[0] == "Referer":
                key = (entry.page_url, field[1])
                assert fields.setdefault(key, field) is field
    pages = {page for page, _ in fields}
    assert len(fields) >= len(pages) > 20


def _reachable(root):
    """Every object reachable from ``root``, classes left out."""
    seen = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return seen.values()


def test_capture_log_live_tuples():
    entries = _crawl_entries()
    tuples = sum(1 for obj in _reachable(entries) if type(obj) is tuple)
    assert len(entries) > 300
    assert tuples < _LOG_TUPLES_CEILING


# -- shared parts are read-only --------------------------------------------


def _creation_values(monkeypatch):
    """id -> (object, its value when built) for every ``Headers`` and
    ``HttpResponse`` built from here on.  A response's value is its
    status, fields, body and latency; the browser may take its page
    model off it."""
    created = {}
    headers_init = Headers.__init__
    response_init = HttpResponse.__init__

    def headers(self, *args, **kwargs):
        headers_init(self, *args, **kwargs)
        created[id(self)] = (self, _value(self))

    def response(self, *args, **kwargs):
        response_init(self, *args, **kwargs)
        created[id(self)] = (self, _value(self))

    monkeypatch.setattr(Headers, "__init__", headers)
    monkeypatch.setattr(HttpResponse, "__init__", response)
    return created


def _value(part):
    if isinstance(part, Headers):
        return part.items()
    return (part.status, part.headers.items(), part.body,
            part.latency_seconds)


def _assert_shared_parts_keep_their_values(entries, created):
    holders = Counter()
    bodies = Counter()
    for entry in entries:
        parts = {id(entry.request.headers)}
        if entry.response is not None:
            parts |= {id(entry.response), id(entry.response.headers)}
            bodies[id(entry.response.body)] += 1
        holders.update(parts)
    shared = [key for key, count in holders.items() if count > 1]
    assert any(count > 1 for count in bodies.values())
    assert len(shared) > 20
    for key in shared:
        part, value = created[key]
        assert _value(part) == value


def test_a_firewalled_crawl_writes_no_shared_part(monkeypatch, study_spec):
    """The firewall rewrites a request's ``Referer`` and ``Cookie`` on a
    copy of its ``Headers``: the shared block keeps its value.  The
    calibrated GET-form sites leak through the ``Referer``, and the
    CNAME-cloaked Adobe sites through a first-party cookie."""
    from repro.core import CandidateTokenSet
    from repro.mitigation import REDACTION, PiiFirewall
    from repro.websim.calibration import ADOBE_COOKIE_SLOTS, REFERER_SLOTS
    created = _creation_values(monkeypatch)
    population = study_spec.population
    firewall = PiiFirewall(CandidateTokenSet(population.persona),
                           resolver=population.resolver())
    slots = list(REFERER_SLOTS) + sorted(ADOBE_COOKIE_SLOTS)[:2]
    entries = StudyCrawler(population, firewall=firewall).crawl(
        sites=[population.sites[study_spec.slot_domains[slot]]
               for slot in slots]).log.entries
    for name in ("Referer", "Cookie"):
        assert any(REDACTION in entry.request.headers.get(name, "")
                   for entry in entries), name
    _assert_shared_parts_keep_their_values(entries, created)


def test_a_faulted_job_writes_no_shared_part(monkeypatch):
    from repro.netsim import CaptureLog
    from repro.service import JobRun, JobSpec
    from repro.service.jobs import STATE_COMPLETE
    created = _creation_values(monkeypatch)
    entries = []
    record = CaptureLog.record

    def keeping(self, entry):
        entries.append(entry)
        return record(self, entry)

    monkeypatch.setattr(CaptureLog, "record", keeping)
    spec = JobSpec.from_dict({"seed": 404, "sites": 24, "fault_rate": 0.05,
                              "fault_seed": 3})
    assert JobRun(spec).execute().state == STATE_COMPLETE
    assert any(entry.blocked_by for entry in entries)
    _assert_shared_parts_keep_their_values(entries, created)


# -- live objects of the seed-404 log --------------------------------------

#: Objects the seed-404 crawl's capture log holds, against the distinct
#: values among them.  Each ceiling is about 2% above the count; the
#: count when the part was built afresh per request (or per snippet run,
#: or per page served) is given beside it.
#:
#: - request ``Headers``: 11,588 for 11,405 header blocks (19,984, one
#:   per request);
#: - response ``Headers``: 427 for 427 (2,919);
#: - initiator chains: 8,974 for 8,951 (10,003);
#: - ``PageView`` ping ``Url``\ s: 6,911 for 6,021 (7,940);
#: - page bodies: 2,499 for 2,492 (2,896, one per page served).
_SEED_404_LIVE_CEILINGS = {
    "request headers": 11_850,
    "response headers": 440,
    "chains": 9_150,
    "ping urls": 7_050,
    "page bodies": 2_550,
}


def test_seed_404_log_holds_each_repeated_part_about_once():
    population = generate_population(seed=404, config=GeneratorConfig(
        n_sites=404, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))
    entries = StudyCrawler(population).crawl().log.entries
    responses = [entry.response for entry in entries
                 if entry.response is not None]
    parts = {
        "request headers": [entry.request.headers for entry in entries],
        "response headers": [response.headers for response in responses],
        "chains": [entry.request.initiator_chain for entry in entries],
        "ping urls": [entry.request.url for entry in entries
                      if entry.request.url.query[:1]
                      == (("ev", "PageView"),)],
        "page bodies": [response.body for response in responses
                        if response.headers.get("Content-Type", "")
                        .startswith("text/html")],
    }
    assert len(entries) == 19_984
    for name, held in parts.items():
        objects = len({id(part) for part in held})
        assert objects <= _SEED_404_LIVE_CEILINGS[name], name
        assert objects < len(held), name
