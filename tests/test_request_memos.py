"""Decisions memoised per distinct request part give the unmemoised answers.

The crawl decides once per (site, host), the detector scans once per
request part, the adblocker filters once per (URL, type, page host) and
Table 4 matches once per (rule set, context).  The tests compare the
memoised path with an unmemoised computation, or with values pinned
before the memos existed.
"""

import pickle

import pytest

from repro import hashes
from repro.blocklist import AdblockExtension, BlocklistEvaluator
from repro.blocklist import evaluate as blocklist_evaluate
from repro.blocklist.matcher import RequestContext, RuleSet
from repro.browser import engine, evaluation_profiles, vanilla_firefox
from repro.browser.profiles import (
    COOKIES_BLOCK_KNOWN_TRACKERS,
    COOKIES_BLOCK_THIRD_PARTY,
    COOKIES_PARTITION_THIRD_PARTY,
    BrowserProfile,
)
from repro.core import (CandidateTokenSet, HeuristicDetector, LeakDetector,
                        hits)
from repro.core.leakmodel import (
    LOCATION_BODY,
    LOCATION_COOKIE,
    LOCATION_PATH,
    LOCATION_QUERY,
    LOCATION_REFERER,
    LeakEvent,
    channel_for_location,
)
from repro.core.persona import DEFAULT_PERSONA
from repro.crawler import StudyCrawler
from repro.netsim import (
    decode_json,
    decode_urlencoded,
    flatten_json,
    percent_decode,
)
from repro.netsim.stamps import Memo
from repro.psl import default_list
from repro.websim.generator import GeneratorConfig, generate_population

#: The calibrated crawl's fingerprint, as pinned in test_endtoend_paper.
CALIBRATED_CRAWL_FINGERPRINT = (
    "4dbe2635b79b834cf7ceea8f499b248b4bec6517e3638c30259aae5869942241")


def _reference_events(detector, tokens, entry):
    """``detect_entry`` as a fresh scan of every part of the request,
    with no memo between requests."""
    attribution = detector._attribute_uncached(entry.request.url.host,
                                               "www." + entry.site)
    if attribution is None:
        return []
    request = entry.request
    targets = [(LOCATION_QUERY, name, value)
               for name, value in request.url.query]
    targets.append((LOCATION_PATH, None, percent_decode(request.url.path)))
    if request.referer:
        targets.append((LOCATION_REFERER, None,
                        percent_decode(request.referer)))
    if request.cookie_header:
        for pair in request.cookie_header.split(";"):
            name, _, value = pair.strip().partition("=")
            targets.append((LOCATION_COOKIE, name, value))
    if request.body:
        content_type = (request.headers.get("Content-Type") or "").lower()
        text = request.body_text()
        payload = decode_json(request.body) if "json" in content_type \
            else None
        if payload is not None:
            targets.extend((LOCATION_BODY, key, value)
                           for key, value in flatten_json(payload))
        elif "urlencoded" in content_type or ("=" in text
                                              and "{" not in text):
            targets.extend((LOCATION_BODY, name, value)
                           for name, value in decode_urlencoded(request.body))
        else:
            targets.append((LOCATION_BODY, None, text))
    events, seen = [], set()
    for location, parameter, text in targets:
        if not text or (detector.locations is not None
                        and location not in detector.locations):
            continue
        for match in tokens.scan(text):
            origin = match.payload
            key = (location, parameter, origin.pii_type, origin.chain)
            if key in seen:
                continue
            seen.add(key)
            events.append(LeakEvent(
                sender=entry.site, receiver=attribution.receiver,
                request_host=request.url.host,
                channel=channel_for_location(location), location=location,
                pii_type=origin.pii_type, chain=origin.chain,
                parameter=parameter, stage=entry.stage,
                url=str(request.url), cloaked=attribution.cloaked,
                surface_form=origin.surface_form,
                token=hashes.apply_chain(origin.surface_form, origin.chain)
                if origin.chain else origin.surface_form,
                timestamp=request.timestamp))
    return events


def _seed_404_log():
    population = generate_population(seed=404, config=GeneratorConfig(
        n_sites=404, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))
    return population, StudyCrawler(population).crawl().log


def _assert_warm_equals_reference(population, log):
    tokens = CandidateTokenSet(DEFAULT_PERSONA)
    detector = LeakDetector(tokens, catalog=population.catalog,
                            resolver=population.resolver())
    detector.run(log)  # warm every memo
    leaking = 0
    for entry in log:
        if entry.was_blocked:
            continue
        found = detector.detect_entry(entry)
        assert found == _reference_events(detector, tokens, entry)
        leaking += bool(found)
    assert leaking


def test_warm_detection_equals_a_fresh_scan_on_the_calibrated_log(
        study_spec, crawl):
    _assert_warm_equals_reference(study_spec.population, crawl.log)


def test_warm_detection_equals_a_fresh_scan_on_the_seed_404_log():
    _assert_warm_equals_reference(*_seed_404_log())


def test_detectors_with_different_locations_never_share_hits(
        study_spec, crawl, tokens):
    def detector(locations=None):
        return LeakDetector(tokens, catalog=study_spec.catalog,
                            resolver=study_spec.population.resolver(),
                            locations=locations)

    uri_only = (LOCATION_QUERY, LOCATION_PATH)
    assert tokens.leak_hits(frozenset(uri_only)) is not tokens.leak_hits()
    full = detector().detect(crawl.log)
    narrow = detector(uri_only).detect(crawl.log)
    assert narrow == [event for event in full
                      if event.location in uri_only]
    assert {event.channel for event in full} > \
        {event.channel for event in narrow}
    # The narrow detector ran first on a fresh set: a full detector
    # after it still sees every location.
    fresh = CandidateTokenSet(DEFAULT_PERSONA)
    LeakDetector(fresh, catalog=study_spec.catalog,
                 resolver=study_spec.population.resolver(),
                 locations=uri_only).detect(crawl.log)
    assert LeakDetector(fresh, catalog=study_spec.catalog,
                        resolver=study_spec.population.resolver()
                        ).detect(crawl.log) == full


def test_hit_memos_at_their_limits_change_no_event(monkeypatch, study_spec,
                                                   crawl, events):
    for name in ("QUERY_LIMIT", "PATH_LIMIT", "REFERER_LIMIT",
                 "COOKIE_LIMIT", "BODY_LIMIT"):
        monkeypatch.setattr(hits, name, 7)
    detector = LeakDetector(CandidateTokenSet(DEFAULT_PERSONA),
                            catalog=study_spec.catalog,
                            resolver=study_spec.population.resolver())
    assert detector.detect(crawl.log) == events
    assert detector.detect(crawl.log) == events


# -- Table 4 and the adblocker -------------------------------------------------

def test_table4_matches_each_context_once_per_rule_set(monkeypatch, crawl,
                                                       detector):
    matched = []
    match = RuleSet.match

    def counting(self, context):
        matched.append((id(self), context))
        return match(self, context)

    evaluator = BlocklistEvaluator(detector)
    monkeypatch.setattr(RuleSet, "match", counting)
    evaluator.evaluate(crawl.log)
    assert matched
    assert len(matched) == len(set(matched))
    assert {rule_set for rule_set, _ in matched} == \
        {id(rules) for rules in evaluator.rule_sets.values()}


#: Table 4 of the calibrated crawl, cell for cell: (blocked, total).
TABLE4_CELLS = {
    "senders": {
        "easylist": {"referer": (0, 3), "uri": (0, 118), "payload": (3, 43),
                     "cookie": (0, 5), "combined": (3, 27),
                     "total": (0, 130)},
        "easyprivacy": {"referer": (2, 3), "uri": (77, 118),
                        "payload": (38, 43), "cookie": (5, 5),
                        "combined": (24, 27), "total": (86, 130)},
        "combined": {"referer": (3, 3), "uri": (96, 118),
                     "payload": (42, 43), "cookie": (5, 5),
                     "combined": (26, 27), "total": (108, 130)},
    },
    "receivers": {
        "easylist": {"referer": (1, 7), "uri": (5, 83), "payload": (4, 17),
                     "cookie": (0, 1), "combined": (2, 8),
                     "total": (8, 100)},
        "easyprivacy": {"referer": (6, 7), "uri": (48, 83),
                        "payload": (13, 17), "cookie": (1, 1),
                        "combined": (6, 8), "total": (62, 100)},
        "combined": {"referer": (7, 7), "uri": (52, 83),
                     "payload": (16, 17), "cookie": (1, 1),
                     "combined": (7, 8), "total": (69, 100)},
    },
}


def test_table4_is_pinned_cell_for_cell(crawl, detector):
    report = BlocklistEvaluator(detector).evaluate(crawl.log)
    cells = {section: {name: {row: (cell.blocked, cell.total)
                              for row, cell in rows.items()}
                       for name, rows in getattr(report, section).items()}
             for section in ("senders", "receivers")}
    assert cells == TABLE4_CELLS


def _assert_receiver_and_channels_agree(detector, log):
    leaking = 0
    for entry in log:
        events = detector.detect_entry(entry)
        found = detector.receiver_and_channels(entry)
        if not events:
            assert found is None
            continue
        leaking += 1
        assert found == (events[0].receiver,
                         frozenset(event.channel for event in events))
    assert leaking


def test_receiver_and_channels_agree_with_detect_entry(crawl, detector):
    """Table 4 reads each entry's receiver and channel set without
    building its events; they are the events' own."""
    population = generate_population(seed=5, config=GeneratorConfig(
        n_sites=24, n_trackers=6))
    small = LeakDetector(CandidateTokenSet(DEFAULT_PERSONA),
                         catalog=population.catalog,
                         resolver=population.resolver())
    _assert_receiver_and_channels_agree(
        small, StudyCrawler(population).crawl().log)
    _assert_receiver_and_channels_agree(detector, crawl.log)


def test_table4_contexts_are_built_once_per_url_and_site(crawl):
    contexts = blocklist_evaluate._Contexts()
    entries = [entry for entry in crawl.log if not entry.was_blocked]
    first = [contexts.of_entry(entry) for entry in entries]
    again = [contexts.of_entry(entry) for entry in entries]
    assert all(a is b for one, other in zip(first, again)
               for a, b in zip(one, other))


def _unmemoised_verdict(rules, url, resource_type, page_host):
    psl = default_list()
    host = url.split("://", 1)[-1].split("/", 1)[0]
    return rules.match(RequestContext(
        url=url, resource_type=resource_type,
        page_domain=psl.registrable_domain(page_host) or page_host,
        is_third_party=psl.is_third_party(host, page_host))).blocked


def test_filter_request_gives_the_unmemoised_verdicts(study_spec):
    extension = AdblockExtension.with_default_lists()
    asked = []
    filter_request = extension.filter_request

    def recording(url, resource_type, page_host):
        verdict = filter_request(url, resource_type, page_host)
        asked.append((url, resource_type, page_host, verdict))
        return verdict

    extension.filter_request = recording
    population = study_spec.population
    StudyCrawler(population, extension=extension).crawl(
        sites=[population.sites[domain]
               for domain in study_spec.leaking_domains])
    assert len(asked) > len(set(asked))
    rules = extension.rules
    for url, resource_type, page_host, verdict in asked:
        blocked = _unmemoised_verdict(rules, url, resource_type, page_host)
        assert verdict == (extension.name if blocked else None)


# -- browser verdicts ----------------------------------------------------------

#: Fingerprints of the crawl of the 130 leaking calibrated sites under
#: each browser profile, under a profile that partitions third-party
#: storage, and under the default adblock extension, as measured before
#: the browser decided once per (site, host).
PROFILE_FINGERPRINTS = {
    "partitioned": "5bec940bb66378ba",
    "firefox": "78911db8d7d84675",
    "chrome": "1c0a493172d7d686",
    "opera": "65d1f0b98b9c7922",
    "safari": "8606dcb22c8312bf",
    "firefox-etp": "dfaf60dc547c3b3d",
    "brave": "fcfc8bf6b123b702",
    "adblock": "eedbacb6e7481483",
}


@pytest.fixture(scope="module")
def profile_crawls(study_spec):
    population = study_spec.population
    sites = [population.sites[domain]
             for domain in study_spec.leaking_domains]
    partitioned = BrowserProfile(
        name="partitioned", version="1",
        cookie_policy=COOKIES_PARTITION_THIRD_PARTY)
    crawls = {profile.name: StudyCrawler(population, profile=profile
                                         ).crawl(sites=sites)
              for profile in (vanilla_firefox(), partitioned)
              + evaluation_profiles(population.catalog)}
    crawls["adblock"] = StudyCrawler(
        population, extension=AdblockExtension.with_default_lists()
    ).crawl(sites=sites)
    return crawls


def test_every_profile_keeps_its_pinned_fingerprint(profile_crawls):
    assert {name: crawl.fingerprint()[:16]
            for name, crawl in profile_crawls.items()} == \
        PROFILE_FINGERPRINTS


def test_the_profiles_cover_every_verdict(study_spec, profile_crawls):
    """Shields with CNAME uncloaking, partitioned storage, and blocked
    third-party cookies (all of them, or the known trackers')."""
    population = study_spec.population
    profiles = {profile.name: profile
                for profile in evaluation_profiles(population.catalog)}
    assert any(entry.blocked_by == "shields"
               for entry in profile_crawls["brave"].log)
    # Brave blocks the cloaking tracker's snippet outright, so its crawl
    # never asks for a cloaked host; its verdict on one uncloaks it.
    site = next(site for site in population.site_list()
                if site.cname_records)
    browser = StudyCrawler(population, profile=profiles["brave"]
                           ).start().browser
    label = next(iter(site.cname_records))
    verdict = browser._judge(site, "%s.%s" % (label, site.domain))
    assert not verdict.third_party and verdict.blocker == "shields-cname"
    assert {profile.cookie_policy for profile in profiles.values()} >= \
        {COOKIES_BLOCK_THIRD_PARTY, COOKIES_BLOCK_KNOWN_TRACKERS}
    # Partitioning changes which cookies the trackers get back.
    assert profile_crawls["partitioned"].fingerprint() != \
        profile_crawls["firefox"].fingerprint()


def test_browser_verdict_memo_at_its_limit_keeps_the_fingerprint(
        monkeypatch):
    def crawl():
        population = generate_population(seed=11, config=GeneratorConfig(
            n_sites=12, n_trackers=5, leak_probability=0.6,
            confirmation_probability=0.3))
        return StudyCrawler(population).crawl().fingerprint()

    unbounded = crawl()
    init = engine.Browser.__init__

    def tiny(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._verdicts = Memo(2)

    monkeypatch.setattr(engine.Browser, "__init__", tiny)
    assert crawl() == unbounded


def test_a_resumed_crawl_starts_with_empty_jar_memos(tmp_path, study_spec):
    """A journal holds the jar's cookies, not its kept ``Cookie`` headers
    or ``Set-Cookie`` parses: a resumed session starts them empty and
    finishes to the pinned calibrated fingerprint."""
    from repro.crawler import CrawlSession
    population = study_spec.population
    session = StudyCrawler(population).start()
    for _ in range(40):
        session.step()
    jar = session.browser.jar
    assert jar._rendered and jar._readers and jar._attributes
    path = str(tmp_path / "crawl.ckpt")
    session.save(path)
    resumed = CrawlSession.load(path, population)
    jar = resumed.browser.jar
    assert len(jar) == len(session.browser.jar)
    assert not (jar._rendered or jar._readers or jar._attributes
                or jar._headers)
    assert resumed.run().fingerprint() == CALIBRATED_CRAWL_FINGERPRINT


def test_no_memo_reaches_a_pickle(study_spec, crawl, tokens, detector):
    """A crawl's checkpoint snapshot pickles its extension; the token
    set and the heuristic detector pickle without their memos too."""
    extension = AdblockExtension.with_default_lists()
    extension.filter_request("https://t.example/p.gif", "image",
                             "www.shop.example")
    assert extension._verdicts
    copy = pickle.loads(pickle.dumps(extension))
    assert copy.name == extension.name and not copy._verdicts
    assert copy.filter_request("https://t.example/p.gif", "image",
                               "www.shop.example") == \
        extension.filter_request("https://t.example/p.gif", "image",
                                 "www.shop.example")

    detector.run(crawl.log)
    assert tokens._scan_distinct_memo and tokens._leak_hits
    loaded = pickle.loads(pickle.dumps(tokens))
    assert not loaded._scan_distinct_memo and not loaded._leak_hits
    assert loaded.tokens() == tokens.tokens()

    heuristics = HeuristicDetector(known_tokens={"abc"})
    found = heuristics.detect(crawl.log)
    assert heuristics._suspicious
    revived = pickle.loads(pickle.dumps(heuristics))
    assert not revived._suspicious and revived.known_tokens == {"abc"}
    assert revived.detect(crawl.log) == found

