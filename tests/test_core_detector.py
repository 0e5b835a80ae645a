"""Leak detector: all four channels, attribution, cloaking, negatives."""

import pytest

from repro import hashes
from repro.core import CandidateTokenSet, LeakDetector
from repro.core.leakmodel import (
    CHANNEL_COOKIE,
    CHANNEL_PAYLOAD,
    CHANNEL_REFERER,
    CHANNEL_URI,
)
from repro.core.persona import DEFAULT_PERSONA
from repro.dnssim import Resolver, Zone
from repro.netsim import (
    CaptureEntry,
    CaptureLog,
    Headers,
    HttpRequest,
    HttpResponse,
    STAGE_SIGNUP,
    Url,
    encode_json,
    encode_urlencoded,
)

EMAIL = DEFAULT_PERSONA.email
SHA256_TOKEN = hashes.apply_chain(EMAIL, ["sha256"])


@pytest.fixture(scope="module")
def plain_detector():
    return LeakDetector(CandidateTokenSet(DEFAULT_PERSONA))


def _entry(url, site="shop.example", headers=None, body=b"",
           method="GET", stage=STAGE_SIGNUP, content_type=None):
    all_headers = headers or Headers()
    if content_type:
        all_headers.set("Content-Type", content_type)
    request = HttpRequest(method=method, url=Url.parse(url),
                          headers=all_headers, body=body)
    return CaptureEntry(request=request, response=HttpResponse(),
                        site=site, stage=stage,
                        page_url="https://www.%s/" % site)


def test_uri_query_leak(plain_detector):
    entry = _entry("https://t.example/p?uid=%s" % SHA256_TOKEN)
    events = plain_detector.detect_entry(entry)
    assert len(events) == 1
    event = events[0]
    assert event.channel == CHANNEL_URI
    assert event.parameter == "uid"
    assert event.pii_type == "email"
    assert event.chain == ("sha256",)
    assert event.receiver == "t.example"
    assert event.sender == "shop.example"


def test_uri_path_leak(plain_detector):
    entry = _entry("https://t.example/sync/%s/done" % SHA256_TOKEN)
    events = plain_detector.detect_entry(entry)
    assert events and events[0].location == "path"
    assert events[0].channel == CHANNEL_URI


def test_percent_encoded_plaintext_email_in_uri(plain_detector):
    entry = _entry("https://t.example/p?em=%s" %
                   EMAIL.replace("@", "%40"))
    events = plain_detector.detect_entry(entry)
    assert any(e.chain == () and e.pii_type == "email" for e in events)


def test_referer_leak(plain_detector):
    headers = Headers([("Referer",
                        "https://www.shop.example/signup?email=%s" % EMAIL)])
    entry = _entry("https://t.example/pixel.gif", headers=headers)
    events = plain_detector.detect_entry(entry)
    assert any(e.channel == CHANNEL_REFERER for e in events)


def test_cookie_header_leak(plain_detector):
    headers = Headers([("Cookie", "sid=1; uid=%s" % SHA256_TOKEN)])
    entry = _entry("https://t.example/p", headers=headers)
    events = plain_detector.detect_entry(entry)
    cookie_events = [e for e in events if e.channel == CHANNEL_COOKIE]
    assert cookie_events and cookie_events[0].parameter == "uid"


def test_payload_urlencoded_leak(plain_detector):
    body = encode_urlencoded([("u_hem", SHA256_TOKEN)])
    entry = _entry("https://t.example/p", method="POST", body=body,
                   content_type="application/x-www-form-urlencoded")
    events = plain_detector.detect_entry(entry)
    assert any(e.channel == CHANNEL_PAYLOAD and e.parameter == "u_hem"
               for e in events)


def test_payload_json_leak_with_dotted_parameter(plain_detector):
    body = encode_json({"user": {"email_hash": SHA256_TOKEN}})
    entry = _entry("https://t.example/p", method="POST", body=body,
                   content_type="application/json")
    events = plain_detector.detect_entry(entry)
    assert any(e.parameter == "user.email_hash" for e in events)


def test_payload_raw_text_fallback(plain_detector):
    entry = _entry("https://t.example/p", method="POST",
                   body=("blob %s blob" % SHA256_TOKEN).encode(),
                   content_type="text/plain")
    events = plain_detector.detect_entry(entry)
    assert any(e.channel == CHANNEL_PAYLOAD and e.parameter is None
               for e in events)


def test_first_party_requests_ignored(plain_detector):
    entry = _entry("https://www.shop.example/submit?email=%s" % EMAIL)
    assert plain_detector.detect_entry(entry) == []


def test_clean_third_party_request_no_events(plain_detector):
    entry = _entry("https://t.example/p?uid=abcdef0123456789")
    assert plain_detector.detect_entry(entry) == []


def test_blocked_entries_skipped_by_default(plain_detector):
    entry = _entry("https://t.example/p?uid=%s" % SHA256_TOKEN)
    entry.blocked_by = "shields"
    log = CaptureLog()
    log.record(entry)
    assert plain_detector.detect(log) == []
    # Scanned on its own, the same request leaks: only the block hid it.
    assert len(plain_detector.detect_entry(entry)) == 1


def test_cloaked_subdomain_attributed_to_tracker_zone():
    zone = Zone()
    zone.add_cname("metrics.shop.example", "shop.example.sc.omtrdc.net")
    zone.add_a("shop.example.sc.omtrdc.net")
    detector = LeakDetector(CandidateTokenSet(DEFAULT_PERSONA),
                            resolver=Resolver(zone))
    headers = Headers([("Cookie", "s_ecid=%s" % SHA256_TOKEN)])
    entry = _entry("https://metrics.shop.example/b/ss?ev=PageView",
                   headers=headers)
    events = detector.detect_entry(entry)
    assert events
    assert events[0].receiver == "omtrdc.net"
    assert events[0].cloaked
    assert events[0].channel == CHANNEL_COOKIE


def test_uncloaked_first_party_subdomain_ignored():
    zone = Zone()
    zone.add_a("cdn.shop.example")
    detector = LeakDetector(CandidateTokenSet(DEFAULT_PERSONA),
                            resolver=Resolver(zone))
    entry = _entry("https://cdn.shop.example/a?email=%s" % EMAIL)
    assert detector.detect_entry(entry) == []


def test_event_deduplication_within_request(plain_detector):
    # The same token twice in one parameter produces one event.
    url = "https://t.example/p?uid=%s%s" % (SHA256_TOKEN, SHA256_TOKEN)
    events = plain_detector.detect_entry(_entry(url))
    assert len([e for e in events if e.parameter == "uid"]) == 1


def test_multi_layer_obfuscation_detected(plain_detector):
    token = hashes.apply_chain(EMAIL, ["base64", "sha1", "sha256"])
    events = plain_detector.detect_entry(
        _entry("https://t.example/p?x=%s" % token))
    assert any(e.chain == ("base64", "sha1", "sha256") for e in events)


def test_uppercase_hex_detected(plain_detector):
    events = plain_detector.detect_entry(
        _entry("https://t.example/p?x=%s" % SHA256_TOKEN.upper()))
    assert any(e.chain == ("sha256",) for e in events)


def test_leaking_requests_counts_entries(plain_detector):
    log = CaptureLog()
    log.record(_entry("https://t.example/p?uid=%s" % SHA256_TOKEN))
    log.record(_entry("https://t.example/p?uid=clean000000"))
    assert plain_detector.run(log).leaking_entry_count == 1
