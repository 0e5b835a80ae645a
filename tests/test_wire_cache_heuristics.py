"""HTTP wire format, heuristic detection."""

import hashlib

import pytest

from repro.core.heuristics import (
    HeuristicDetector,
    looks_like_identifier,
    suspicious_parameter,
)
from repro.netsim import (
    CaptureEntry,
    CaptureLog,
    Headers,
    HttpRequest,
    HttpResponse,
    Url,
)
from repro.netsim.wire import (
    WireFormatError,
    parse_request,
    parse_response,
    serialize_request,
    serialize_response,
)


# -- wire format --------------------------------------------------------------

def test_request_round_trip():
    request = HttpRequest(
        method="POST",
        url=Url.parse("https://t.example/collect?uid=abc&ev=1"),
        headers=Headers([("Referer", "https://www.shop.example/"),
                         ("Content-Type",
                          "application/x-www-form-urlencoded")]),
        body=b"u_hem=deadbeef")
    raw = serialize_request(request)
    assert raw.startswith(b"POST /collect?uid=abc&ev=1 HTTP/1.1\r\n")
    assert b"Host: t.example\r\n" in raw
    assert b"Content-Length: 14\r\n" in raw
    parsed = parse_request(raw)
    assert parsed.method == "POST"
    assert str(parsed.url) == str(request.url)
    assert parsed.body == request.body
    assert parsed.headers.get("Referer") == "https://www.shop.example/"


def test_response_round_trip():
    response = HttpResponse(
        status=302,
        headers=Headers([("Location", "/next"),
                         ("Set-Cookie", "a=1"), ("Set-Cookie", "b=2")]),
        body=b"")
    raw = serialize_response(response)
    assert raw.startswith(b"HTTP/1.1 302 Found\r\n")
    parsed = parse_response(raw)
    assert parsed.status == 302
    assert parsed.set_cookie_headers == ["a=1", "b=2"]


def test_body_bytes_exact():
    request = HttpRequest(method="POST",
                          url=Url.parse("https://t.example/p"),
                          body=b"\x00\x01binary\xff")
    parsed = parse_request(serialize_request(request))
    assert parsed.body == b"\x00\x01binary\xff"


def test_parse_rejects_garbage():
    with pytest.raises(WireFormatError):
        parse_request(b"not an http message")
    with pytest.raises(WireFormatError):
        parse_request(b"GET /\r\n\r\n")  # malformed request line
    with pytest.raises(WireFormatError):
        parse_request(b"GET / HTTP/1.1\r\n\r\n")  # no Host
    with pytest.raises(WireFormatError):
        parse_response(b"HTTP/1.1 abc\r\n\r\n")


def test_truncated_body_rejected():
    raw = (b"POST /p HTTP/1.1\r\nHost: t.example\r\n"
           b"Content-Length: 100\r\n\r\nshort")
    with pytest.raises(WireFormatError):
        parse_request(raw)


# -- heuristics -------------------------------------------------------------------

def test_suspicious_parameter_names():
    for name in ("email_sha256", "hashed_email", "u_hem", "udff[em]",
                 "uid", "em", "user_id", "md5email"):
        assert suspicious_parameter(name), name
    for name in ("ev", "dl", "color", "page", "q"):
        assert not suspicious_parameter(name), name


def test_looks_like_identifier():
    sha256 = hashlib.sha256(b"x").hexdigest()
    assert looks_like_identifier(sha256)
    assert looks_like_identifier(sha256.upper())
    assert looks_like_identifier("q0J5n1z8K3v7B2m4X6c8L0d2F4g6H8j0")
    assert not looks_like_identifier("hello")
    assert not looks_like_identifier("12345")
    assert not looks_like_identifier("aaaaaaaaaaaaaaaaaaaaaaaa")  # low entropy


def _entry(url, site="shop.example"):
    return CaptureEntry(
        request=HttpRequest(method="GET", url=Url.parse(url)),
        response=HttpResponse(), site=site, stage="signup",
        page_url="https://www.shop.example/")


def test_heuristic_flags_salted_hash():
    # A salted hash: the exact detector cannot know this token.
    salted = hashlib.sha256(b"salt||user@mail.example").hexdigest()
    detector = HeuristicDetector()
    findings = detector.detect_entry(
        _entry("https://t.example/p?email_sha256=%s" % salted))
    assert len(findings) == 1
    assert findings[0].parameter == "email_sha256"
    assert findings[0].confidence == "suspected"


def test_heuristic_ignores_first_party():
    salted = hashlib.sha256(b"x").hexdigest()
    detector = HeuristicDetector()
    assert detector.detect_entry(
        _entry("https://www.shop.example/p?email_sha256=%s" % salted)) == []


def test_heuristic_excludes_known_tokens():
    token = hashlib.sha256(b"known").hexdigest()
    detector = HeuristicDetector(known_tokens={token})
    assert detector.detect_entry(
        _entry("https://t.example/p?uid=%s" % token)) == []


def test_heuristic_requires_identifier_shaped_value():
    detector = HeuristicDetector()
    assert detector.detect_entry(
        _entry("https://t.example/p?uid=short")) == []


def test_heuristic_over_log():
    salted = hashlib.sha256(b"salted").hexdigest()
    log = CaptureLog()
    log.record(_entry("https://t.example/p?u_hem=%s" % salted))
    log.record(_entry("https://t.example/p?ev=PageView"))
    detector = HeuristicDetector()
    assert len(detector.detect(log)) == 1
