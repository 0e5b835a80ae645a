"""Headers, messages, forms and the capture log."""

import pickle

import pytest

from repro.netsim import (
    CaptureEntry,
    CaptureLog,
    Headers,
    HttpRequest,
    HttpResponse,
    STAGE_HOMEPAGE,
    STAGE_SIGNUP,
    Url,
    decode_base64_json,
    decode_json,
    decode_multipart,
    decode_urlencoded,
    encode_base64_json,
    encode_json,
    encode_multipart,
    encode_urlencoded,
    flatten_json,
)
from repro.netsim.stamps import Memo


# -- Headers ---------------------------------------------------------------

def test_headers_case_insensitive():
    headers = Headers([("Content-Type", "text/html")])
    assert headers.get("content-type") == "text/html"
    assert "CONTENT-TYPE" in headers


def test_headers_repeats_preserved():
    headers = Headers()
    headers.add("Set-Cookie", "a=1")
    headers.add("Set-Cookie", "b=2")
    assert headers.get_all("set-cookie") == ["a=1", "b=2"]
    assert headers.get("Set-Cookie") == "a=1"


def test_headers_set_replaces_all():
    headers = Headers([("X", "1"), ("x", "2")])
    headers.set("X", "3")
    assert headers.get_all("x") == ["3"]


def test_headers_remove_and_len():
    headers = Headers([("A", "1"), ("B", "2")])
    headers.remove("a")
    assert len(headers) == 1
    assert headers.get("A") is None


def test_headers_copy_is_independent():
    original = Headers([("A", "1")])
    clone = original.copy()
    clone.add("B", "2")
    assert len(original) == 1


def test_headers_get_returns_the_first_mixed_case_duplicate():
    headers = Headers([("x-id", "a"), ("X-ID", "b")])
    headers.add("X-Id", "c")
    assert headers.get("X-iD") == "a"
    assert headers.get_all("x-id") == ["a", "b", "c"]
    headers.remove("X-ID")
    headers.add("x-Id", "d")
    headers.add("X-id", "e")
    assert headers.get("x-id") == "d"


def test_headers_lookup_by_exact_name_still_folds_case():
    # A field named exactly as asked must not win over an earlier field
    # that differs only in case, and must not hide later ones.
    headers = Headers([("Referer", "r"), ("cookie", "a"), ("Cookie", "b"),
                       ("COOKIE", "c")])
    assert headers.get("Cookie") == "a"
    assert headers.get("cOOKIE") == "a"
    assert headers.get_all("Cookie") == ["a", "b", "c"]
    assert headers.get_all("COOKIE") == ["a", "b", "c"]
    assert headers.get("referer") == headers.get("Referer") == "r"
    assert headers.get("Location") is None
    assert headers.get_all("location") == []


def test_headers_pickle_round_trip():
    headers = Headers([("Set-Cookie", "a=1"), ("set-cookie", "b=2"),
                       ("Referer", "https://x.com/")])
    restored = pickle.loads(pickle.dumps(headers))
    assert restored == headers
    assert restored.items() == headers.items()
    assert repr(restored) == repr(headers) == (
        "Headers([('Set-Cookie', 'a=1'), ('set-cookie', 'b=2'), "
        "('Referer', 'https://x.com/')])")
    restored.add("X", "1")
    assert len(headers) == 3


def test_headers_set_and_remove_on_empty_headers():
    headers = Headers()
    headers.remove("X")
    assert len(headers) == 0 and headers.items() == []
    headers.set("X", "1")
    assert headers.items() == [("X", "1")]
    empty = Headers()
    empty.set("Y", "2")
    assert empty.get("y") == "2" and Headers() == Headers([])


# -- Messages ----------------------------------------------------------------

def test_request_normalizes_method():
    request = HttpRequest(method="post", url=Url.parse("https://x.com/"))
    assert request.method == "POST"


def test_request_keeps_an_upper_case_method_object():
    method = "".join(["PO", "ST"])
    request = HttpRequest(method=method, url=Url.parse("https://x.com/"))
    assert request.method is method
    assert HttpRequest(method="Get",
                       url=Url.parse("https://x.com/")).method == "GET"


def test_request_rejects_unknown_resource_type():
    with pytest.raises(ValueError):
        HttpRequest(method="GET", url=Url.parse("https://x.com/"),
                    resource_type="wasm")


def test_request_accessors():
    headers = Headers([("Referer", "https://a.com/"), ("Cookie", "x=1")])
    request = HttpRequest(method="GET", url=Url.parse("https://x.com/"),
                          headers=headers, body=b"k=v")
    assert request.referer == "https://a.com/"
    assert request.cookie_header == "x=1"
    assert request.body_text() == "k=v"


def test_response_redirect_detection():
    response = HttpResponse(status=302,
                            headers=Headers([("Location", "/next")]))
    assert response.is_redirect and response.location == "/next"
    assert not HttpResponse(status=200).is_redirect


# -- Forms ---------------------------------------------------------------------

def test_urlencoded_round_trip():
    fields = [("email", "foo@mydom.com"), ("name", "Alex Romero")]
    assert decode_urlencoded(encode_urlencoded(fields)) == fields


def test_multipart_round_trip():
    fields = [("email", "foo@mydom.com"), ("note", "line1\nline2")]
    body, content_type = encode_multipart(fields)
    assert decode_multipart(body, content_type) == fields


def test_multipart_without_boundary_is_empty():
    assert decode_multipart(b"data", "multipart/form-data") == []


def test_json_round_trip_and_determinism():
    payload = {"b": 1, "a": {"c": [1, 2]}}
    assert decode_json(encode_json(payload)) == payload
    assert encode_json(payload) == encode_json({"a": {"c": [1, 2]}, "b": 1})


def test_decode_json_rejects_non_objects():
    assert decode_json(b"[1,2]") is None
    assert decode_json(b"not json") is None


def test_base64_json_round_trip():
    payload = {"email": "foo@mydom.com"}
    assert decode_base64_json(encode_base64_json(payload)) == payload
    assert decode_base64_json(b"!!!") is None


def test_flatten_json():
    flattened = flatten_json({"user": {"email": "e@x.com",
                                       "tags": ["a", None]}})
    assert ("user.email", "e@x.com") in flattened
    assert ("user.tags[0]", "a") in flattened
    assert ("user.tags[1]", "") in flattened


# -- Capture log ------------------------------------------------------------------

def _entry(site="shop.com", stage=STAGE_HOMEPAGE, blocked=None):
    request = HttpRequest(method="GET",
                          url=Url.parse("https://tracker.net/p"))
    return CaptureEntry(request=request, response=HttpResponse(),
                        site=site, stage=stage,
                        page_url="https://www.shop.com/",
                        blocked_by=blocked)


def test_capture_log_records_and_filters():
    log = CaptureLog()
    log.record(_entry())
    log.record(_entry(stage=STAGE_SIGNUP))
    log.record(_entry(site="other.com"))
    assert len(log) == 3
    assert len(log.by_stage(STAGE_SIGNUP)) == 1
    assert len(log.by_site("shop.com")) == 2


def test_blocked_requests_excluded_by_default():
    log = CaptureLog()
    log.record(_entry())
    log.record(_entry(blocked="shields"))
    assert len(log.requests()) == 1
    assert len(log.requests(include_blocked=True)) == 2


def test_capture_log_extend():
    log_a, log_b = CaptureLog(), CaptureLog()
    log_a.record(_entry())
    log_b.record(_entry())
    log_a.extend(log_b)
    assert len(log_a) == 2


# -- Memo -------------------------------------------------------------------

def test_memo_builds_one_object_per_key():
    memo = Memo(4)
    calls = []

    def build(text):
        calls.append(text)
        return Url.parse(text)

    first = memo.get_or_build("a", build, "https://a.example/")
    assert memo.get_or_build("a", build, "https://a.example/") is first
    assert calls == ["https://a.example/"]
    assert memo.get_or_build("b", build, "https://b.example/") is not first


def test_memo_intern_returns_the_first_equal_value():
    memo = Memo(4)
    field = ("Cookie", "a=1")
    assert memo.intern(field) is field
    equal = tuple(["Cookie", "a=1"])
    assert equal is not field
    assert memo.intern(equal) is field


def test_memo_starts_over_at_its_limit():
    memo = Memo(3)
    for index in range(3):
        memo.get_or_build(index, str, index)
    assert len(memo) == 3
    memo.get_or_build(3, str, 3)
    assert dict(memo) == {3: "3"}
    assert memo.get_or_build(0, str, 0) == "0"
    assert len(memo) == 2


def test_memo_pickles_with_its_limit():
    memo = Memo(5)
    memo.intern("x")
    copy = pickle.loads(pickle.dumps(memo))
    assert type(copy) is Memo and copy.limit == 5 and copy == {"x": "x"}
