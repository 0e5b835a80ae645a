"""URL model: parsing, serialization, query multimap, joins."""

import pytest

from repro.netsim import Url, decode_query, encode_query, percent_decode, \
    percent_encode


def test_parse_full_url():
    url = Url.parse("https://www.shop.com:8443/a/b?x=1&y=2#frag")
    assert url.scheme == "https"
    assert url.host == "www.shop.com"
    assert url.port == 8443
    assert url.path == "/a/b"
    assert url.query == (("x", "1"), ("y", "2"))
    assert url.fragment == "frag"


def test_str_round_trip():
    text = "https://www.shop.com/signup?email=foo%40mydom.com&n=1"
    assert str(Url.parse(text)) == text


def test_parse_requires_absolute():
    with pytest.raises(ValueError):
        Url.parse("/relative/path")


def test_unsupported_scheme_rejected():
    with pytest.raises(ValueError):
        Url(scheme="ftp", host="x.com")


def test_host_required():
    with pytest.raises(ValueError):
        Url(scheme="https", host="")


def test_default_path_and_origin():
    url = Url.parse("https://shop.com")
    assert url.path == "/"
    assert url.origin == "https://shop.com"


def test_origin_includes_port():
    assert Url.parse("http://h.com:8080/x").origin == "http://h.com:8080"


def test_query_is_ordered_multimap():
    url = Url.parse("https://t.net/p?a=1&b=2&a=3")
    assert url.query_get("a") == "1"
    assert url.query_all("a") == ["1", "3"]
    assert url.query_get("missing") is None
    assert url.query_dict() == {"a": "3", "b": "2"}


def test_adding_and_replacing_query():
    url = Url.parse("https://t.net/p?a=1")
    extended = url.adding_query([("b", "2")])
    assert extended.query == (("a", "1"), ("b", "2"))
    replaced = url.with_query([("z", "9")])
    assert replaced.query == (("z", "9"),)
    assert url.query == (("a", "1"),)  # original untouched


def test_without_query():
    url = Url.parse("https://t.net/p?a=1#f")
    stripped = url.without_query()
    assert stripped.query == () and stripped.fragment == ""


def test_join_absolute():
    base = Url.parse("https://shop.com/a/b")
    assert str(base.join("https://other.net/x")) == "https://other.net/x"


def test_join_path_absolute():
    base = Url.parse("https://shop.com/a/b?q=1")
    joined = base.join("/account/login?next=home")
    assert str(joined) == "https://shop.com/account/login?next=home"


def test_join_relative():
    base = Url.parse("https://shop.com/a/b")
    assert base.join("c").path == "/a/c"


def test_percent_encoding_of_query_values():
    url = Url(host="t.net", query=(("email", "foo@mydom.com"),))
    assert "email=foo%40mydom.com" in str(url)


def test_percent_round_trip():
    original = "foo@mydom.com & name=Alex Romero/100%"
    assert percent_decode(percent_encode(original)) == original


def test_percent_decode_plus_as_space():
    assert percent_decode("Alex+Romero") == "Alex Romero"


def test_percent_decode_tolerates_malformed():
    assert percent_decode("100%zz") == "100%zz"
    assert percent_decode("%") == "%"


@pytest.mark.parametrize("text, decoded", [
    ("%4", "%4"),
    ("x%A", "x%A"),
    ("%+1", "% 1"),
    ("% 1", "% 1"),
    ("%%41", "%A"),
    ("%4%41", "%4A"),
    ("%e2%82%AC", "\u20ac"),
])
def test_percent_decode_only_decodes_two_hex_digits(text, decoded):
    assert percent_decode(text) == decoded


def test_percent_encode_table_follows_safe():
    text = "a b/@:\u00e9~"
    assert percent_encode(text) == "a%20b%2F%40%3A%C3%A9~"
    assert percent_encode(text, safe="/") == "a%20b/%40%3A%C3%A9~"
    assert percent_encode(text, safe="@:") == "a%20b%2F@:%C3%A9~"
    assert percent_encode(text) == "a%20b%2F%40%3A%C3%A9~"


def test_encode_decode_query_round_trip():
    pairs = [("email", "foo@mydom.com"), ("n", "a b"), ("n", "c&d")]
    assert decode_query(encode_query(pairs)) == pairs


def test_decode_query_empty_and_bare_keys():
    assert decode_query("") == []
    assert decode_query("a&b=1") == [("a", ""), ("b", "1")]


def test_host_lowercased_on_parse():
    assert Url.parse("https://WWW.Shop.COM/x").host == "www.shop.com"
