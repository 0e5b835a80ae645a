"""Prefix-anchor pattern index: correctness against naive search."""

import pytest

from repro.core import PatternIndex


def _naive_matches(text, patterns):
    found = set()
    for pattern in patterns:
        start = 0
        while True:
            index = text.find(pattern, start)
            if index == -1:
                break
            found.add((index, index + len(pattern), pattern))
            start = index + 1
    return found


def test_single_pattern():
    index = PatternIndex()
    index.add("abc", 1)
    matches = index.find_all("xxabcxxabc")
    assert [(m.start, m.end) for m in matches] == [(2, 5), (7, 10)]


def test_overlapping_patterns():
    index = PatternIndex()
    for pattern in ("he", "she", "his", "hers"):
        index.add(pattern, pattern)
    found = {(m.start, m.end, m.pattern)
             for m in index.find_all("ushers")}
    assert found == _naive_matches("ushers", ["he", "she", "his", "hers"])


def test_pattern_inside_pattern():
    index = PatternIndex()
    index.add("abcd", "long")
    index.add("bc", "short")
    found = {m.pattern for m in index.find_all("xabcdx")}
    assert found == {"abcd", "bc"}


def test_payload_carried():
    index = PatternIndex()
    index.add("token", {"pii": "email"})
    match = index.find_all("a token here")[0]
    assert match.payload == {"pii": "email"}
    assert match.pattern == "token"


def test_no_matches():
    index = PatternIndex()
    index.add("zzz", None)
    assert index.find_all("aaaa") == []
    assert not index.contains_any("aaaa")


def test_contains_any_early_exit():
    index = PatternIndex()
    index.add("needle", None)
    assert index.contains_any("xxneedlexx")


def test_empty_pattern_rejected():
    with pytest.raises(ValueError):
        PatternIndex().add("", None)


def test_add_after_build_rebuilds():
    index = PatternIndex()
    index.add("one", 1)
    assert index.contains_any("one")
    index.add("two", 2)
    assert index.contains_any("two")


def test_duplicate_pattern_distinct_payloads():
    index = PatternIndex()
    index.add("dup", "a")
    index.add("dup", "b")
    payloads = sorted(m.payload for m in index.find_all("dup"))
    assert payloads == ["a", "b"]


def test_len_counts_patterns():
    index = PatternIndex()
    index.add("a1", None)
    index.add("b2", None)
    assert len(index) == 2


def test_matches_against_naive_on_dense_text():
    patterns = ["ab", "ba", "aba", "bab", "aa", "abba"]
    text = "abbaabababbaaab" * 3
    index = PatternIndex()
    for pattern in patterns:
        index.add(pattern, None)
    found = {(m.start, m.end, m.pattern) for m in index.find_all(text)}
    assert found == _naive_matches(text, patterns)


def test_text_shorter_than_anchor():
    # The anchor is six characters here; a shorter text holds no anchor
    # position at all, even where a pattern's prefix fits.
    index = PatternIndex()
    index.add("abcdefgh", None)
    index.add("abcdef", None)
    assert index.find_all("abcde") == []
    assert not index.contains_any("abcde")
