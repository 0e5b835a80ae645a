"""Property-based tests for the matchers (Aho-Corasick, ABP patterns)."""

import string

from hypothesis import given
from hypothesis import strategies as st

from repro.blocklist import compile_pattern, parse_filter
from repro.core import AhoCorasick

_ALPHABET = "ab@."
_PATTERNS = st.lists(
    st.text(alphabet=_ALPHABET, min_size=1, max_size=5),
    min_size=1, max_size=6, unique=True)
_TEXTS = st.text(alphabet=_ALPHABET, max_size=60)


# Includes a non-BMP character, so transition keys use all 21 bits.
_WIDE_ALPHABET = "ab\u00e9\U0001F600"


def _naive(text, patterns):
    found = set()
    for pattern in patterns:
        start = 0
        while True:
            index = text.find(pattern, start)
            if index == -1:
                break
            found.add((index, pattern))
            start = index + 1
    return found


@given(_PATTERNS, _TEXTS)
def test_aho_corasick_equals_naive_search(patterns, text):
    automaton = AhoCorasick()
    for pattern in patterns:
        automaton.add(pattern, None)
    result = {(m.start, m.pattern) for m in automaton.find_all(text)}
    assert result == _naive(text, patterns)


def _naive_ordered(text, patterns):
    """Every occurrence, ordered as the automaton reports them: by end,
    then longer pattern first, then insertion order."""
    found = []
    for order, pattern in enumerate(patterns):
        start = text.find(pattern)
        while start != -1:
            found.append((start + len(pattern), -len(pattern), order,
                          start, pattern))
            start = text.find(pattern, start + 1)
    found.sort()
    return [(start, end, pattern, order)
            for end, _, order, start, pattern in found]


@given(st.lists(st.text(alphabet=_WIDE_ALPHABET, min_size=1, max_size=4),
                min_size=1, max_size=8),
       st.text(alphabet=_WIDE_ALPHABET, max_size=40))
def test_aho_corasick_match_order_equals_naive(patterns, text):
    # Patterns may repeat; each copy carries its own payload.
    automaton = AhoCorasick()
    for order, pattern in enumerate(patterns):
        automaton.add(pattern, order)
    result = [(m.start, m.end, m.pattern, m.payload)
              for m in automaton.find_all(text)]
    assert result == _naive_ordered(text, patterns)


@given(_PATTERNS, _TEXTS)
def test_contains_any_consistent_with_find_all(patterns, text):
    automaton = AhoCorasick()
    for pattern in patterns:
        automaton.add(pattern, None)
    assert automaton.contains_any(text) == bool(automaton.find_all(text))


@given(st.tuples(
    st.sampled_from(["track", "pixel", "collect", "b/ss", "tr"]),
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)))
def test_substring_rules_match_iff_substring(parts):
    token, noise = parts
    rule = parse_filter("/%s/" % token)
    url_with = "https://%s.net/%s/x" % (noise, token)
    url_without = "https://%s.net/other/x" % noise
    assert rule.matches_url(url_with)
    assert ("/%s/" % token) not in url_without or \
        rule.matches_url(url_without)


@given(st.text(alphabet=string.ascii_lowercase + string.digits,
               min_size=2, max_size=10))
def test_domain_anchor_never_matches_inside_path(domain_label):
    rule = parse_filter("||%s.net^" % domain_label)
    assert rule.matches_url("https://%s.net/x" % domain_label)
    assert rule.matches_url("https://a.%s.net/x" % domain_label)
    assert not rule.matches_url("https://other.com/%s.net/x" % domain_label)


@given(st.text(alphabet=string.ascii_lowercase + "/.-", min_size=1,
               max_size=12))
def test_compiled_pattern_literal_is_substring_match(literal):
    regex = compile_pattern(literal, match_case=False)
    assert regex.search("prefix" + literal + "suffix")
