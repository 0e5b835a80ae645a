"""HTML generation and parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler import StudyCrawler
from repro.websim import html as html_module
from repro.websim.generator import GeneratorConfig, generate_population
from repro.websim.html import (
    LinkBlock,
    PageWriter,
    ScriptBlock,
    Tag,
    _iter_tags_with_closers,
    _parse_attrs,
    iter_tags,
    parse_page,
    render_document,
    render_form,
    render_tag,
)
from repro.websim.server import WebServer
from repro.websim.shopping import build_study_population


def test_render_and_parse_script_tag():
    html = render_document("T", [render_tag("script", {
        "src": "https://t.net/tag.js", "data-tracker": "t.net"})])
    page = parse_page(html)
    assert len(page.scripts) == 1
    assert page.scripts[0].get("src") == "https://t.net/tag.js"
    assert page.scripts[0].get("data-tracker") == "t.net"


def test_render_and_parse_form():
    form_html = render_form("/submit", "POST", "signup-form",
                            [("email", "email", ""),
                             ("csrf", "hidden", "tok")])
    page = parse_page(render_document("T", [form_html]))
    assert len(page.forms) == 1
    form = page.forms[0]
    assert form.action == "/submit"
    assert form.method == "POST"
    assert form.form_id == "signup-form"
    names = [name for name, _, _ in form.fields]
    assert "email" in names and "csrf" in names
    csrf = next(f for f in form.fields if f[0] == "csrf")
    assert csrf == ("csrf", "hidden", "tok")


def test_parse_multiple_resource_kinds():
    html = render_document("T", [
        render_tag("img", {"src": "https://t.net/p.gif"}),
        render_tag("link", {"rel": "stylesheet", "href": "/style.css"}),
        render_tag("iframe", {"src": "https://ads.net/frame"}),
        render_tag("a", {"href": "/products/x"}),
    ])
    page = parse_page(html)
    assert len(page.images) == 1
    assert len(page.stylesheets) == 1
    assert len(page.iframes) == 1
    assert len(page.anchors) == 1
    kinds = [kind for kind, _ in page.resource_tags()]
    assert set(kinds) == {"image", "stylesheet", "subdocument"}


def test_attribute_escaping_round_trip():
    url = 'https://t.net/p?a=1&b="x"'
    html = render_tag("img", {"src": url})
    page = parse_page(render_document("T", [html]))
    assert page.images[0].get("src") == url


def test_comments_skipped():
    html = '<!-- <script src="https://evil.net/x.js"></script> -->'
    assert parse_page(html).scripts == []


def test_unquoted_attributes():
    page = parse_page('<img src=https://t.net/p.gif width=1>')
    assert page.images[0].get("src") == "https://t.net/p.gif"
    assert page.images[0].get("width") == "1"


def test_malformed_html_tolerated():
    parse_page("<")
    parse_page("<script src='x.js'")
    parse_page("</form>")
    parse_page("<form action='/a'><input name='x'>")  # unclosed form kept
    page = parse_page("<form action='/a'><input name='x'>")
    assert len(page.forms) == 1


def test_iter_tags_names_lowercased():
    tags = iter_tags('<SCRIPT SRC="https://x.net/t.js"></SCRIPT>')
    assert tags[0].name == "script"
    assert tags[0].get("src") == "https://x.net/t.js"


def test_form_method_defaults_to_get():
    page = parse_page('<form action="/s"><input name="e"></form>')
    assert page.forms[0].method == "GET"


# -- differential checks against hand-written references ----------------------

def _reference_parse_attrs(text):
    """Reference attribute parser: one character loop over the text."""
    attrs = {}
    index = 0
    length = len(text)
    while index < length:
        while index < length and text[index] in " \t\r\n/":
            index += 1
        if index >= length:
            break
        start = index
        while index < length and text[index] not in "= \t\r\n/":
            index += 1
        name = text[start:index].lower()
        if not name:
            break
        while index < length and text[index] in " \t\r\n":
            index += 1
        value = ""
        if index < length and text[index] == "=":
            index += 1
            while index < length and text[index] in " \t\r\n":
                index += 1
            if index < length and text[index] in "\"'":
                quote = text[index]
                index += 1
                end = text.find(quote, index)
                if end == -1:
                    end = length
                value = text[index:end]
                index = end + 1
            else:
                start = index
                while index < length and text[index] not in " \t\r\n>":
                    index += 1
                value = text[start:index]
        attrs[name] = html_module._unescape(value)
    return attrs


_ATTR_FRAGMENTS = (" ", "\t", "\r", "\n", "\f", "/", "=", "==", '"', "'",
                   '="', "='", ">", "&", "&amp;", "&quot;", "&lt;", "&gt;",
                   "&amp;quot;", "src", "SRC", "data-x", "a", "B", "1",
                   "<", "-")
_attr_texts = st.one_of(
    st.lists(st.sampled_from(_ATTR_FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet=" \t\r\n\f/=\"'>&;aBq1", max_size=30))


@settings(max_examples=2000, deadline=None)
@given(_attr_texts)
def test_attribute_parser_matches_the_reference(text):
    parsed = _parse_attrs(text)
    expected = _reference_parse_attrs(text)
    assert parsed == expected
    assert list(parsed) == list(expected)


@pytest.mark.parametrize("text", [
    "",
    " / ",
    '=x src="a"',                       # empty name ends the list
    ' src="a b" alt=\'c"d\' w=1 h',     # both quotes, bare, valueless
    ' src="never closed',                 # unterminated double quote
    " src='never closed",                 # unterminated single quote
    " src = \t\n'spaced' /x/ y=",          # whitespace around '='
    " a=1 A=2 a",                         # a repeat keeps the first slot
    ' href="/p?a=1&amp;b=&quot;x&quot;"',  # entities
    " src=a>b c=d",                       # '>' ends a bare value
    " x\f=1",                              # form feed is a name character
])
def test_attribute_parser_edge_cases_match_the_reference(text):
    parsed = _parse_attrs(text)
    assert parsed == _reference_parse_attrs(text)
    assert list(parsed) == list(_reference_parse_attrs(text))


def _reference_tags_with_closers(html):
    """Reference tokenizer: one ``find``-driven pass per ``<``."""
    tags = []
    index = 0
    length = len(html)
    while index < length:
        open_pos = html.find("<", index)
        if open_pos == -1:
            break
        if html.startswith("<!--", open_pos):
            end = html.find("-->", open_pos)
            index = length if end == -1 else end + 3
            continue
        close_pos = html.find(">", open_pos)
        if close_pos == -1:
            break
        inner = html[open_pos + 1:close_pos]
        index = close_pos + 1
        if not inner or inner.startswith("!"):
            continue
        if inner.startswith("/"):
            tags.append(Tag(name="/" + inner[1:].strip().lower(), attrs={}))
            continue
        name_end = 0
        while name_end < len(inner) and inner[name_end] not in " \t\r\n/>":
            name_end += 1
        name = inner[:name_end].lower()
        tags.append(Tag(name=name,
                        attrs=_reference_parse_attrs(inner[name_end:])))
    return tags


def _reference_parse_page(html, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(html_module, "_iter_tags_with_closers",
                      _reference_tags_with_closers)
        return parse_page(html)


_FRAGMENTS = ("<", ">", "</", "/>", "<!--", "-->", "<!-->", "<!", "!", "-",
              "/", " ", "\t", "\n", "\f", " ", "=", '"', "'", "&amp;",
              "&", "form", "FORM", "input", "Img", "a", "x", "src", "name",
              "value", "<!DOCTYPE html>", "</form >", "</ form\n>")
_documents = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join),
    st.text(alphabet="<>!-/ \t=\"'aF&", max_size=40))


@settings(max_examples=1000, deadline=None)
@given(_documents)
def test_tokenizer_matches_the_reference(html):
    expected = _reference_tags_with_closers(html)
    assert _iter_tags_with_closers(html) == expected
    assert iter_tags(html) == [tag for tag in expected
                               if not tag.name.startswith("/")]


@pytest.mark.parametrize("html", [
    '<img src="a"><!-- <script src="b"></script>',  # unterminated comment
    '<!--><img src="a"><!--->',
    '<p>x<img src="a"',  # no closing '>'
    '<form action="/a"></ form ></FORM\t>',
    '</!x><!x><>< x>',
])
def test_tokenizer_edge_cases_match_the_reference(html, monkeypatch):
    assert _iter_tags_with_closers(html) == _reference_tags_with_closers(html)
    assert parse_page(html) == _reference_parse_page(html, monkeypatch)


def test_page_writer_model_is_the_parse_of_its_document():
    writer = PageWriter('A & "B"')
    writer.links(LinkBlock([('/next?a=1&b="2"', "<next>")]))
    writer.form("/s?x=1&y=2", "get", 'f"1',
                [("email", "email", ""), ("csrf", "hidden", "t&<k>")])
    writer.scripts(ScriptBlock([{"src": "https://t.net/a.js?x=1&y=2",
                                 "data-tracker": "t.net"},
                                {"src": "/c.js", "data-captcha": "1"}]))
    html = writer.document("T")
    assert parse_page(html) == writer.page
    assert writer.page.forms[0].method == "GET"
    assert writer.page.forms[0].fields[-1] == ("", "submit", "Submit")
    assert [tag.get("href") for tag in writer.page.anchors] == [
        '/next?a=1&b="2"']


def _served_pages(population, monkeypatch):
    """Crawl ``population``; return the (html, page model) pair of every
    HTML response its server served, as it left the server."""
    served = []
    handle = WebServer.handle

    def recording(self, request):
        response = handle(self, request)
        if response.headers.get("Content-Type", "").startswith("text/html"):
            served.append((response.body.decode("utf-8", errors="replace"),
                           response.page))
        return response

    with monkeypatch.context() as patch:
        patch.setattr(WebServer, "handle", recording)
        StudyCrawler(population).crawl()
    return served


def test_every_served_page_parses_like_the_reference(monkeypatch):
    seed_404 = generate_population(seed=404, config=GeneratorConfig(
        n_sites=404, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))
    # Distinct documents: 2,492 of 2,896 served on seed 404, 1,985 of
    # 2,292 on the calibrated web.
    calibrated = build_study_population().population
    for population, more_than in ((seed_404, 2000), (calibrated, 1900)):
        served = _served_pages(population, monkeypatch)
        # The model the server hands the browser is the parse of its
        # bytes.
        for html, page in served:
            assert page is not None
            assert parse_page(html) == page
        distinct = {html for html, _ in served}
        assert len(distinct) > more_than
        for html in sorted(distinct):
            assert _iter_tags_with_closers(html) == \
                _reference_tags_with_closers(html)
            assert parse_page(html) == _reference_parse_page(html,
                                                             monkeypatch)
