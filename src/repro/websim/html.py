"""Minimal HTML generation and parsing.

The synthetic web serves real HTML documents.  Its server writes each
page with a :class:`PageWriter`, which records beside the markup the
:class:`ParsedPage` that :func:`parse_page` reads back from it, and hands
that model to the browser with the response
(:attr:`~repro.netsim.HttpResponse.page`): a crawl does not parse the
HTML its own server rendered a moment earlier.  :func:`parse_page` reads
HTML that arrives without a model, such as a replayed or unpickled
response, and is the oracle the tests hold every served model to.  The
dialect is the subset shop pages in this simulation emit:
``script``/``img``/``link``/``iframe`` resource tags, ``a`` links, and
``form`` elements with ``input`` fields.

Tracker snippets carry a ``data-tracker`` attribute naming the service that
owns them; the browser's script engine uses it to look up the service's
behaviour (our stand-in for executing third-party JavaScript).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

_VOID_TAGS = frozenset({"img", "input", "link", "meta", "br", "hr"})

#: One token per ``<``: a comment (``<!--`` up to the first ``-->``, which
#: may overlap the opener as in ``<!-->``, else to the end of the document)
#: or a tag ``<`` ... ``>`` split into closer slash, name and attributes.
#: A ``<`` with no ``>`` after it matches nothing, and neither can any
#: later ``<`` but a comment, so scanning stops there.
_TOKEN = re.compile(r"<!(?=--).*?(?:-->|\Z)|<(/?)([^ \t\r\n/>]*)([^>]*)>",
                    re.DOTALL)

#: One attribute, matched where the previous one ended: separators
#: (whitespace and ``/``), the name (up to ``=``, whitespace or ``/``),
#: then optionally ``=`` and a double-quoted, single-quoted (either may
#: run unterminated to the end) or bare value.  An empty name ends the
#: attribute list: the text is used up or the next character is ``=``.
_ATTR = re.compile(r"[ \t\r\n/]*([^= \t\r\n/]*)[ \t\r\n]*"
                   r'(?:=[ \t\r\n]*(?:"([^"]*)"?'
                   r"|'([^']*)'?"
                   r"|([^ \t\r\n>]*)))?").match


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

class Tag(NamedTuple):
    """One parsed HTML start tag."""

    name: str
    attrs: Dict[str, str]

    def get(self, attr: str, default: str = "") -> str:
        return self.attrs.get(attr, default)


@dataclass
class ParsedForm:
    """A form element with its input fields."""

    action: str
    method: str
    form_id: str
    fields: List[Tuple[str, str, str]] = field(default_factory=list)
    # each field is (name, type, value)


@dataclass
class ParsedPage:
    """Everything the browser extracts from a document."""

    scripts: List[Tag] = field(default_factory=list)
    images: List[Tag] = field(default_factory=list)
    stylesheets: List[Tag] = field(default_factory=list)
    iframes: List[Tag] = field(default_factory=list)
    forms: List[ParsedForm] = field(default_factory=list)
    anchors: List[Tag] = field(default_factory=list)

    def resource_tags(self) -> List[Tuple[str, Tag]]:
        """(resource_type, tag) pairs grouped by category: scripts,
        images, stylesheets, then iframes, each in document order."""
        out: List[Tuple[str, Tag]] = []
        out.extend(("script", tag) for tag in self.scripts)
        out.extend(("image", tag) for tag in self.images)
        out.extend(("stylesheet", tag) for tag in self.stylesheets)
        out.extend(("subdocument", tag) for tag in self.iframes)
        return out


def _unescape(value: str) -> str:
    if "&" not in value:
        return value
    return (value.replace("&quot;", '"').replace("&lt;", "<")
            .replace("&gt;", ">").replace("&amp;", "&"))


def _parse_attrs(text: str) -> Dict[str, str]:
    attrs: Dict[str, str] = {}
    index = 0
    while True:
        match = _ATTR(text, index)
        name = match.group(1)
        if not name:
            return attrs
        value = match.group(2) or match.group(3) or match.group(4) or ""
        attrs[name.lower()] = _unescape(value)
        index = match.end()


def iter_tags(html: str) -> List[Tag]:
    """All start tags in document order (comments and closers skipped)."""
    return [tag for tag in _iter_tags_with_closers(html)
            if not tag.name.startswith("/")]


def parse_page(html: str) -> ParsedPage:
    """Extract resources and forms from a document."""
    page = ParsedPage()
    current_form: Optional[ParsedForm] = None
    for tag in _iter_tags_with_closers(html):
        if tag.name == "/form":
            if current_form is not None:
                page.forms.append(current_form)
                current_form = None
            continue
        if tag.name == "form":
            current_form = ParsedForm(
                action=tag.get("action", ""),
                method=tag.get("method", "GET").upper(),
                form_id=tag.get("id", ""))
            continue
        if tag.name == "input" and current_form is not None:
            current_form.fields.append((tag.get("name"),
                                        tag.get("type", "text"),
                                        tag.get("value")))
            continue
        if tag.name == "script" and tag.get("src"):
            page.scripts.append(tag)
        elif tag.name == "img" and tag.get("src"):
            page.images.append(tag)
        elif tag.name == "link" and tag.get("rel") == "stylesheet":
            page.stylesheets.append(tag)
        elif tag.name == "iframe" and tag.get("src"):
            page.iframes.append(tag)
        elif tag.name == "a" and tag.get("href"):
            page.anchors.append(tag)
    if current_form is not None:
        page.forms.append(current_form)
    return page


def _iter_tags_with_closers(html: str) -> List[Tag]:
    tags: List[Tag] = []
    for match in _TOKEN.finditer(html):
        slash, name, rest = match.groups()
        if name is None:
            continue  # a comment
        if slash:
            tags.append(Tag(name="/" + (name + rest).strip().lower(),
                            attrs={}))
        elif (name or rest) and not name.startswith("!"):
            tags.append(Tag(name=name.lower(), attrs=_parse_attrs(rest)))
    return tags


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------

def _escape(value: str) -> str:
    return (value.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def render_tag(name: str, attrs: Dict[str, str], void: bool = False) -> str:
    parts = ["<%s" % name]
    for attr_name, attr_value in attrs.items():
        parts.append(' %s="%s"' % (attr_name, _escape(attr_value)))
    parts.append(">" if void or name in _VOID_TAGS else "></%s>" % name)
    return "".join(parts)


def render_document(title: str, body_parts: List[str],
                    head_parts: Optional[List[str]] = None) -> str:
    head = "\n    ".join(head_parts or [])
    body = "\n    ".join(body_parts)
    return (
        "<!DOCTYPE html>\n"
        "<html>\n  <head>\n    <title>%s</title>\n    %s\n  </head>\n"
        "  <body>\n    %s\n  </body>\n</html>\n"
        % (_escape(title), head, body))


def render_form(action: str, method: str, form_id: str,
                fields: List[Tuple[str, str, str]]) -> str:
    lines = ['<form id="%s" action="%s" method="%s">'
             % (_escape(form_id), _escape(action), _escape(method))]
    for name, kind, value in fields:
        attrs = {"name": name, "type": kind}
        if value:
            attrs["value"] = value
        lines.append("  " + render_tag("input", attrs))
    lines.append('  <input type="submit" value="Submit">')
    lines.append("</form>")
    return "\n    ".join(lines)


#: The submit button :func:`render_form` closes every form with, as a
#: parsed ``(name, type, value)`` field.
_SUBMIT_FIELD = ("", "submit", "Submit")


def _fresh(text: str) -> str:
    """A new string equal to ``text``, as a parse slices one out of the
    markup.  A submitted form keeps its action and field strings in the
    request URL, so strings shared by every page would be pickled once
    per shard result or checkpoint record instead of once per request,
    and those bytes would differ from a parsed page's."""
    return text[:1] + text[1:]


class ScriptBlock:
    """Script tags, rendered once with their parsed tags, that
    :meth:`PageWriter.scripts` appends to many pages.  Every page model
    shares the tags, so they are read-only."""

    __slots__ = ("markup", "tags")

    def __init__(self, scripts: List[Dict[str, str]]) -> None:
        self.markup = tuple(render_tag("script", attrs) for attrs in scripts)
        self.tags = tuple(Tag(name="script", attrs=attrs)
                          for attrs in scripts)


class LinkBlock:
    """Links, rendered once with their parsed tags, that
    :meth:`PageWriter.links` appends to many pages.  Every page model
    shares the tags, so they are read-only."""

    __slots__ = ("markup", "tags")

    def __init__(self, links: Sequence[Tuple[str, str]]) -> None:
        self.markup = tuple('<a href="%s">%s</a>'
                            % (_escape(href), _escape(text))
                            for href, text in links)
        self.tags = tuple(Tag(name="a", attrs={"href": href})
                          for href, _ in links)


class PageWriter:
    """Writes a document and, beside it, the :class:`ParsedPage` that
    :func:`parse_page` reads back from the document.

    Each element goes into the markup and into the model in one call, so
    the model is the parse of the document by construction, without a
    parse.  The document is a heading, then links and forms, then
    resource tags, in the order they are written.
    """

    __slots__ = ("parts", "page")

    def __init__(self, heading: str) -> None:
        self.parts = ["<h1>%s</h1>" % _escape(heading)]
        self.page = ParsedPage()

    def links(self, block: LinkBlock) -> None:
        self.parts.extend(block.markup)
        self.page.anchors.extend(block.tags)

    def form(self, action: str, method: str, form_id: str,
             fields: List[Tuple[str, str, str]]) -> None:
        self.parts.append(render_form(action, method, form_id, fields))
        parsed = [(_fresh(name), kind, _fresh(value or ""))
                  for name, kind, value in fields]
        parsed.append(_SUBMIT_FIELD)
        self.page.forms.append(ParsedForm(action=_fresh(action),
                                          method=method.upper(),
                                          form_id=form_id, fields=parsed))

    def scripts(self, block: ScriptBlock) -> None:
        self.parts.extend(block.markup)
        self.page.scripts.extend(block.tags)

    def document(self, title: str) -> str:
        return render_document(title, self.parts)
