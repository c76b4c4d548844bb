"""Minimal XML reader/writer used by the XML wire formats.

The paper's B2B protocols (RosettaNet, OAGIS) are XML-based.  Per the
reproduction rule ("B2B/XML tooling weaker — build the substrate"), this is
a small, dependency-free XML subset implemented from scratch:

* elements with attributes and text,
* the five predefined entities (``&amp; &lt; &gt; &quot; &apos;``) plus
  numeric character references,
* comments and an optional XML declaration (both skipped on parse),
* UTF-8 text in, text out.

It deliberately excludes namespaces-as-objects (prefixes are kept verbatim
in tag names), CDATA, DTDs and processing instructions — none of which the
wire formats here use.  ``parse(serialize(tree)) == tree`` is property-tested
in ``tests/documents/test_xmlio.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import XmlSyntaxError

__all__ = ["XmlElement", "parse", "serialize"]


@dataclass
class XmlElement:
    """An XML element: tag, attributes, text chunks and child elements.

    ``content`` is the ordered mixed content: a list whose items are either
    ``str`` (text) or :class:`XmlElement` (child).  Convenience accessors
    cover the common case of element-only or text-only content.
    """

    tag: str
    attrs: dict[str, str] = field(default_factory=dict)
    content: list["XmlElement | str"] = field(default_factory=list)

    # -- construction helpers ------------------------------------------------

    def child(self, tag: str, text: str | None = None, **attrs: str) -> "XmlElement":
        """Append and return a new child element (optionally with text)."""
        element = XmlElement(tag, dict(attrs))
        if text is not None:
            element.content.append(text)
        self.content.append(element)
        return element

    # -- queries -------------------------------------------------------------

    @property
    def children(self) -> list["XmlElement"]:
        """Child elements, in document order (text chunks excluded)."""
        return [item for item in self.content if isinstance(item, XmlElement)]

    @property
    def text(self) -> str:
        """Concatenated direct text content."""
        return "".join(item for item in self.content if isinstance(item, str))

    def find(self, tag: str) -> "XmlElement | None":
        """Return the first direct child with ``tag``, or ``None``."""
        for element in self.children:
            if element.tag == tag:
                return element
        return None

    def find_all(self, tag: str) -> list["XmlElement"]:
        """Return all direct children with ``tag``."""
        return [element for element in self.children if element.tag == tag]

    def require(self, tag: str) -> "XmlElement":
        """Like :meth:`find` but raises when the child is absent."""
        element = self.find(tag)
        if element is None:
            raise XmlSyntaxError(f"<{self.tag}> is missing required child <{tag}>")
        return element

    def child_text(self, tag: str, default: str | None = None) -> str | None:
        """Return the text of the first ``tag`` child, or ``default``."""
        element = self.find(tag)
        return element.text if element is not None else default

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for element in self.children:
            yield from element.iter()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XmlElement)
            and self.tag == other.tag
            and self.attrs == other.attrs
            and self.content == other.content
        )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_TEXT_ESCAPES = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
_ATTR_ESCAPES = {**_TEXT_ESCAPES, '"': "&quot;"}

# An XML name as both the serializer and the parser accept it: ASCII only.
_NAME_CHAR = "[A-Za-z0-9_:.-]"
_NAME = f"[A-Za-z_:]{_NAME_CHAR}*"
_NAME_RE = re.compile(_NAME)


def _escape(value: str, table: dict[str, str]) -> str:
    for raw, replacement in table.items():
        value = value.replace(raw, replacement)
    return value


def _check_name(name: str) -> str:
    if _NAME_RE.fullmatch(name) is None:
        raise XmlSyntaxError(f"invalid XML name {name!r}")
    return name


def serialize(root: XmlElement, declaration: bool = True, indent: int = 0) -> str:
    """Serialize ``root`` to an XML string.

    ``indent > 0`` pretty-prints element-only content with that many spaces
    per level; mixed content (text alongside elements) is always emitted
    verbatim so that round-tripping preserves text exactly.
    """
    pieces: list[str] = []
    if declaration:
        pieces.append('<?xml version="1.0" encoding="UTF-8"?>')
        if indent:
            pieces.append("\n")
    _serialize_element(root, pieces, indent, 0)
    return "".join(pieces)


def _serialize_element(
    element: XmlElement, pieces: list[str], indent: int, depth: int
) -> None:
    pad = " " * (indent * depth) if indent else ""
    pieces.append(f"{pad}<{_check_name(element.tag)}")
    for key in element.attrs:
        pieces.append(f' {_check_name(key)}="{_escape(element.attrs[key], _ATTR_ESCAPES)}"')
    if not element.content:
        pieces.append("/>")
        if indent:
            pieces.append("\n")
        return
    pieces.append(">")
    element_only = all(isinstance(item, XmlElement) for item in element.content)
    if indent and element_only:
        pieces.append("\n")
        for item in element.content:
            _serialize_element(item, pieces, indent, depth + 1)  # type: ignore[arg-type]
        pieces.append(pad)
    else:
        for item in element.content:
            if isinstance(item, str):
                pieces.append(_escape(item, _TEXT_ESCAPES))
            else:
                _serialize_element(item, pieces, 0, 0)
    pieces.append(f"</{element.tag}>")
    if indent:
        pieces.append("\n")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}

# One iterative pass: ``str.find`` locates each run of character data, and
# these patterns, anchored at the current offset, match whole tags.
# Whitespace is exactly `` \t\r\n``.  The lookahead stops a tag name from
# giving characters back to an attribute name (``<ax="1">`` is not ``<a>``).
_WS = "[ \t\r\n]*"
_VALUE = "\"[^\"<]*\"|'[^'<]*'"
_MISC = re.compile(f"{_WS}(?:(?:<!--.*?-->|<\\?.*?\\?>){_WS})*", re.DOTALL)
_START_TAG = re.compile(
    f"<({_NAME})(?!{_NAME_CHAR})((?:{_WS}{_NAME}{_WS}={_WS}(?:{_VALUE}))*){_WS}(/?)>"
)
_ATTRIBUTE = re.compile(f"{_WS}({_NAME}){_WS}={_WS}({_VALUE})")
_END_TAG = re.compile(f"</({_NAME}){_WS}>")
_REFERENCE = re.compile("&([^&;]{0,10})(;?)")


def _unescape(run: str, offset: int) -> str:
    """Decode the entity and character references in ``run`` (at ``offset``)."""

    def decode(match: re.Match) -> str:
        body = match[1]
        at = offset + match.start()
        if not match[2]:
            raise XmlSyntaxError("unterminated entity reference", at)
        if body in _ENTITIES:
            return _ENTITIES[body]
        if not body.startswith("#"):
            raise XmlSyntaxError(f"unknown entity &{body};", at)
        try:
            if body[1:2] in ("x", "X"):
                return chr(int(body[2:], 16))
            return chr(int(body[1:]))
        except (ValueError, OverflowError):
            raise XmlSyntaxError(f"bad character reference &{body};", at) from None

    return _REFERENCE.sub(decode, run)


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace, comments and XML declarations outside the root."""
    pos = _MISC.match(text, pos).end()
    if text.startswith("<!--", pos):
        raise XmlSyntaxError("unterminated comment", pos)
    if text.startswith("<?", pos):
        raise XmlSyntaxError("unterminated declaration", pos)
    return pos


def _attributes(text: str, start: int, end: int) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for match in _ATTRIBUTE.finditer(text, start, end):
        name, value = match[1], match[2][1:-1]
        if name in attrs:
            raise XmlSyntaxError(f"duplicate attribute {name!r}", match.start(1))
        attrs[name] = _unescape(value, match.start(2) + 1) if "&" in value else value
    return attrs


def _tag_error(text: str, pos: int) -> XmlSyntaxError:
    """Say where the start tag at ``pos`` stops matching the grammar."""
    name = _NAME_RE.match(text, pos + 1)
    if name is None:
        return XmlSyntaxError("expected XML name", pos + 1)
    end = name.end()
    while attribute := _ATTRIBUTE.match(text, end):
        end = attribute.end()
    return XmlSyntaxError(f"malformed start tag <{name[0]}>", end)


def parse(text: str) -> XmlElement:
    """Parse an XML string and return its root :class:`XmlElement`.

    Open elements live on an explicit stack, so nesting depth is bounded
    only by memory; every rejection is an :class:`XmlSyntaxError`.
    """
    if not isinstance(text, str):
        raise XmlSyntaxError(f"expected str, got {type(text).__name__}")
    pos = _skip_misc(text, 0)
    if not text.startswith("<", pos) or text.startswith("</", pos):
        raise XmlSyntaxError("expected root element", pos)
    find, start_tag, end_tag = text.find, _START_TAG.match, _END_TAG.match
    stack: list[XmlElement] = []  # open elements, innermost last
    run = ""  # character data since the last tag; comments do not split it
    while True:
        kind = text[pos + 1 : pos + 2]  # text[pos] is "<"
        if kind == "/":
            match = end_tag(text, pos)
            element = stack.pop()
            if match is None or match[1] != element.tag:
                raise XmlSyntaxError(f"bad closing tag for <{element.tag}>", pos)
            if run:
                element.content.append(run)
                run = ""
            pos = match.end()
            if not stack:
                break
        elif kind == "!" and text.startswith("<!--", pos):
            end = find("-->", pos + 4)
            if end < 0:
                raise XmlSyntaxError("unterminated comment", pos)
            pos = end + 3
        else:
            match = start_tag(text, pos)
            if match is None:
                raise _tag_error(text, pos)
            tag, attrs, empty = match.groups()
            element = XmlElement(tag, _attributes(text, *match.span(2)) if attrs else {}, [])
            if stack:
                content = stack[-1].content
                if run:
                    content.append(run)
                    run = ""
                content.append(element)
            else:
                root = element
            pos = match.end()
            if not empty:
                stack.append(element)
            elif not stack:
                break
        lt = find("<", pos)
        if lt < 0:
            raise XmlSyntaxError(f"unterminated element <{stack[-1].tag}>", len(text))
        if lt > pos:
            chunk = text[pos:lt]
            run += _unescape(chunk, pos) if "&" in chunk else chunk
            pos = lt
    if _skip_misc(text, pos) != len(text):
        raise XmlSyntaxError("content after document root", pos)
    return root
