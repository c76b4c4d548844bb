"""Tests for the minimal XML reader/writer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.documents.xmlio import XmlElement, parse, serialize
from repro.errors import XmlSyntaxError


class TestElementApi:
    def test_child_appends_and_returns(self):
        root = XmlElement("root")
        child = root.child("item", "text", id="1")
        assert child.tag == "item"
        assert child.text == "text"
        assert root.children == [child]

    def test_find_first_match(self):
        root = XmlElement("r")
        root.child("a", "1")
        second = root.child("a", "2")
        assert root.find("a").text == "1"
        assert root.find_all("a") == [root.find("a"), second]

    def test_find_missing_returns_none(self):
        assert XmlElement("r").find("x") is None

    def test_require_raises_on_missing(self):
        with pytest.raises(XmlSyntaxError):
            XmlElement("r").require("x")

    def test_child_text_default(self):
        root = XmlElement("r")
        root.child("a", "hello")
        assert root.child_text("a") == "hello"
        assert root.child_text("b", "dflt") == "dflt"

    def test_iter_depth_first(self):
        root = XmlElement("r")
        a = root.child("a")
        a.child("b")
        root.child("c")
        assert [e.tag for e in root.iter()] == ["r", "a", "b", "c"]

    def test_mixed_content_text(self):
        root = XmlElement("r", content=["pre", XmlElement("b"), "post"])
        assert root.text == "prepost"


class TestSerialize:
    def test_empty_element_self_closes(self):
        assert serialize(XmlElement("a"), declaration=False) == "<a/>"

    def test_declaration_prefix(self):
        assert serialize(XmlElement("a")).startswith("<?xml")

    def test_attributes_escaped(self):
        element = XmlElement("a", {"v": 'x"<&y'})
        text = serialize(element, declaration=False)
        assert "&quot;" in text and "&lt;" in text and "&amp;" in text

    def test_text_escaped(self):
        element = XmlElement("a", content=["1 < 2 & 3 > 0"])
        text = serialize(element, declaration=False)
        assert "&lt;" in text and "&amp;" in text and "&gt;" in text

    def test_invalid_tag_rejected(self):
        with pytest.raises(XmlSyntaxError):
            serialize(XmlElement("bad tag"), declaration=False)

    def test_invalid_attr_name_rejected(self):
        with pytest.raises(XmlSyntaxError):
            serialize(XmlElement("a", {"bad name": "v"}), declaration=False)

    def test_pretty_print_indents(self):
        root = XmlElement("a")
        root.child("b", "t")
        text = serialize(root, declaration=False, indent=2)
        assert "\n  <b>" in text


class TestParse:
    def test_simple_document(self):
        root = parse("<a><b>hi</b></a>")
        assert root.tag == "a"
        assert root.find("b").text == "hi"

    def test_attributes(self):
        root = parse('<a x="1" y="two"/>')
        assert root.attrs == {"x": "1", "y": "two"}

    def test_single_quoted_attributes(self):
        assert parse("<a x='1'/>").attrs == {"x": "1"}

    def test_entities_decoded(self):
        root = parse("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert root.text == "<&>\"'"

    def test_numeric_character_references(self):
        assert parse("<a>&#65;&#x42;</a>").text == "AB"

    def test_declaration_and_comments_skipped(self):
        root = parse('<?xml version="1.0"?><!-- note --><a><!-- inner -->x</a>')
        assert root.text == "x"

    def test_whitespace_around_root(self):
        assert parse("  <a/>  ").tag == "a"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "plain text",
            "<a>",
            "<a></b>",
            "<a><b></a></b>",
            "<a x=1/>",
            '<a x="1" x="2"/>',
            "<a>&unknown;</a>",
            "<a/><b/>",
            "<a><![CDATA[x]]></a>",
            '<a x="<"/>',
            "<a>&#xZZ;</a>",
            "<a>&#;</a>",
            "<a>&#-1;</a>",
            "<a>&#99999999;</a>",
            "<a>&#xFFFFFFFF;</a>",
            '<a x="&#xZZ;"/>',
            pytest.param("<a>" * 3000, id="unterminated-3000-deep"),
            '<ax="1"/>',
            "<a\f/>",
            "<\u00e9/>",
        ],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(XmlSyntaxError) as excinfo:
            parse(bad)
        assert excinfo.value.position >= 0

    def test_deep_nesting_parses(self):
        element = parse("<a>" * 3000 + "x" + "</a>" * 3000)
        for _ in range(2999):
            (element,) = element.content
        assert element.content == ["x"]

    def test_attributes_need_no_separating_whitespace(self):
        assert parse('<a x="1"y=\'2\'/>').attrs == {"x": "1", "y": "2"}

    def test_text_merges_across_comment(self):
        assert parse("<a>x<!-- c -->y<b/>z</a>").content == ["xy", XmlElement("b"), "z"]

    def test_error_carries_position(self):
        with pytest.raises(XmlSyntaxError) as excinfo:
            parse("<a><b></a></b>")
        assert excinfo.value.position >= 0

    def test_non_string_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse(b"<a/>")  # type: ignore[arg-type]


# -- property-based round trip -------------------------------------------------

_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.\-]{0,8}", fullmatch=True)
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc"), min_codepoint=32),
    min_size=1,
    max_size=20,
)


@st.composite
def _elements(draw, depth=0):
    tag = draw(_names)
    attrs = draw(st.dictionaries(_names, _texts, max_size=3))
    if depth >= 2:
        content = draw(st.lists(_texts, max_size=2))
    else:
        content = draw(
            st.lists(st.one_of(_texts, _elements(depth=depth + 1)), max_size=3)
        )
    # Adjacent text chunks merge on parse; normalize by pre-merging.
    merged: list = []
    for item in content:
        if isinstance(item, str) and merged and isinstance(merged[-1], str):
            merged[-1] += item
        else:
            merged.append(item)
    return XmlElement(tag, attrs, merged)


@given(_elements())
def test_parse_serialize_roundtrip(element):
    assert parse(serialize(element, declaration=False)) == element


@given(_elements())
def test_roundtrip_with_declaration(element):
    assert parse(serialize(element, declaration=True)) == element


@given(_elements())
def test_roundtrip_at_codec_indent(element):
    # The XML codecs send indent=2; the whitespace between elements comes
    # back as text chunks, so re-serializing reproduces the input.
    pretty = serialize(element, declaration=False, indent=2)
    assert serialize(parse(pretty), declaration=False) == pretty.rstrip("\n")


_MARKUP = ["<", ">", "/", "=", '"', "'", "&", ";", "#", "!--"]


@st.composite
def _mutated_documents(draw):
    text = serialize(draw(_elements()), indent=draw(st.sampled_from([0, 2])))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        token = "" if edit == "delete" else draw(st.sampled_from(_MARKUP))
        text = text[:at] + token + text[at + (edit != "insert"):]
    return text


@settings(max_examples=150)
@given(_mutated_documents())
def test_parse_returns_tree_or_raises_syntax_error(text):
    try:
        parse(text)
    except XmlSyntaxError as exc:
        assert exc.position >= 0
