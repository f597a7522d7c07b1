"""Unit tests for the strict XML parser."""

import pytest

from repro.xmlkit import Element, XmlParseError, element, parse, parse_stream, serialize


class TestWellFormed:
    def test_empty_element(self):
        assert parse("<a/>") == Element("a")

    def test_text_element(self):
        assert parse("<a>hello</a>") == Element("a", text="hello")

    def test_nested(self):
        assert parse("<a><b/><c>1</c></a>") == element(
            "a", Element("b"), Element("c", text="1")
        )

    def test_whitespace_between_children_ignored(self):
        assert parse("<a>\n  <b/>\n  <c/>\n</a>") == element("a", Element("b"), Element("c"))

    def test_open_close_without_content_is_empty(self):
        assert parse("<a></a>") == Element("a")

    def test_xml_declaration_skipped(self):
        assert parse('<?xml version="1.0"?><a/>') == Element("a")

    def test_comments_skipped(self):
        assert parse("<!-- hi --><a><!-- inner --><b/></a>") == element("a", Element("b"))

    def test_entities_decoded(self):
        assert parse("<a>x &lt; y &amp; z &gt; w</a>").text == "x < y & z > w"

    def test_char_references(self):
        assert parse("<a>&#65;&#x42;</a>").text == "AB"

    def test_roundtrip_photons(self, photon_sample):
        for item in photon_sample[:25]:
            assert parse(serialize(item)) == item


#: Inputs every parser of this package must reject with XmlParseError.
MALFORMED = [
    "",
    "just text",
    "<a>",
    "<a><b></a>",
    "<a></b>",
    "<a/><b/>",          # content after root
    "<a attr='1'/>",     # attributes unsupported
    "<a>&unknown;</a>",
    "<a>&broken</a>",
    "<a>text<b/></a>",   # mixed content
    "<!-- unterminated <a/>",
    "<?xml version='1.0' <a/>",
    "<a>&#x;</a>",       # character references naming no XML character
    "<a>&#xZZ;</a>",
    "<a>&#;</a>",
    "<a>&#99999999;</a>",
    "<a>&#-5;</a>",
    "<a>&#xD800;</a>",
]

#: The malformed character references above; each is at offset 3.
BAD_CHAR_REFS = [text for text in MALFORMED if text.startswith("<a>&#")]


class TestMalformed:
    @pytest.mark.parametrize("text", MALFORMED)
    def test_rejected(self, text):
        with pytest.raises(XmlParseError):
            parse(text)

    @pytest.mark.parametrize("text", BAD_CHAR_REFS)
    def test_bad_character_reference_points_at_it(self, text):
        with pytest.raises(XmlParseError) as caught:
            parse(text)
        assert caught.value.position == 3
        assert (caught.value.line, caught.value.column) == (1, 4)

    def test_error_has_position(self):
        try:
            parse("<a>\n<b></c>\n</a>")
        except XmlParseError as err:
            assert err.line == 2
        else:
            pytest.fail("expected XmlParseError")


class TestParseStream:
    def test_multiple_items(self):
        items = parse_stream("<a/><b>1</b><c/>")
        assert [i.tag for i in items] == ["a", "b", "c"]

    def test_whitespace_separated(self):
        assert len(parse_stream("<a/>\n\n<b/>\n")) == 2

    def test_empty_input(self):
        assert parse_stream("   ") == []

    def test_bad_item_rejected(self):
        with pytest.raises(XmlParseError):
            parse_stream("<a/>text<b/>")
