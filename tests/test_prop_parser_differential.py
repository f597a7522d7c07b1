"""Differential tests: the token scanner against the reference parser.

``tests/xml_reference_parser.py`` is the character-level parser the
token scanner replaced.  On every input both must agree: equal trees
(and, from the scanner, frozen nodes whose pinned size is the canonical
byte length), or the same ``XmlParseError`` message and position.  The
one intended difference is the character-reference fix: a reference
that names no XML character is an ``XmlParseError`` at its ``&#``,
where the reference parser raised ``ValueError`` or accepted it.
"""

import string

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.xmlkit import Element, XmlParseError, parse, parse_stream, pretty, serialize
from tests import xml_reference_parser as reference
from tests.test_xmlkit_parser import MALFORMED


def _outcome(parser, text):
    try:
        return parser(text), None
    except XmlParseError as err:
        return None, err
    except ValueError as err:  # the reference's character-reference defect
        return None, err


def _check_sizes(tree):
    for node in tree.iter():
        assert node.frozen
        assert node._size == len(serialize(node).encode("utf-8"))


def assert_agree(new_parser, reference_parser, text):
    got, error = _outcome(new_parser, text)
    expected, expected_error = _outcome(reference_parser, text)
    if error is None:
        assert expected_error is None, (text, expected_error)
        assert got == expected
        for tree in got if isinstance(got, list) else [got]:
            _check_sizes(tree)
        return
    if "does not name an XML character" in str(error):
        assert text.startswith("&#", error.position), (text, error)
        return
    assert isinstance(expected_error, XmlParseError), (text, error, expected)
    assert str(error) == str(expected_error)
    assert error.position == expected_error.position


def assert_both_agree(text):
    assert_agree(parse, reference.parse, text)
    assert_agree(parse_stream, reference.parse_stream, text)


TAGS = st.text(alphabet=string.ascii_lowercase + "_-.:?!é", min_size=1, max_size=6)
TEXTS = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("ab &<>;#'\"\t\n\r=/")),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=12,
)


def trees():
    return st.recursive(
        st.builds(Element, TAGS, st.one_of(st.none(), TEXTS)),
        lambda children: st.builds(
            lambda tag, kids: Element(tag, children=kids),
            TAGS,
            st.lists(children, min_size=1, max_size=4),
        ),
        max_leaves=10,
    )


#: Pieces spliced into serialized trees to garble them.
PIECES = st.sampled_from(
    [
        "<", ">", "/", "</", "/>", "<!--", "-->", "<!-->", "&", ";", "&amp;",
        "&#65;", "&#x41;", "&#x;", "&#0;", "&#xD800;", "&# 65;", "&quot;",
        " ", "\n", "=", "a", "é", "<?xml", "?>", "<a>", "</a>", "<a/>", "x='1'",
    ]
)


@st.composite
def garbled(draw):
    """A serialized (or pretty-printed) tree, then a few random edits."""
    tree = draw(trees())
    text = draw(st.sampled_from([serialize, pretty]))(tree)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 4)))
        text = text[:start] + draw(st.one_of(st.just(""), PIECES)) + text[stop:]
    return text


class TestDifferential:
    @given(trees())
    @settings(max_examples=300, deadline=None)
    def test_serialized_trees(self, tree):
        assert_both_agree(serialize(tree))
        assert_both_agree(pretty(tree))

    @given(st.lists(trees(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_serialized_streams(self, items):
        text = "\n".join(serialize(item) for item in items)
        assert_agree(parse_stream, reference.parse_stream, text)

    @given(garbled())
    @settings(max_examples=400, deadline=None)
    @example("<a></a>")
    @example("<!--><a/>")
    @example("<!---><a/><!--->")
    @example("<a><!--></a>")
    @example("<a>x<!-- c -->y</a>")
    @example("<a> <b/> <!-- c --> </a >")
    @example("<a>&#X41;&#x0041;&#00065;</a>")
    @example("<a\n/>")
    @example("<a></a  b>")
    @example("<a/ >")
    @example("<a>x>y</a>")
    @example("<b><é>x</é><a>é</a></b>")
    def test_garbled(self, text):
        assert_both_agree(text)

    @given(st.text(alphabet="<>/!-?&#;= ax\n", max_size=24))
    @settings(max_examples=1000, deadline=None)
    def test_markup_soup(self, text):
        assert_both_agree(text)

    def test_empty_open_close_is_an_empty_element(self):
        tree = parse("<a></a>")
        assert tree == Element("a") and tree.text is None
        assert tree._size == len("<a/>")

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_corpus_positions(self, text):
        assert_both_agree(text)
