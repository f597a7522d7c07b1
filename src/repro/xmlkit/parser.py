"""A strict, dependency-free XML fragment parser.

The parser accepts the subset of XML that the stream substrate produces:
element-only content (text *or* children), entity references for the
five predefined entities, comments, and an optional XML declaration.
Attributes are parsed and rejected with a clear error, because the
paper's data model converts attributes to elements up front (Section 2).

The implementation is a token scanner.  One compiled pattern matches a
whole token of element content — a comment opener, a text-only leaf
``<t>text</t>``, an open, empty or close tag, or a text run — and an
explicit stack of open elements assembles the tree, so a stream item
costs a few pattern matches instead of a Python call per character.
Input that no token matches is malformed: :func:`_diagnose` re-reads it
the way the grammar does and reports the same message and line/column
via :class:`repro.xmlkit.errors.XmlParseError` as a character-level
reading would.

Every tree comes back frozen (:meth:`Element.freeze`), with sizes pinned
while it is built: a leaf whose token is already its canonical
serialization (ASCII tag and text, no ``&`` or ``>`` in the text) is
sized by the token's span, a parent by ``2·len(tag) + 5`` plus its
children, and anything else by ``freeze``.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from .element import Element
from .errors import XmlParseError

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME = "[^ \t\r\n<>&/'\"=]+"
_SPACE = "[ \t\r\n]*"

#: One token of element content; ``lastgroup`` names its kind.  The
#: comment opener comes first because ``!--`` would also scan as a name.
_TOKEN = re.compile(
    "(?P<comment><!--)"
    f"|<(?P<tag>{_NAME})>(?P<leaf>[^<]+)</(?P=tag)>"
    f"|<(?P<open>{_NAME}){_SPACE}>"
    f"|<(?P<empty>{_NAME}){_SPACE}/>"
    f"|</(?P<close>{_NAME}){_SPACE}>"
    "|(?P<text>[^<]+)(?=<)"
)
_NAME_AT = re.compile(_NAME)
_SPACE_AT = re.compile(_SPACE)
_CHAR_REF = re.compile("#(?:[xX]0*([0-9a-fA-F]{1,6})|0*([0-9]{1,7}))")

_new_element = Element.__new__


def _is_xml_char(code: int) -> bool:
    """Whether ``code`` is an XML 1.0 ``Char``."""
    return (
        0x20 <= code <= 0xD7FF
        or code in (0x9, 0xA, 0xD)
        or 0xE000 <= code <= 0xFFFD
        or 0x10000 <= code <= 0x10FFFF
    )


def _decode_text(raw: str, text: str, base: int) -> str:
    """Resolve entity and character references in text content.

    ``raw`` starts at offset ``base`` of ``text``; errors point at the
    offending reference's ``&``.
    """
    if "&" not in raw:
        return raw
    out: List[str] = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch != "&":
            out.append(ch)
            i += 1
            continue
        end = raw.find(";", i)
        if end < 0:
            raise XmlParseError("unterminated entity reference", text, base + i)
        name = raw[i + 1 : end]
        if name.startswith("#"):
            ref = _CHAR_REF.fullmatch(name)
            code = -1
            if ref is not None:
                code = int(ref.group(1), 16) if ref.group(1) else int(ref.group(2))
            if not _is_xml_char(code):
                raise XmlParseError(
                    f"character reference &{name}; does not name an XML character",
                    text,
                    base + i,
                )
            out.append(chr(code))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise XmlParseError(f"unknown entity &{name};", text, base + i)
        i = end + 1
    return "".join(out)


def _close(
    tag: str, children: List[Element], parts: List[Tuple[int, str]], text: str, end: int
) -> Element:
    """The element ``tag`` whose close tag ends at ``end``."""
    if parts:
        value = "".join(_decode_text(raw, text, base) for base, raw in parts)
        if not children:
            return Element(tag, value).freeze()
        if value.strip():
            raise XmlParseError(
                f"mixed content in <{tag}> is outside the supported data model", text, end
            )
    if not children:
        return Element(tag).freeze()
    node = _new_element(Element)
    node.tag = tag
    node.text = None
    node.children = children
    size = 2 * (len(tag) if tag.isascii() else len(tag.encode("utf-8"))) + 5
    for child in children:
        size += child._size  # type: ignore[operator]  # children are frozen
    node._size = size
    return node


def _diagnose(text: str, pos: int, tag: Optional[str]) -> XmlParseError:
    """The error for content at ``pos`` that no token matches, inside
    the open element ``tag`` (``None``: where an element must start)."""
    if tag is not None:
        if not text.startswith("<", pos):
            return XmlParseError(f"unexpected end of input inside <{tag}>", text, pos)
        if text.startswith("</", pos):
            name = _NAME_AT.match(text, pos + 2)
            if name is None:
                return XmlParseError("expected a name", text, pos + 2)
            if name.group() != tag:
                return XmlParseError(
                    f"mismatched close tag </{name.group()}> for <{tag}>", text, name.end()
                )
            return XmlParseError("expected '>'", text, _SPACE_AT.match(text, name.end()).end())
    name = _NAME_AT.match(text, pos + 1)
    if name is None:
        return XmlParseError("expected a name", text, pos + 1)
    at = _SPACE_AT.match(text, name.end()).end()
    if text[at : at + 1] not in (">", "/"):
        return XmlParseError(
            f"attributes are not supported (element <{name.group()}>); "
            "convert attributes to child elements",
            text,
            at,
        )
    return XmlParseError("expected '>'", text, at)


def _parse_element(text: str, pos: int) -> Tuple[Element, int]:
    """Parse the element whose ``<`` is at ``pos``.

    Returns the frozen element and the offset just past it.
    """
    match = _TOKEN.match
    stack: List[Tuple[str, List[Element], List[Tuple[int, str]]]] = []
    tag: Optional[str] = None  # innermost open element
    children: List[Element] = []
    parts: List[Tuple[int, str]] = []  # its text runs, as (offset, raw)
    while True:
        token = match(text, pos)
        if token is None:
            raise _diagnose(text, pos, tag)
        kind = token.lastgroup
        end = token.end()
        if kind == "leaf":
            name = token.group("tag")
            raw = token.group("leaf")
            if "&" in raw or ">" in raw or not (raw.isascii() and name.isascii()):
                node = Element(name, _decode_text(raw, text, token.start("leaf"))).freeze()
            else:
                node = _new_element(Element)
                node.tag = name
                node.text = raw
                node.children = []
                node._size = end - pos  # the token is the canonical serialization
        elif kind == "open":
            if tag is not None:
                stack.append((tag, children, parts))
            tag = token.group("open")
            children = []
            parts = []
            pos = end
            continue
        elif kind == "close":
            name = token.group("close")
            if tag is None:
                raise XmlParseError("expected a name", text, pos + 1)
            if name != tag:
                raise XmlParseError(
                    f"mismatched close tag </{name}> for <{tag}>", text, token.end("close")
                )
            node = _close(tag, children, parts, text, end)
            if stack:
                tag, children, parts = stack.pop()
            else:
                tag = None
        elif kind == "empty":
            node = Element(token.group("empty")).freeze()
        elif kind == "text":
            parts.append((pos, token.group("text")))
            pos = end
            continue
        else:
            pos = _comment_end(text, pos)
            continue
        if tag is None:
            return node, end
        children.append(node)
        pos = end


def _comment_end(text: str, pos: int) -> int:
    """The offset past the comment whose ``<!--`` is at ``pos``: the
    first ``-->`` at or after its ``<`` ends it (so ``<!-->`` is whole)."""
    end = text.find("-->", pos)
    if end < 0:
        raise XmlParseError("unterminated comment", text, pos)
    return end + 3


def _skip_misc(text: str, pos: int) -> int:
    """Skip whitespace and comments between markup."""
    while True:
        pos = _SPACE_AT.match(text, pos).end()
        if not text.startswith("<!--", pos):
            return pos
        pos = _comment_end(text, pos)


def _skip_prolog(text: str) -> int:
    """Skip an optional XML declaration and any comments/whitespace."""
    pos = _SPACE_AT.match(text).end()
    if text.startswith("<?xml", pos):
        end = text.find("?>", pos)
        if end < 0:
            raise XmlParseError("unterminated XML declaration", text, pos)
        pos = end + 2
    return _skip_misc(text, pos)


def parse(text: str) -> Element:
    """Parse a single XML document/fragment into a frozen :class:`Element` tree.

    Raises
    ------
    XmlParseError
        If the input is not well-formed, uses attributes, or contains
        content after the root element.
    """
    pos = _skip_prolog(text)
    if not text.startswith("<", pos):
        raise XmlParseError("expected a root element", text, pos)
    root, pos = _parse_element(text, pos)
    pos = _skip_misc(text, pos)
    if pos < len(text):
        raise XmlParseError("content after the root element", text, pos)
    return root


def parse_next(text: str, pos: int = 0) -> Tuple[Optional[Element], int]:
    """Parse the next item of a stream at or after offset ``pos``.

    Whitespace and comments before the item are skipped, and at offset 0
    an XML declaration too.  Returns the frozen item and the offset
    just past it, or ``(None, len(text))`` when only whitespace and
    comments remain.  Resuming at the returned offset walks the items
    :func:`parse_stream` returns, one call each.
    """
    pos = _skip_prolog(text) if pos == 0 else _skip_misc(text, pos)
    if pos >= len(text):
        return None, pos
    if text[pos] != "<":
        raise XmlParseError("expected an element", text, pos)
    return _parse_element(text, pos)


def parse_stream(text: str) -> List[Element]:
    """Parse a concatenation of fragments (one per stream item).

    Data streams on the wire are a sequence of serialized items with no
    enclosing root; this helper splits and parses them all.
    """
    items: List[Element] = []
    item, pos = parse_next(text)
    while item is not None:
        items.append(item)
        item, pos = parse_next(text, pos)
    return items
