"""Reference XML parser for differential tests of :mod:`repro.xmlkit.parser`.

This is the character-level recursive-descent parser that
``repro.xmlkit.parser`` replaced with a token scanner, kept verbatim
apart from its imports.  Its known defect stays: malformed character
references raise ``ValueError`` (or are accepted when they name a
surrogate or another non-XML character) instead of ``XmlParseError``.

Original description follows.

A strict, dependency-free XML fragment parser.

The parser accepts the subset of XML that the stream substrate produces:
element-only content (text *or* children), entity references for the
five predefined entities, comments, and an optional XML declaration.
Attributes are parsed and rejected with a clear error, because the
paper's data model converts attributes to elements up front (Section 2).

The implementation is a single-pass recursive-descent scanner over the
input string; it reports precise line/column positions on error via
:class:`repro.xmlkit.errors.XmlParseError`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.xmlkit.element import Element
from repro.xmlkit.errors import XmlParseError

_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_FORBIDDEN = set(" \t\r\n<>&/'\"=")


class _Scanner:
    """Cursor over the input text with error reporting helpers."""

    __slots__ = ("text", "pos")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str, pos: Optional[int] = None) -> XmlParseError:
        return XmlParseError(message, self.text, self.pos if pos is None else pos)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def skip_whitespace(self) -> None:
        text = self.text
        pos = self.pos
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        self.pos = pos

    def skip_prolog(self) -> None:
        """Skip an optional XML declaration and any comments/whitespace."""
        self.skip_whitespace()
        if self.startswith("<?xml"):
            end = self.text.find("?>", self.pos)
            if end < 0:
                raise self.error("unterminated XML declaration")
            self.pos = end + 2
        self.skip_misc()

    def skip_misc(self) -> None:
        """Skip whitespace and comments between markup."""
        while True:
            self.skip_whitespace()
            if self.startswith("<!--"):
                end = self.text.find("-->", self.pos)
                if end < 0:
                    raise self.error("unterminated comment")
                self.pos = end + 3
            else:
                return

    def read_name(self) -> str:
        start = self.pos
        text = self.text
        pos = self.pos
        while pos < len(text) and text[pos] not in _NAME_FORBIDDEN:
            pos += 1
        if pos == start:
            raise self.error("expected a name")
        self.pos = pos
        return text[start:pos]

    def expect(self, token: str) -> None:
        if not self.startswith(token):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)


def _decode_text(raw: str, scanner: _Scanner, base: int) -> str:
    """Resolve entity and character references in text content."""
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
            raise scanner.error("unterminated entity reference", base + i)
        name = raw[i + 1 : end]
        if name.startswith("#x") or name.startswith("#X"):
            out.append(chr(int(name[2:], 16)))
        elif name.startswith("#"):
            out.append(chr(int(name[1:])))
        elif name in _ENTITIES:
            out.append(_ENTITIES[name])
        else:
            raise scanner.error(f"unknown entity &{name};", base + i)
        i = end + 1
    return "".join(out)


def _parse_element(scanner: _Scanner) -> Element:
    scanner.expect("<")
    tag = scanner.read_name()
    scanner.skip_whitespace()
    if scanner.peek() not in (">", "/"):
        raise scanner.error(
            f"attributes are not supported (element <{tag}>); "
            "convert attributes to child elements"
        )
    if scanner.startswith("/>"):
        scanner.pos += 2
        return Element(tag)
    scanner.expect(">")

    children: List[Element] = []
    text_parts: List[Tuple[int, str]] = []
    while True:
        if scanner.at_end():
            raise scanner.error(f"unexpected end of input inside <{tag}>")
        if scanner.startswith("<!--"):
            end = scanner.text.find("-->", scanner.pos)
            if end < 0:
                raise scanner.error("unterminated comment")
            scanner.pos = end + 3
            continue
        if scanner.startswith("</"):
            scanner.pos += 2
            close = scanner.read_name()
            if close != tag:
                raise scanner.error(f"mismatched close tag </{close}> for <{tag}>")
            scanner.skip_whitespace()
            scanner.expect(">")
            break
        if scanner.peek() == "<":
            children.append(_parse_element(scanner))
            continue
        start = scanner.pos
        next_markup = scanner.text.find("<", scanner.pos)
        if next_markup < 0:
            raise scanner.error(f"unexpected end of input inside <{tag}>")
        text_parts.append((start, scanner.text[start:next_markup]))
        scanner.pos = next_markup

    text = "".join(_decode_text(raw, scanner, base) for base, raw in text_parts)
    if children:
        if text.strip():
            raise scanner.error(
                f"mixed content in <{tag}> is outside the supported data model"
            )
        return Element(tag, children=children)
    if text_parts:
        return Element(tag, text=text)
    return Element(tag)


def parse(text: str) -> Element:
    """Parse a single XML document/fragment into an :class:`Element` tree.

    Raises
    ------
    XmlParseError
        If the input is not well-formed, uses attributes, or contains
        content after the root element.
    """
    scanner = _Scanner(text)
    scanner.skip_prolog()
    if scanner.at_end() or scanner.peek() != "<":
        raise scanner.error("expected a root element")
    root = _parse_element(scanner)
    scanner.skip_misc()
    if not scanner.at_end():
        raise scanner.error("content after the root element")
    return root


def parse_stream(text: str) -> List[Element]:
    """Parse a concatenation of fragments (one per stream item).

    Data streams on the wire are a sequence of serialized items with no
    enclosing root; this helper splits and parses them all.
    """
    scanner = _Scanner(text)
    scanner.skip_prolog()
    items: List[Element] = []
    while not scanner.at_end():
        if scanner.peek() != "<":
            raise scanner.error("expected an element")
        items.append(_parse_element(scanner))
        scanner.skip_misc()
    return items
