"""Stream trace recording and replay.

The reproduction substitutes synthetic photons for the paper's RASS
data (DESIGN.md).  Anyone holding *real* stream data can feed it in
through this module instead: a trace is a plain text file of
concatenated serialized items (the same wire format the engine
transmits), replayed through the :class:`TraceReplayGenerator`, which
implements the executor's ``ItemGenerator`` protocol.

The virtual clock during replay comes from a reference element inside
the items themselves (``det_time`` by default) — rebased so the first
item arrives at time zero — or, when no reference exists, from a fixed
configured frequency.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

from ..xmlkit import Element, Path, parse_next, parse_stream, serialize


class TraceError(Exception):
    """Raised for empty or inconsistent traces."""


def record_trace(items: Iterable[Element]) -> str:
    """Serialize items into trace text (one concatenated stream)."""
    return "\n".join(serialize(item) for item in items) + "\n"


def save_trace(items: Iterable[Element], path: str) -> int:
    """Write a trace file; returns the number of items written."""
    materialized = list(items)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(record_trace(materialized))
    return len(materialized)


def load_trace(path: str) -> List[Element]:
    """Parse a trace file back into items."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_stream(handle.read())


class TraceReplayGenerator:
    """Replay recorded items on a virtual clock.

    Parameters
    ----------
    items:
        The trace to replay, in order.  Each item is handed out as a
        copy, so the caller's trees are never shared with the engine.
    reference:
        Path (relative to the item root) of the timing element; its
        values, rebased to start at zero, drive the clock.  When
        ``None`` or missing on an item, ``frequency`` paces the clock.
    frequency:
        Fallback pacing in items per second.
    loop:
        Replay from the start after the last item (the reference clock
        keeps increasing monotonically across loops).

    A replay built by :meth:`from_file` parses lazily: it keeps the
    file's text and an offset and parses one item per
    :meth:`next_item`, handing out the freshly parsed, frozen tree
    itself.  A malformed item therefore raises
    :class:`~repro.xmlkit.XmlParseError` when the replay reaches it,
    after every item before it was replayed — as exhaustion raises
    :class:`TraceError` only when the replay runs past the end.  All
    state is plain data, so a replay can be deep-copied or pickled
    mid-stream and the copy continues identically.
    """

    def __init__(
        self,
        items: Sequence[Element],
        reference: Optional[Path] = Path("det_time"),
        frequency: float = 100.0,
        loop: bool = False,
    ) -> None:
        self._start(list(items), reference, frequency, loop)

    @classmethod
    def from_file(cls, path: str, **kwargs) -> "TraceReplayGenerator":
        """Replay a trace file (see :func:`save_trace`), parsing lazily."""
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        replay = cls.__new__(cls)
        replay._start(text, **kwargs)
        return replay

    def _start(
        self,
        source: Union[str, List[Element]],
        reference: Optional[Path] = Path("det_time"),
        frequency: float = 100.0,
        loop: bool = False,
    ) -> None:
        if frequency <= 0:
            raise TraceError("fallback frequency must be positive")
        #: Trace text (replayed by parsing) or item list (by copying).
        self._source = source
        self._offset = 0        # text offset or list index of the next item
        self._reference = reference
        self._frequency = frequency
        self._loop = loop
        self._clock = 0.0
        self._epoch = 0.0       # clock offset of the current loop pass
        self._stamp: Optional[float] = None  # reference time of the last item
        # The first item is read ahead: it sets the clock base.
        self._pending = self._pull()
        if self._pending is None:
            raise TraceError("cannot replay an empty trace")
        self._base = self._item_time(self._pending)

    # ------------------------------------------------------------------
    # ItemGenerator protocol
    # ------------------------------------------------------------------
    @property
    def clock(self) -> float:
        return self._clock

    def next_item(self) -> Element:
        item = self._pending
        self._pending = None
        if item is None:
            item = self._pull()
        if item is None:
            if not self._loop:
                raise TraceError("trace exhausted (construct with loop=True to cycle)")
            # The pass spans from the first item to one fallback period
            # past the last (every pass ends on the same item).
            last, base = self._stamp, self._base
            if last is not None and base is not None and last >= base:
                self._epoch += (last - base) + 1.0 / self._frequency
            else:
                self._epoch = self._clock + 1.0 / self._frequency
            self._offset = 0
            item = self._pull()
            assert item is not None  # the first item exists
        stamp = self._stamp = self._item_time(item)
        if stamp is not None and self._base is not None:
            self._clock = self._epoch + (stamp - self._base)
        else:
            self._clock += 1.0 / self._frequency
        return item

    def _pull(self) -> Optional[Element]:
        """The next item of the current pass, or ``None`` at its end."""
        source = self._source
        if isinstance(source, str):
            item, self._offset = parse_next(source, self._offset)
            return item
        if self._offset >= len(source):
            return None
        self._offset += 1
        return source[self._offset - 1].copy()

    def _item_time(self, item: Element) -> Optional[float]:
        if self._reference is None:
            return None
        return self._reference.number(item)
