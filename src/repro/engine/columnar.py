"""Columnar batch evaluation for the hot operator path.

A :class:`ColumnBatch` is a struct-of-arrays view over a batch of
*regular* stream items: every item shares the exact same nested element
structure (the photon workload, partial-aggregate wire items, ...), so
the batch is represented as the tuple of source elements plus lazily
materialized flat columns — one text/number column per leaf element —
and a *selection vector* of surviving row indices.  Operators that know
how to work on columns (:meth:`Operator.process_columns`) then run as
array passes:

* selection refines the row vector with fused predicate comparisons
  (:func:`repro.predicates.vectorized.filter_rows`);
* projection swaps the batch's *virtual shape* for a pruned one — a
  pure metadata change, no trees are built or copied;
* window/aggregate operators gather the position/value columns and run
  the exact same sequential window folds as the tree path;
* delivery counting (:class:`DeliveryKernel`) exploits that a
  restructured result count is structurally invariant across rows of
  one shape, replacing per-item restructuring with one calibration
  build per shape.

Trees are rebuilt (:meth:`ColumnBatch.decode`) only at boundaries that
genuinely need them: operators without kernels, result capture,
multi-input combination, and irregular batches never leave the tree
path at all (the schema-sniffing encoder falls back per batch).

**Byte identity.** Every number the executor accounts — produced
counts, produced bytes, per-stage input counts, delivery inputs and
results, exchange items/bytes — is computed from the columns to be
integer-identical to the tree path (``serialized_bytes`` reproduces the
frozen-size formula; the count kernel reproduces per-item
``len(build(item))``), so ``RunMetrics`` and the obs epoch series are
byte-identical under ``REPRO_COLUMNAR=on|off`` (DESIGN.md §14).

The switch: ``REPRO_COLUMNAR=auto|on|off`` — ``auto`` (default)
encodes source batches of at least :data:`AUTO_MIN_ROWS` items;
``on`` always attempts encoding (identity tests); ``off`` never does.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..wxquery import DirectElement, EnclosedExpr, Expr, IfExpr, SequenceExpr
from ..xmlkit import Element
from ..xmlkit.columns import Shape, ShapeNode, leaf_size, shape_of
from .restructure import Restructurer

ENV_VAR = "REPRO_COLUMNAR"

#: ``auto`` mode only encodes batches at least this large: tiny batches
#: (the materializing oracle pushes single items) don't amortize the
#: validation/extraction overhead.
AUTO_MIN_ROWS = 8

#: A stream batch anywhere in the engine: plain trees or a column view.
Batch = Union[Sequence[Element], "ColumnBatch"]

#: Always-on plain-int counters (same idiom as the PR 4/5 cache
#: counters): bumped on the encode/decode/bypass paths, surfaced as
#: ``columnar.*`` recorder counters on traced runs and via
#: :func:`columnar_stats`.
STATS: Dict[str, int] = {
    "batches_encoded": 0,
    "rows_encoded": 0,
    "batches_bypassed_shape": 0,
    "batches_bypassed_irregular": 0,
    "batches_decoded": 0,
    "rows_decoded": 0,
    "delivery_kernel_batches": 0,
    "delivery_kernel_fallbacks": 0,
}


def columnar_stats() -> Dict[str, int]:
    """Copy of the process-wide columnar counters."""
    return dict(STATS)


def columnar_mode() -> str:
    """Resolve the ``REPRO_COLUMNAR`` switch to ``auto``/``on``/``off``."""
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in ("", "auto"):
        return "auto"
    if value in ("on", "1", "true", "always"):
        return "on"
    if value in ("off", "0", "false", "never"):
        return "off"
    raise ValueError(
        f"{ENV_VAR} must be auto, on or off (got {value!r})"
    )


# ----------------------------------------------------------------------
# The batch store and the column view
# ----------------------------------------------------------------------
def _parse_number(text: Optional[str]) -> Optional[float]:
    """Mirror :meth:`Element.number`: missing text or a non-float parse
    both yield ``None``."""
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        return None


class _BatchStore:
    """Shared column storage for every view derived from one batch.

    Columns are materialized lazily (a select kernel touching two
    leaves never extracts the other seven) and indexed by *base* row
    position, so derived views with filtered row vectors share them.
    """

    __slots__ = ("shape", "elements", "_texts", "_numbers", "_sizes")

    def __init__(self, shape: Shape, elements: Tuple[Element, ...]) -> None:
        self.shape = shape
        self.elements = elements
        self._texts: Dict[int, List[Optional[str]]] = {}
        self._numbers: Dict[int, List[Optional[float]]] = {}
        self._sizes: Dict[int, List[int]] = {}

    def text_col(self, column: int) -> List[Optional[str]]:
        col = self._texts.get(column)
        if col is None:
            col = self.shape.extractor(column)(self.elements)
            self._texts[column] = col
        return col

    def number_col(self, column: int) -> List[Optional[float]]:
        col = self._numbers.get(column)
        if col is None:
            col = [_parse_number(text) for text in self.text_col(column)]
            self._numbers[column] = col
        return col

    def size_col(self, leaf: ShapeNode) -> List[int]:
        column = leaf.column
        assert column is not None
        col = self._sizes.get(column)
        if col is None:
            tag_len = leaf.tag_len
            col = [leaf_size(text, tag_len) for text in self.text_col(column)]
            self._sizes[column] = col
        return col


def _rebuild_batch(elements: Tuple[Element, ...]) -> Batch:
    """Unpickle hook: re-encode the decoded rows on the receiving side.

    The wire payload is exactly the Element batch the tree path would
    have shipped; re-sniffing on arrival keeps the pickle format free
    of compiled artifacts.  A full registry on the receiver simply
    leaves the batch on the tree path.
    """
    return encode_batch(list(elements))


class ColumnBatch:
    """A column view: shared store + row selection + virtual shape.

    ``rows`` holds *base* indices into the store (a ``range`` for a
    fresh batch, a filtered list after selection); ``vshape`` is the
    (possibly pruned) shape describing what each surviving row looks
    like.  Decoding materializes exactly the Element trees the tree
    path would have produced at the same pipeline point.
    """

    __slots__ = ("store", "rows", "vshape", "_decoded", "_bytes")

    def __init__(
        self, store: _BatchStore, rows: Sequence[int], vshape: ShapeNode
    ) -> None:
        self.store = store
        self.rows = rows
        self.vshape = vshape
        self._decoded: Optional[Tuple[Element, ...]] = None
        self._bytes: Optional[int] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ColumnBatch rows={len(self.rows)} shape={self.vshape.tag!r} "
            f"columns={self.store.shape.column_count}>"
        )

    # ------------------------------------------------------------------
    # Derivation (kernel outputs)
    # ------------------------------------------------------------------
    def derive(self, rows: Sequence[int]) -> "ColumnBatch":
        """Same shape, refined row vector (selection output)."""
        return ColumnBatch(self.store, rows, self.vshape)

    def project(self, vshape: ShapeNode) -> "ColumnBatch":
        """Same rows, pruned virtual shape (projection output)."""
        if vshape is self.vshape:
            return self
        return ColumnBatch(self.store, self.rows, vshape)

    # ------------------------------------------------------------------
    # Column access (indexed by base row id)
    # ------------------------------------------------------------------
    def number_column(self, steps: Tuple[str, ...]) -> Optional[List[Optional[float]]]:
        """Numeric column for a child-axis path, or ``None`` when the
        path misses the shape or lands on an interior node — both mean
        every row evaluates to ``None``, exactly like
        ``Element.number`` on the tree path."""
        node = self.vshape.resolve(steps)
        if node is None or node.column is None:
            return None
        return self.store.number_col(node.column)

    def text_column(self, steps: Tuple[str, ...]) -> Optional[List[Optional[str]]]:
        """Text column for a child-axis path (``None`` = all rows None)."""
        node = self.vshape.resolve(steps)
        if node is None or node.column is None:
            return None
        return self.store.text_col(node.column)

    # ------------------------------------------------------------------
    # Tree boundaries
    # ------------------------------------------------------------------
    def decode(self) -> Tuple[Element, ...]:
        """Materialize the Element trees of the surviving rows.

        An unprojected view returns the original (frozen-at-ingest)
        elements; a projected view rebuilds exactly what
        ``prune_to_paths`` would have produced per item, frozen so
        downstream accounting sees pinned sizes.  Cached — repeated
        boundaries (several tree-only stages) decode once.
        """
        decoded = self._decoded
        if decoded is None:
            store = self.store
            if self.vshape is store.shape.root:
                elements = store.elements
                decoded = tuple(elements[i] for i in self.rows)
            else:
                build, columns = self.vshape.decoder()
                cols = [store.text_col(c) for c in columns]
                decoded = tuple(build(i, *cols) for i in self.rows)
                for element in decoded:
                    element.freeze()
            STATS["batches_decoded"] += 1
            STATS["rows_decoded"] += len(decoded)
            self._decoded = decoded
        return decoded

    def decode_row(self, base_index: int) -> Element:
        """Materialize a single row (kernel calibration)."""
        store = self.store
        if self.vshape is store.shape.root:
            return store.elements[base_index]
        build, columns = self.vshape.decoder()
        cols = [store.text_col(c) for c in columns]
        element: Element = build(base_index, *cols)
        return element.freeze()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def serialized_bytes(self) -> int:
        """Total serialized size of the surviving rows.

        Integer-identical to summing ``Element.serialized_size()`` over
        :meth:`decode`: unprojected rows answer from their frozen
        sizes; projected rows combine the shape's static interior bytes
        with the per-leaf size columns (same formula, never an
        estimate).
        """
        total = self._bytes
        if total is None:
            store = self.store
            rows = self.rows
            if self.vshape is store.shape.root:
                elements = store.elements
                total = sum(elements[i].serialized_size() for i in rows)
            else:
                static, leaves = self.vshape.size_info()
                total = static * len(rows)
                for leaf in leaves:
                    size_col = store.size_col(leaf)
                    total += sum(size_col[i] for i in rows)
            self._bytes = total
        return total

    # ------------------------------------------------------------------
    # Pickling (sharded cut-edge exchange)
    # ------------------------------------------------------------------
    def __reduce__(self) -> tuple:
        return (_rebuild_batch, (self.decode(),))


def apply_operator(operator, batch: Batch) -> Batch:
    """Evaluate one operator stage on a tree or column batch.

    Column batches go to the operator's kernel when it has one;
    operators without kernels see decoded trees (per item, in order),
    so every operator observes the exact input sequence the tree path
    would have fed it.  Shared by the prefix trie and ``Pipeline``.
    """
    if isinstance(batch, ColumnBatch):
        if operator.columnar:
            return operator.process_columns(batch)
        process = operator.process
        return [produced for item in batch.decode() for produced in process(item)]
    process = operator.process
    return [produced for item in batch for produced in process(item)]


def batch_bytes(batch: Batch) -> int:
    """Serialized bytes of a batch, column- or tree-represented."""
    if isinstance(batch, ColumnBatch):
        return batch.serialized_bytes()
    return sum(item.serialized_size() for item in batch)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode_batch(items: Sequence[Element]) -> Batch:
    """Encode a batch, or return it unchanged when it cannot be.

    Fallback predicate (DESIGN.md §14): the first item's shape must be
    within the sniffing bounds and registry capacity, and *every* item
    must validate against it — one irregular document sends the whole
    batch down the tree path (never a partial split, so batch order and
    per-stage input counts are trivially preserved).
    """
    if not items:
        return items
    shape = shape_of(items[0])
    if shape is None:
        STATS["batches_bypassed_shape"] += 1
        return items
    validate = shape.validator
    for item in items:
        if not validate(item):
            STATS["batches_bypassed_irregular"] += 1
            return items
    STATS["batches_encoded"] += 1
    STATS["rows_encoded"] += len(items)
    store = _BatchStore(shape, tuple(items))
    return ColumnBatch(store, range(len(items)), shape.root)


def encode_ingest(batch: List[Element], mode: str) -> Batch:
    """Source-ingest encoding under the resolved mode."""
    if mode == "off" or not batch:
        return batch
    if mode != "on" and len(batch) < AUTO_MIN_ROWS:
        return batch
    return encode_batch(batch)


# ----------------------------------------------------------------------
# The delivery count kernel
# ----------------------------------------------------------------------
def _expr_has_if(expr: Expr) -> bool:
    if isinstance(expr, IfExpr):
        return True
    if isinstance(expr, DirectElement):
        return any(_expr_has_if(piece) for piece in expr.content)
    if isinstance(expr, EnclosedExpr):
        return _expr_has_if(expr.body)
    if isinstance(expr, SequenceExpr):
        return any(_expr_has_if(piece) for piece in expr.items)
    return False


class DeliveryKernel:
    """Count a subscription's restructured results without building them.

    The executor only needs delivery *result counts* when no capture
    hook is installed (``_SingleDelivery``), and for an if-free return
    clause the count per item is structurally invariant across items of
    one shape: path outputs count matched nodes (structure), variable
    outputs count bindings (structure), constructors emit exactly one
    element.  So the kernel builds the result for *one* calibration row
    per shape and multiplies.

    Aggregate wire batches add a per-row emptiness test: an ``<agg>``
    item whose finalized value is ``None`` (empty window under
    avg/min/max) binds nothing and yields zero results — reproduced
    here from the count/value columns with the exact
    ``wire_to_partial``/``final`` rules.

    :meth:`count` returns ``None`` whenever it will not vouch for
    exactness (conditional return clause, unparsable wire fields) — the
    caller then decodes and takes the per-item tree path.
    """

    __slots__ = ("restructurer", "countable", "_const")

    def __init__(self, restructurer: Restructurer) -> None:
        self.restructurer = restructurer
        self.countable = not _expr_has_if(restructurer.analyzed.flwr.return_expr)
        #: Calibrated results-per-emitting-row, keyed by virtual shape.
        self._const: Dict[ShapeNode, int] = {}

    def count(self, batch: ColumnBatch) -> Optional[int]:
        if not self.countable:
            STATS["delivery_kernel_fallbacks"] += 1
            return None
        if not len(batch):
            return 0
        restructurer = self.restructurer
        # Mirror Restructurer._bind's mode split exactly.
        if batch.vshape.tag == "agg" and restructurer._aggregations:
            result = self._count_aggregate(batch)
        else:
            result = self._calibrated(batch, batch.rows[0]) * len(batch)
        if result is None:
            STATS["delivery_kernel_fallbacks"] += 1
        else:
            STATS["delivery_kernel_batches"] += 1
        return result

    def _calibrated(self, batch: ColumnBatch, base_row: int) -> int:
        const = self._const.get(batch.vshape)
        if const is None:
            const = len(self.restructurer.build(batch.decode_row(base_row)))
            self._const[batch.vshape] = const
        return const

    def _count_aggregate(self, batch: ColumnBatch) -> Optional[int]:
        """Rows whose finalized aggregate is non-``None``, times the
        calibrated per-row result count."""
        aggregation = self.restructurer._aggregations[0]
        function = aggregation.aggregate or "avg"
        rows = batch.rows
        if function in ("count", "sum"):
            # count -> float(count), sum -> total: never None.
            return self._calibrated(batch, rows[0]) * len(rows)
        count_col = batch.text_column(("count",))
        if count_col is None:
            return 0  # no <count> child: every partial parses to count=0
        try:
            counts = [int(text) if text else 0 for text in count_col]
        except ValueError:
            return None  # malformed wire item: let the tree path raise
        if function == "avg":
            emitting = [i for i in rows if counts[i] > 0]
        else:  # min / max: also need the carried value element
            value_col = batch.text_column((function,))
            if value_col is None:
                return 0
            emitting = [
                i for i in rows if counts[i] > 0 and value_col[i] is not None
            ]
        if not emitting:
            return 0
        return self._calibrated(batch, emitting[0]) * len(emitting)
