"""Schema sniffing and struct-of-arrays shape compilation.

The streaming engine's hot path (see :mod:`repro.engine.columnar`)
encodes *regular* item batches — batches where every item has the exact
same nested element structure, like the photon workload — into one flat
column per leaf element.  This module owns the shape machinery:

* :func:`shape_of` sniffs an item's :class:`Shape` (the nested
  ``(tag, children)`` skeleton) and interns it in a bounded registry so
  identical batches share one compiled artifact set;
* each shape carries a code-generated **validator** (exact structural
  match via direct child indexing, no tag scans) and per-leaf
  **extractors** (``elements -> text column``);
* :meth:`ShapeNode.resolve` maps child-axis navigation steps to shape
  nodes (column lookups), and :meth:`ShapeNode.prune` mirrors
  :func:`repro.xmlkit.transform.prune_to_paths` on the shape itself —
  projection becomes a column-set change, no trees are built;
* :func:`escaped_text_len` reproduces the byte accounting of
  :meth:`Element.serialized_size` exactly, so column-computed sizes are
  integer-identical to the tree path's frozen sizes.

Everything here is deterministic: shapes are interned by value, columns
are numbered in document order, and code generation depends only on the
shape signature.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .element import Element, _escape_text

#: Nested shape signature: ``(tag, (child signatures...))``.
Signature = Tuple[str, tuple]

#: Sniffing limits: shapes beyond these bounds are never columnarized
#: (the tree path handles them; deep/wide documents don't batch well).
MAX_SHAPE_NODES = 64
MAX_SHAPE_DEPTH = 12

#: Registry cap: distinct shapes beyond this bypass encoding instead of
#: evicting (eviction would churn the per-shape compiled artifacts that
#: operators cache by node identity).
MAX_SHAPES = 256

_MISSING = object()


def escaped_text_len(text: str) -> int:
    """Byte length of ``text`` after XML escaping, UTF-8 encoded.

    Must match ``len(_escape_text(text).encode("utf-8"))`` — the ASCII
    fast path counts the three escaped characters instead of building
    the escaped string.
    """
    if text.isascii():
        return (
            len(text)
            + 4 * text.count("&")
            + 3 * text.count("<")
            + 3 * text.count(">")
        )
    return len(_escape_text(text).encode("utf-8"))


def leaf_size(text: Optional[str], tag_len: int) -> int:
    """Serialized size of a childless element, mirroring
    :meth:`Element.serialized_size`: ``<t/>`` when empty, else
    ``<t>...</t>`` with escaped UTF-8 text."""
    if text is None:
        return tag_len + 3
    return 2 * tag_len + 5 + escaped_text_len(text)


class ShapeNode:
    """One node of a (possibly pruned) shape tree.

    Leaves (no children) own a ``column`` id into the batch store's
    text columns; interior nodes never carry text (the element model
    forbids mixed content).  Per-node caches — navigation resolution,
    shape pruning, size constants, compiled decoders — live on the node
    so every batch with the same shape reuses them.
    """

    __slots__ = (
        "tag",
        "tag_len",
        "children",
        "column",
        "_resolve_cache",
        "_prune_cache",
        "_size_info",
        "_decoder",
    )

    def __init__(
        self, tag: str, children: Tuple["ShapeNode", ...], column: Optional[int]
    ) -> None:
        self.tag = tag
        self.tag_len = len(tag.encode("utf-8"))
        self.children = children
        self.column = column
        self._resolve_cache: Dict[Tuple[str, ...], Optional["ShapeNode"]] = {}
        self._prune_cache: Dict[tuple, Optional["ShapeNode"]] = {}
        self._size_info: Optional[Tuple[int, Tuple["ShapeNode", ...]]] = None
        self._decoder: Optional[Tuple[Callable, Tuple[int, ...]]] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.column is not None else "interior"
        return f"<ShapeNode {self.tag!r} {kind} children={len(self.children)}>"

    # ------------------------------------------------------------------
    # Navigation (the columnar analogue of Element.find)
    # ------------------------------------------------------------------
    def resolve(self, steps: Tuple[str, ...]) -> Optional["ShapeNode"]:
        """Follow child-axis steps, first matching child per step —
        exactly :meth:`Element.find` semantics, cached per step tuple."""
        cached = self._resolve_cache.get(steps, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        node: Optional[ShapeNode] = self
        for step in steps:
            assert node is not None
            for child in node.children:
                if child.tag == step:
                    node = child
                    break
            else:
                node = None
                break
        self._resolve_cache[steps] = node
        return node

    # ------------------------------------------------------------------
    # Projection (the columnar analogue of prune_to_paths)
    # ------------------------------------------------------------------
    def prune(self, keep: Tuple[Tuple[str, ...], ...]) -> Optional["ShapeNode"]:
        """Prune this shape to the retained paths.

        Mirrors :func:`repro.xmlkit.transform.prune_to_paths` node for
        node: a matched path keeps its whole subtree (the original
        nodes, columns included), interior nodes survive only when a
        descendant is retained, and ``None`` means the projected item
        is dropped entirely.  Pruning is structural, so one answer per
        (shape, keep) pair covers every row of every batch; results are
        cached and shared so downstream caches key off node identity.
        """
        cached = self._prune_cache.get(keep, _MISSING)
        if cached is not _MISSING:
            return cached  # type: ignore[return-value]
        if any(not steps for steps in keep):
            result: Optional[ShapeNode] = self  # empty path keeps the whole item
        else:
            result = _prune_shape(self, list(keep))
        self._prune_cache[keep] = result
        return result

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def size_info(self) -> Tuple[int, Tuple["ShapeNode", ...]]:
        """``(static_interior_bytes, leaf_nodes)`` for this shape.

        Interior nodes contribute a content-independent ``2·|tag|+5``
        (``<t>`` + ``</t>``); leaves contribute per row via their text
        column.  Together they reproduce ``Element.serialized_size``.
        """
        if self._size_info is None:
            static = 0
            leaves: List[ShapeNode] = []
            stack: List[ShapeNode] = [self]
            while stack:
                node = stack.pop()
                if node.column is not None:
                    leaves.append(node)
                else:
                    static += 2 * node.tag_len + 5
                    stack.extend(reversed(node.children))
            self._size_info = (static, tuple(leaves))
        return self._size_info

    # ------------------------------------------------------------------
    # Decoding (rebuild Element trees from columns)
    # ------------------------------------------------------------------
    def decoder(self) -> Tuple[Callable, Tuple[int, ...]]:
        """``(build, column_ids)``: ``build(i, *columns)`` rebuilds row
        ``i``'s element tree, where ``columns`` are the text columns of
        ``column_ids`` in order.  Compiled once per shape node."""
        if self._decoder is None:
            order: List[int] = []
            expr = _decoder_expr(self, order)
            source = f"def _build(i, {', '.join(f't{k}' for k in range(len(order)))}):\n"
            source += f"    return {expr}\n"
            namespace: Dict[str, object] = {"E": Element}
            exec(compile(source, "<shape-decoder>", "exec"), namespace)  # noqa: S102
            self._decoder = (namespace["_build"], tuple(order))  # type: ignore[assignment]
        return self._decoder


def _prune_shape(
    node: ShapeNode, keep: List[Tuple[str, ...]]
) -> Optional[ShapeNode]:
    children: List[ShapeNode] = []
    for child in node.children:
        descend: List[Tuple[str, ...]] = []
        keep_whole = False
        for steps in keep:
            if steps[0] != child.tag:
                continue
            if len(steps) == 1:
                keep_whole = True
                break
            descend.append(steps[1:])
        if keep_whole:
            children.append(child)  # whole subtree: share the original nodes
        elif descend:
            pruned = _prune_shape(child, descend)
            if pruned is not None:
                children.append(pruned)
    if not children:
        return None
    return ShapeNode(node.tag, tuple(children), None)


def _decoder_expr(node: ShapeNode, order: List[int]) -> str:
    if node.column is not None:
        index = len(order)
        order.append(node.column)
        return f"E({node.tag!r}, t{index}[i])"
    parts = ", ".join(_decoder_expr(child, order) for child in node.children)
    return f"E({node.tag!r}, None, ({parts},))"


# ----------------------------------------------------------------------
# Shape sniffing and the interned registry
# ----------------------------------------------------------------------
class Shape:
    """An interned shape: the node tree plus its compiled artifacts."""

    __slots__ = ("root", "signature", "validator", "column_paths", "_extractors")

    def __init__(
        self,
        root: ShapeNode,
        signature: Signature,
        validator: Callable[[Element], bool],
        column_paths: Tuple[Tuple[int, ...], ...],
    ) -> None:
        self.root = root
        self.signature = signature
        self.validator = validator
        #: Child-index chains from the item root, one per column id.
        self.column_paths = column_paths
        self._extractors: Dict[int, Callable[[Sequence[Element]], list]] = {}

    @property
    def column_count(self) -> int:
        return len(self.column_paths)

    def extractor(self, column: int) -> Callable[[Sequence[Element]], list]:
        """Compiled whole-column text extractor for one leaf."""
        extract = self._extractors.get(column)
        if extract is None:
            chain = "".join(f".children[{i}]" for i in self.column_paths[column])
            source = (
                "def _extract(elements):\n"
                f"    return [e{chain}.text for e in elements]\n"
            )
            namespace: Dict[str, object] = {}
            exec(compile(source, "<shape-extractor>", "exec"), namespace)  # noqa: S102
            extract = namespace["_extract"]  # type: ignore[assignment]
            self._extractors[column] = extract
        return extract


def _signature_of(element: Element) -> Optional[Signature]:
    """The nested ``(tag, children)`` signature, or ``None`` when the
    item exceeds the sniffing bounds."""
    budget = MAX_SHAPE_NODES

    def walk(node: Element, depth: int) -> Optional[Signature]:
        nonlocal budget
        budget -= 1
        if budget < 0 or depth > MAX_SHAPE_DEPTH:
            return None
        children: List[Signature] = []
        for child in node.children:
            child_sig = walk(child, depth + 1)
            if child_sig is None:
                return None
            children.append(child_sig)
        return (node.tag, tuple(children))

    return walk(element, 0)


def _build_nodes(
    signature: Signature, paths: List[Tuple[int, ...]], prefix: Tuple[int, ...]
) -> ShapeNode:
    tag, child_sigs = signature
    if not child_sigs:
        column = len(paths)
        paths.append(prefix)
        node = ShapeNode(tag, (), column)
        return node
    children = tuple(
        _build_nodes(child_sig, paths, prefix + (index,))
        for index, child_sig in enumerate(child_sigs)
    )
    return ShapeNode(tag, children, None)


def _compile_validator(signature: Signature) -> Callable[[Element], bool]:
    """Generate an exact structural matcher with direct child indexing.

    The generated function checks tags and child counts at every level
    and requires leaves to be childless — any mismatch means the item
    does not share the batch shape and the batch falls back to trees.
    """
    lines = ["def _validate(e0):"]
    counter = 0

    def emit(var: str, sig: Signature) -> None:
        nonlocal counter
        tag, child_sigs = sig
        lines.append(f"    if {var}.tag != {tag!r}: return False")
        if not child_sigs:
            lines.append(f"    if {var}.children: return False")
            return
        counter += 1
        kids = f"c{counter}"
        lines.append(f"    {kids} = {var}.children")
        lines.append(f"    if len({kids}) != {len(child_sigs)}: return False")
        for index, child_sig in enumerate(child_sigs):
            counter += 1
            child_var = f"e{counter}"
            lines.append(f"    {child_var} = {kids}[{index}]")
            emit(child_var, child_sig)

    emit("e0", signature)
    lines.append("    return True")
    namespace: Dict[str, object] = {}
    exec(compile("\n".join(lines), "<shape-validator>", "exec"), namespace)  # noqa: S102
    return namespace["_validate"]  # type: ignore[return-value]


_REGISTRY: Dict[Signature, Shape] = {}


def shape_of(element: Element) -> Optional[Shape]:
    """Sniff and intern ``element``'s shape.

    Returns ``None`` when the item is out of bounds or the registry is
    full — both mean "stay on the tree path".  Interning by signature
    guarantees that every batch of the same structure shares one
    :class:`Shape` (and therefore one set of compiled artifacts and one
    set of cache-keyed :class:`ShapeNode` identities).
    """
    signature = _signature_of(element)
    if signature is None:
        return None
    shape = _REGISTRY.get(signature)
    if shape is None:
        if len(_REGISTRY) >= MAX_SHAPES:
            return None
        paths: List[Tuple[int, ...]] = []
        root = _build_nodes(signature, paths, ())
        shape = Shape(root, signature, _compile_validator(signature), tuple(paths))
        _REGISTRY[signature] = shape
    return shape
