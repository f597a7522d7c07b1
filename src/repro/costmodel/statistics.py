"""Statistics catalog feeding the cost model (Section 3.2).

"Cost function inputs like average frequencies of data stream items,
average sizes and occurrences of elements, and selectivities of
operators are obtained from statistics and selectivity estimations."

:class:`StreamStatistics` holds, per registered input stream:

* the average arrival frequency ``freq(s)`` (items per virtual second);
* the average serialized item size ``size(s)`` in bytes;
* per element path: average occurrence ``occ(n_s)`` per item, average
  serialized subtree size ``size(n_s)``, and — for numeric leaves — the
  observed value range (the uniform-distribution input to selectivity
  estimation) and the average increment between successive items (the
  time-based-window frequency estimator's input).

Statistics are *measured from a sample* of the actual generator output
(:meth:`StreamStatistics.from_sample`), which keeps the estimator and
the executed system consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..predicates import ZERO, PredicateGraph
from ..xmlkit import Element, Path, prune_to_paths

#: Selectivity floor: even a predicate selecting "nothing" in the sample
#: is estimated above zero, matching classic catalog practice.
MIN_SELECTIVITY = 1e-4


#: Buckets per equi-width histogram on numeric leaves.
HISTOGRAM_BUCKETS = 24


@dataclass
class PathStatistics:
    """Catalog entry of one element path within a stream item."""

    occurrence: float = 0.0
    avg_size: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    avg_increment: Optional[float] = None
    #: Largest sampled item-to-item increment — the flow analyzer's
    #: upper bound on how fast a time-based window reference can
    #: advance per arriving item.
    max_increment: Optional[float] = None
    #: ``True`` when the sampled values never decreased item-to-item —
    #: the static qualification for a time-based window's reference
    #: element (streams must be sorted by it, Section 2).
    nondecreasing: Optional[bool] = None
    #: Equi-width histogram over ``[minimum, maximum]`` — captures the
    #: value skew (hot spots) the uniform model misses.
    histogram: Optional[List[int]] = None

    @property
    def spread(self) -> Optional[float]:
        if self.minimum is None or self.maximum is None:
            return None
        return self.maximum - self.minimum

    def mass_fraction(self, low: Optional[float], high: Optional[float]) -> float:
        """Estimated fraction of values inside ``[low, high]``.

        Uses the histogram when available (linear interpolation within
        boundary buckets), falling back to the uniform model.
        """
        if self.minimum is None or self.maximum is None:
            return 1.0
        effective_low = self.minimum if low is None else max(low, self.minimum)
        effective_high = self.maximum if high is None else min(high, self.maximum)
        if effective_high <= effective_low:
            if effective_high == effective_low and self.minimum == self.maximum:
                return 1.0  # constant-valued element
            return 0.0
        spread = self.maximum - self.minimum
        if spread <= 0:
            return 1.0
        if not self.histogram:
            return (effective_high - effective_low) / spread
        total = sum(self.histogram)
        if total == 0:
            return (effective_high - effective_low) / spread
        width = spread / len(self.histogram)
        mass = 0.0
        for index, count in enumerate(self.histogram):
            bucket_low = self.minimum + index * width
            bucket_high = bucket_low + width
            overlap = min(effective_high, bucket_high) - max(effective_low, bucket_low)
            if overlap <= 0:
                continue
            mass += count * min(1.0, overlap / width)
        return min(1.0, mass / total)


@dataclass
class StreamStatistics:
    """Measured statistics of one registered input stream."""

    stream: str
    item_path: Path
    frequency: float
    avg_item_size: float
    paths: Dict[Path, PathStatistics] = field(default_factory=dict)
    #: Retained sample for measured projection sizes.
    _sample: List[Element] = field(default_factory=list, repr=False)
    #: Memoization: plan search re-estimates the same projections and
    #: selections thousands of times during registration.
    _projection_cache: Dict[frozenset, float] = field(default_factory=dict, repr=False)
    _selectivity_cache: Dict[tuple, float] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sample(
        cls,
        stream: str,
        item_path: Path,
        items: Sequence[Element],
        frequency: float,
    ) -> "StreamStatistics":
        """Measure statistics from ``items`` (stream items, e.g. photons).

        ``item_path`` is the absolute path to the items (including the
        stream root tag, e.g. ``photons/photon``); all catalog paths are
        stored in absolute form to align with predicate-graph labels.
        """
        if not items:
            raise ValueError(f"stream {stream!r}: cannot build statistics from nothing")
        if frequency <= 0:
            raise ValueError(f"stream {stream!r}: frequency must be positive")
        total_size = 0
        per_path_sizes: Dict[Path, List[int]] = {}
        per_path_counts: Dict[Path, int] = {}
        per_path_values: Dict[Path, List[float]] = {}
        interned: Dict[Tuple[str, ...], Path] = {}
        for item in items:
            total_size += item.serialized_size()
            _walk(item, item_path, interned, per_path_sizes, per_path_counts, per_path_values)

        stats = cls(
            stream=stream,
            item_path=item_path,
            frequency=frequency,
            avg_item_size=total_size / len(items),
            _sample=list(items),
        )
        count = len(items)
        for path, sizes in per_path_sizes.items():
            entry = PathStatistics(
                occurrence=per_path_counts[path] / count,
                avg_size=sum(sizes) / len(sizes),
            )
            values = per_path_values.get(path)
            if values:
                entry.minimum = min(values)
                entry.maximum = max(values)
                if len(values) > 1:
                    increments = [b - a for a, b in zip(values, values[1:])]
                    entry.avg_increment = sum(increments) / len(increments)
                    entry.max_increment = max(increments)
                    entry.nondecreasing = all(step >= 0 for step in increments)
                entry.histogram = _build_histogram(
                    values, entry.minimum, entry.maximum
                )
            stats.paths[path] = entry
        return stats

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def path_stats(self, path: Path) -> PathStatistics:
        entry = self.paths.get(path)
        if entry is None:
            raise KeyError(f"stream {self.stream!r} has no statistics for {path}")
        return entry

    def has_path(self, path: Path) -> bool:
        return path in self.paths

    def value_range(self, path: Path) -> Optional[Tuple[float, float]]:
        entry = self.paths.get(path)
        if entry is None or entry.minimum is None or entry.maximum is None:
            return None
        return entry.minimum, entry.maximum

    def avg_increment(self, path: Path) -> Optional[float]:
        entry = self.paths.get(path)
        return None if entry is None else entry.avg_increment

    def max_increment(self, path: Path) -> Optional[float]:
        """Largest sampled item-to-item increment of ``path``."""
        entry = self.paths.get(path)
        return None if entry is None else entry.max_increment

    def is_nondecreasing(self, path: Path) -> Optional[bool]:
        """Whether the sampled values of ``path`` never decreased."""
        entry = self.paths.get(path)
        return None if entry is None else entry.nondecreasing

    # ------------------------------------------------------------------
    # Derived estimates
    # ------------------------------------------------------------------
    def projected_size(self, output_paths: Iterable[Path]) -> float:
        """Measured average size of items projected to ``output_paths``.

        Paths are absolute; they are rebased onto the item before the
        sample items are pruned.  This replaces the paper's subtraction
        formula with a measurement over the same sample — the two agree
        for disjoint projection elements (covered by a unit test).
        """
        key = frozenset(output_paths)
        cached = self._projection_cache.get(key)
        if cached is not None:
            return cached
        relative = [self._rebase(path) for path in key]
        total = 0
        for item in self._sample:
            pruned = prune_to_paths(item, relative)
            if pruned is not None:
                total += pruned.serialized_size()
        result = total / len(self._sample)
        self._projection_cache[key] = result
        return result

    def paper_projected_size(self, output_paths: Iterable[Path]) -> float:
        """The paper's formula: ``size(s) − Σ_{n∉Π} occ(n)·size(n)``.

        The subtraction runs over the *maximal* dropped subtrees (top-
        most paths not retained and not an ancestor of a retained path),
        so nested elements are not double-counted.
        """
        outputs = list(output_paths)
        dropped = 0.0
        for path, entry in self.paths.items():
            if self._retained(path, outputs):
                continue
            if not self._parent_kept(path, outputs):
                continue  # an ancestor is already dropped wholesale
            dropped += entry.occurrence * entry.avg_size
        return self.avg_item_size - dropped

    def _parent_kept(self, path: Path, outputs: List[Path]) -> bool:
        """The direct parent of ``path`` survives the projection."""
        parent = path.parent
        if len(parent.steps) <= len(self.item_path.steps):
            return True  # parent is the item root itself
        return self._retained(parent, outputs)

    def _retained(self, path: Path, outputs: List[Path]) -> bool:
        """Retained = inside an output subtree or an ancestor of one."""
        return self._retained_strict(path, outputs) or self._is_ancestor_of_retained(
            path, outputs
        )

    @staticmethod
    def _retained_strict(path: Path, outputs: List[Path]) -> bool:
        return any(path.starts_with(out) for out in outputs)

    @staticmethod
    def _is_ancestor_of_retained(path: Path, outputs: List[Path]) -> bool:
        return any(out.starts_with(path) for out in outputs)

    def selectivity(self, graph: PredicateGraph) -> float:
        """Estimated fraction of items satisfying ``graph``.

        Histogram-and-independence model: each constrained variable
        contributes the histogram mass of its derived interval (falling
        back to the uniform overlap when no histogram exists);
        variable-to-variable constraints contribute a fixed factor of ½
        (no correlation statistics).
        """
        if graph.is_empty():
            return 1.0
        key = tuple(sorted(
            (str(s), str(t), b.value, b.strict) for (s, t), b in graph.edges.items()
        ))
        cached = self._selectivity_cache.get(key)
        if cached is not None:
            return cached
        selectivity = 1.0
        closure = graph.closure()
        for node in graph.variables():
            lower, upper = None, None
            up = closure.get((node, ZERO))
            lo = closure.get((ZERO, node))
            if up is not None:
                upper = float(up.value)
            if lo is not None:
                lower = -float(lo.value)
            if lower is None and upper is None:
                continue
            value_range = self.value_range(node)
            if value_range is None:
                selectivity *= 0.5  # no statistics: textbook default
                continue
            low, high = value_range
            if high <= low:
                continue  # constant-valued element: no discrimination
            entry = self.paths[node]
            selectivity *= entry.mass_fraction(lower, upper)
        for (source, target), _ in graph.edges.items():
            if source != ZERO and target != ZERO:
                selectivity *= 0.5
        result = max(MIN_SELECTIVITY, min(1.0, selectivity))
        self._selectivity_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def _rebase(self, path: Path) -> Path:
        if path.starts_with(self.item_path):
            return path.relative_to(self.item_path)
        raise KeyError(
            f"path {path} is not under item path {self.item_path} "
            f"of stream {self.stream!r}"
        )


class StatisticsCatalog:
    """Per-stream statistics registry used by the optimizer."""

    def __init__(self) -> None:
        self._streams: Dict[str, StreamStatistics] = {}

    def register(self, stats: StreamStatistics) -> None:
        if stats.stream in self._streams:
            raise ValueError(f"statistics for stream {stats.stream!r} already registered")
        self._streams[stats.stream] = stats

    def for_stream(self, stream: str) -> StreamStatistics:
        try:
            return self._streams[stream]
        except KeyError:
            raise KeyError(f"no statistics registered for stream {stream!r}") from None

    def __contains__(self, stream: str) -> bool:
        return stream in self._streams

    def streams(self) -> List[str]:
        return list(self._streams)


def _build_histogram(
    values: List[float], minimum: float, maximum: float
) -> Optional[List[int]]:
    """Equi-width histogram of the sample, or ``None`` when degenerate."""
    if maximum <= minimum or len(values) < 2:
        return None
    width = (maximum - minimum) / HISTOGRAM_BUCKETS
    buckets = [0] * HISTOGRAM_BUCKETS
    for value in values:
        index = min(HISTOGRAM_BUCKETS - 1, int((value - minimum) / width))
        buckets[index] += 1
    return buckets


def _walk(
    item: Element,
    item_path: Path,
    interned: Dict[Tuple[str, ...], Path],
    sizes: Dict[Path, List[int]],
    counts: Dict[Path, int],
    values: Dict[Path, List[float]],
) -> None:
    """Collect per-path size/occurrence/value samples from one item.

    ``interned`` maps step tuples to the :class:`Path` built for them, so
    a sample validates each distinct path once rather than per node.
    """
    stack: List[Tuple[Element, Tuple[str, ...]]] = [
        (child, item_path.steps + (child.tag,)) for child in item.children
    ]
    while stack:
        node, steps = stack.pop()
        path = interned.get(steps)
        if path is None:
            path = interned[steps] = Path(steps)
        sizes.setdefault(path, []).append(node.serialized_size())
        counts[path] = counts.get(path, 0) + 1
        if node.text is not None:
            try:
                values.setdefault(path, []).append(float(node.text))
            except ValueError:
                pass
        stack.extend((child, steps + (child.tag,)) for child in node.children)
