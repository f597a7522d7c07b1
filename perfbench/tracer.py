"""Per-layer spans for the traced run, recorded from outside ``src/``.

:class:`Tracer` wraps public functions of each layer *where their
caller looks them up* — ``apply_operator`` is bound by name in
``engine/fanout.py`` and ``engine/pipeline.py``, so both module
attributes are patched, not ``engine.columnar`` alone.  Spans nest on
one stack; a layer's seconds are self time: span duration minus the
time its wrapped children covered.  Counts are taken at the same
boundaries.

Only the traced run installs it, in a sequential process; untraced
runs never import this module.  The sharded executor's numbers come
from its public exchange counters instead (calls inside its forked
workers would be invisible here).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Called after a wrapped call as ``hook(counts, args, result)``.
CountHook = Callable[[Dict[str, int], Tuple[Any, ...], Any], None]


class Tracer:
    """Self time, call counts and work counts per layer name."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Child-covered seconds of each open span (index 0: top level).
        self._stack: List[float] = [0.0]
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, layer: str, count: Optional[CountHook] = None) -> None:
        original = getattr(owner, attr)
        stack = self._stack
        seconds, calls, counts = self.seconds, self.calls, self.counts

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                seconds[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            setattr(*self._patches.pop())


def _parsed(counts, args, result) -> None:
    counts["xmlkit.parse.items"] += len(result)


def _operated(counts, args, result) -> None:
    counts["engine.operator.items_in"] += len(args[1])
    counts["engine.operator.items_out"] += len(result)


def _sized(counts, args, result) -> None:
    counts["engine.accounting.bytes"] += result


def _repaired(counts, args, result) -> None:
    counts["sharing.repair.queries"] += len(result.repaired_queries)


def install() -> Tracer:
    """Wrap every traced layer; returns the live tracer."""
    import repro.engine.executor
    import repro.engine.fanout
    import repro.engine.pipeline
    import repro.sharing.subscribe
    import repro.sharing.system
    import repro.workload.trace
    from repro.costmodel.model import CostModel
    from repro.sharing.deregister import Deregistrar
    from repro.sharing.repair import PlanRepairer
    from repro.sharing.strategies import StrategyRegistrar
    from repro.sharing.system import StreamGlobe

    tracer = Tracer()
    wrap = tracer.wrap
    # Ingest.
    wrap(repro.workload.trace, "parse_stream", "xmlkit.parse", _parsed)
    wrap(repro.workload.trace.TraceReplayGenerator, "next_item", "workload.replay")
    # Data plane.
    wrap(StreamGlobe, "run", "engine.run")
    wrap(repro.engine.executor, "encode_ingest", "engine.encode")
    wrap(repro.engine.pipeline, "encode_batch", "engine.encode")
    wrap(repro.engine.fanout, "apply_operator", "engine.operator", _operated)
    wrap(repro.engine.pipeline, "apply_operator", "engine.operator", _operated)
    wrap(repro.engine.executor, "batch_bytes", "engine.accounting", _sized)
    wrap(repro.engine.executor, "replay_metrics", "engine.accounting")
    # Control plane.
    wrap(repro.sharing.system, "parse_query", "wxquery.parse")
    wrap(repro.sharing.system, "analyze", "wxquery.analyze")
    wrap(repro.sharing.system, "extract_from_analysis", "properties.extract")
    wrap(StrategyRegistrar, "register", "sharing.register")
    wrap(repro.sharing.subscribe, "match_stream_properties", "matching.match")
    wrap(CostModel, "plan_cost", "costmodel.plan_cost")
    # Churn: plan repair, and the teardown it drives through Deregistrar.
    wrap(PlanRepairer, "repair", "sharing.repair", _repaired)
    for method in ("deregister", "_collect_garbage", "_apply_release"):
        wrap(Deregistrar, method, "sharing.deregister")
    return tracer
