"""One measured process of the benchmark (spawned fresh by ``run.py``).

Usage: ``python3 perfbench/rep.py SPEC.json OUT.json``.  The spec
names the workload, seed, rendered traces, worker count and how many
``run`` calls to make.  The process then

1. builds the system ``setups`` times (each timed: ``setup_s``),
2. ``passes`` times over, registers every query one at a time, closed
   loop (each call timed), into a copy of the freshly built system,
   with the ``runs`` calls of ``StreamGlobe.run`` (each timed) spread
   over the passes,
3. reads its peak RSS, and only then
4. optionally computes the reference outputs for the correctness check.

Every timed region starts after a full garbage collection, so garbage
left by the one before is not billed to it.  With ``scaled`` set, the
host-speed probe of :mod:`calibrate` runs before the first timed region
and after each one, and every sample carries its scale (the mean of its
two neighbouring probes over ``calibrate.REFERENCE_S``).  With
``traced`` set, the :mod:`tracer` wrappers are installed for steps 1-2
and the per-layer numbers are returned as well.  The program's own
``Recorder`` stays off in every mode.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import resource
import sys
from time import perf_counter
from typing import Any, Dict, List

from calibrate import REFERENCE_S, probe
from workloads import WORKLOADS, build_scenario, build_system


def encode_metrics(metrics) -> Dict[str, Any]:
    """``RunMetrics`` as JSON-safe data (floats round-trip exactly)."""
    out = dataclasses.asdict(metrics)
    out["link_bits"] = {f"{a}|{b}": bits for (a, b), bits in sorted(metrics.link_bits.items())}
    return out


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest waited-for
    child (the forked workers of process mode)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def timed_run(system, scenario, workers: int):
    gc.collect()
    start = perf_counter()
    metrics = system.run(scenario.duration, faults=scenario.faults, workers=workers)
    wall = perf_counter() - start
    simulator = system.last_simulator
    return metrics, {
        "wall_s": wall,
        "items": sum(metrics.items_generated.values()),
        "metrics": encode_metrics(metrics),
        "traffic_mbit": metrics.total_mbit(),
        "max_peer_cpu_pct": max(cpu for _, cpu in metrics.cpu_series(system.net)),
        "mode_used": getattr(simulator, "mode_used", "sequential"),
        "workers_used": getattr(simulator, "workers_used", 1),
        "exchange_items": getattr(simulator, "exchange_items", 0),
        "exchange_bytes": getattr(simulator, "exchange_bytes", 0),
        "exchange_batches": getattr(simulator, "exchange_batches", 0),
    }


def measure(spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[spec["workload"]]
    scenario = build_scenario(workload, spec["seed"], spec["tiny"])
    traces = spec["traces"]
    workers = spec["workers"]
    tracer = None
    if spec["traced"]:
        import tracer as tracing
        from repro.engine.columnar import columnar_stats

        columnar_before = columnar_stats()
        tracer = tracing.install()

    # Host-speed probes around every timed region (see calibrate.py).
    probes: List[float] = [probe()] if spec["scaled"] else []

    def scale_of_last() -> float:
        """Probe after a timed region; the region's host-speed scale."""
        if not probes:
            return 1.0
        probes.append(probe())
        return (probes[-2] + probes[-1]) / 2.0 / REFERENCE_S

    started = perf_counter()
    setup_s: List[float] = []
    setup_scale: List[float] = []
    for _ in range(spec["setups"]):
        gc.collect()
        start = perf_counter()
        pristine = build_system(scenario, traces)
        setup_s.append(perf_counter() - start)
        setup_scale.append(scale_of_last())

    register_ms: List[List[float]] = []
    register_scale: List[float] = []
    errors: List[str] = []
    runs: List[Dict[str, Any]] = []
    passes = spec["passes"]
    for index in range(passes):
        # A deep copy of the freshly built system registers exactly as a
        # new one would (the control plane keeps no process-wide caches)
        # without paying set-up again.
        system = copy.deepcopy(pristine)
        accepted = 0
        latencies: List[float] = []
        register_ms.append(latencies)
        gc.collect()
        for query in scenario.queries:
            start = perf_counter()
            try:
                result = system.register_query(query.name, query.text, query.subscriber_peer)
            except Exception as exc:  # a raising registration is a failed operation
                latencies.append((perf_counter() - start) * 1000.0)
                errors.append(f"{query.name}: {exc!r}")
                continue
            latencies.append((perf_counter() - start) * 1000.0)
            if result.accepted:
                accepted += 1
            else:
                errors.append(f"{query.name}: rejected")
        register_scale.append(scale_of_last())
        streams = len(system.deployment.streams)
        # The runs are spread over the passes.  A faulted run changes
        # the topology, so ``churn`` runs once per registered copy.
        while len(runs) < (index + 1) * spec["runs"] // passes:
            metrics, run = timed_run(system, scenario, workers)
            run["scale"] = scale_of_last()
            run["accepted"] = accepted
            runs.append(run)
    measured_s = perf_counter() - started

    out: Dict[str, Any] = {
        "setup_s": setup_s,
        "setup_scale": setup_scale,
        "register_ms": register_ms,
        "register_scale": register_scale,
        "probe_s": probes,
        "workers": workers,
        "registrations": sum(len(latencies) for latencies in register_ms),
        "errors": errors,
        "runs": runs,
        "measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    if workers > 1:
        # The shard certifier's cost on the registered deployment,
        # timed once outside the runs (the data plane re-certifies on
        # every topology change).
        from repro.analysis import certify_shards

        start = perf_counter()
        certify_shards(system.deployment, system.catalog)
        out["certify_shards_s"] = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_metrics(
            tracer, system, metrics, streams, columnar_before, columnar_stats()
        )
    if spec["check"]:
        start = perf_counter()
        out["check"] = reference(scenario, system, pristine)
        out["reference_s"] = perf_counter() - start
        if spec["corrupt_reference"]:  # self-test: the check must catch this
            delivered = out["check"]["reference"]["items_delivered"]
            delivered[min(delivered)] += 1
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, system, metrics, streams, before, after) -> Dict[str, float]:
    """The per-layer numbers of one traced, sequential process (one
    ``run``); the sharded executor's are added from the 2-worker one."""
    seconds, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    columnar = {key: after[key] - before[key] for key in after}
    bypassed = columnar["batches_bypassed_shape"] + columnar["batches_bypassed_irregular"]
    kernel = columnar["delivery_kernel_batches"]
    caches = system.cache_stats()
    return {
        "xmlkit.parse.s": seconds["xmlkit.parse"],
        "xmlkit.parse.items": counts["xmlkit.parse.items"],
        "workload.replay.s": seconds["workload.replay"],
        "workload.replay.items": calls["workload.replay"],
        "engine.encode.s": seconds["engine.encode"],
        "engine.encode.rows": columnar["rows_encoded"],
        "engine.columnar.bypass_ratio": _ratio(bypassed, bypassed + columnar["batches_encoded"]),
        "engine.operator.s": seconds["engine.operator"],
        "engine.operator.items_in": counts["engine.operator.items_in"],
        "engine.operator.items_out": counts["engine.operator.items_out"],
        "engine.accounting.s": seconds["engine.accounting"],
        "engine.accounting.bytes": counts["engine.accounting.bytes"],
        "engine.delivery.items": sum(metrics.items_delivered.values()),
        "engine.delivery.kernel_ratio": _ratio(
            kernel, kernel + columnar["delivery_kernel_fallbacks"]
        ),
        "engine.run.self_s": seconds["engine.run"],
        "wxquery.parse.s": seconds["wxquery.parse"],
        "wxquery.analyze.s": seconds["wxquery.analyze"],
        "properties.extract.s": seconds["properties.extract"],
        "sharing.register.s": seconds["sharing.register"],
        "sharing.plans_costed": system.planner.plans_costed,
        "sharing.streams": streams,
        "matching.match.calls": calls["matching.match"],
        "matching.match.s": seconds["matching.match"],
        "costmodel.plan_cost.calls": calls["costmodel.plan_cost"],
        "costmodel.plan_cost.s": seconds["costmodel.plan_cost"],
        "matching.memo.hit_rate": caches.get("match", {}).get("hit_rate", 0.0),
        "costmodel.rate.hit_rate": caches["rate"]["hit_rate"],
        "network.route.hit_rate": caches["route"]["hit_rate"],
        "network.route.invalidations": caches["route"]["invalidations"],
        "sharing.repair.s": seconds["sharing.repair"],
        "sharing.repair.calls": calls["sharing.repair"],
        "sharing.repair.queries": counts["sharing.repair.queries"],
        "sharing.deregister.s": seconds["sharing.deregister"],
        "faults.items_lost": metrics.items_lost,
    }


# ----------------------------------------------------------------------
# References for the correctness check (outside every timed region)
# ----------------------------------------------------------------------
def reference(scenario, system, pristine) -> Dict[str, Any]:
    """Reference ``RunMetrics`` for this seed, plus the names of
    subscriptions the check itself found wrong: the materializing
    oracle's for fault-free workloads, fault isolation under churn."""
    failed: List[str] = []
    if not scenario.faults:
        from repro.engine.executor import MaterializingSimulator

        generators = {name: s.generator_factory() for name, s in system.sources.items()}
        expected = MaterializingSimulator(
            system.net, system.deployment, generators, scenario.duration
        ).run()
    else:
        expected, failed = _churn_reference(scenario, pristine)
    return {"reference": encode_metrics(expected), "failed_queries": failed}


def _churn_reference(scenario, pristine):
    """Fault isolation, as ``repro.bench.churn`` checks it: every
    subscription no fault touched delivers byte-identical results with
    and without the faults, and no subscription stays lost."""
    from repro.xmlkit import serialize

    def execute(faults):
        system = copy.deepcopy(pristine)
        for query in scenario.queries:
            system.register_query(query.name, query.text, query.subscriber_peer)
        outputs: Dict[str, List[str]] = {query.name: [] for query in scenario.queries}
        # The queries each live repair tears down (the run looks the
        # repairer's bound method up once, so an instance attribute
        # observes every pass).
        repairer = system.plan_repairer()
        repair = repairer.repair
        torn_down: set = set()

        def observed(*args, **kwargs):
            report = repair(*args, **kwargs)
            torn_down.update(report.torn_down_queries)
            return report

        repairer.repair = observed
        metrics = system.run(
            scenario.duration,
            faults=faults,
            workers=1,
            capture=lambda name, item: outputs[name].append(serialize(item)),
        )
        lost = {name for name in outputs if name not in system.deployment.queries}
        return metrics, outputs, torn_down, lost

    _, clean, _, _ = execute(None)
    faulted, outputs, affected, lost = execute(scenario.faults)
    diverged = {
        name for name in clean if name not in affected and clean[name] != outputs[name]
    }
    return faulted, sorted(lost | diverged)


def main(argv: List[str]) -> int:
    with open(argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    out = measure(spec)
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
