"""The repository benchmark: StreamGlobe measured end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced runs; ``--trace
1`` prints the per-layer metrics of a traced run, with the tracing
overhead and the 2-worker speedup of the sharded executor as context.
Workloads and metrics are described in ``BENCHMARK.json`` and
``perfbench/design.json``.

The program is driven only through its public API (``StreamGlobe``,
``repro.workload.trace`` and the scenario builders), from sources in
``src/``.  Sources are rendered from the seed into trace files before
anything is timed.  Every measured repetition runs in a fresh process,
one after another, with the program's environment switches cleared and
``workers=`` passed explicitly.  Timing metrics are scaled to a
reference host speed by a probe timed around every sample
(``calibrate.py``).  Outputs are checked against a reference computed
at the same seed outside the timed regions.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter
from typing import Any, Dict, List, Optional

from calibrate import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: Switches the program reads from the environment; cleared in every
#: measured process so the benchmark sets what it measures.
PINNED_ENV = ("REPRO_PARALLEL", "REPRO_PARALLEL_MODE", "REPRO_COLUMNAR", "REPRO_OBS_TRACE")

#: No new process starts after this much wall time, and each process
#: is killed if it would end past the deadline.
START_LIMIT_S = 110.0
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# ----------------------------------------------------------------------
# Measured processes
# ----------------------------------------------------------------------
class Runner:
    """Spawns the measured processes of one benchmark run, one at a time."""

    def __init__(self, work: str, base: Dict[str, Any]) -> None:
        self.work = work
        self.base = base
        self.started = perf_counter()
        self.spawned = 0
        self.env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
        self.env["PYTHONPATH"] = SRC
        self.env["PYTHONHASHSEED"] = "0"

    def elapsed(self) -> float:
        return perf_counter() - self.started

    def rep(self, **overrides: Any) -> Dict[str, Any]:
        self.spawned += 1
        spec = dict(self.base, **overrides)
        spec_path = os.path.join(self.work, f"spec{self.spawned}.json")
        out_path = os.path.join(self.work, f"out{self.spawned}.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        timeout = DEADLINE_S - self.elapsed()
        if timeout <= 0:
            raise BenchError("out of time before the next measured process")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"), spec_path, out_path],
            cwd=ROOT, env=self.env, stdout=sys.stderr, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"measured process exceeded {timeout:.0f}s") from None
        finally:
            if proc.poll() is None:  # kills its process-mode workers too
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if code != 0:
            raise BenchError(f"measured process exited with code {code}")
        with open(out_path, encoding="utf-8") as handle:
            return json.load(handle)

    def collect(
        self, budget: float, min_reps: int, check: bool, **spec: Any
    ) -> List[Dict[str, Any]]:
        """Measured processes, one after another, until their wall time
        fills ``budget`` seconds (at least ``min_reps``).  The first one
        also computes the reference when ``check`` is set; that time is
        not counted."""
        reps: List[Dict[str, Any]] = []
        spent = 0.0
        while True:
            start = perf_counter()
            rep = self.rep(check=check and not reps, **spec)
            spent += perf_counter() - start - rep.get("reference_s", 0.0)
            reps.append(rep)
            # Another process if it would end nearer the budget than not.
            if len(reps) >= min_reps and (
                spent + spent / len(reps) / 2 > budget or self.elapsed() > START_LIMIT_S
            ):
                return reps


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def verdict(reference: Dict[str, Any], reps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """``correct``/``attempted``/``failed`` over every measured process.

    Operations are query registrations (failed if raised or rejected)
    and accepted subscriptions served by each ``run`` (failed if lost or
    if their delivered count differs from the reference's).  A run whose
    traffic, work or loss counters differ from the reference fails every
    subscription it served.  A run on ``workers=2`` that did not use
    worker processes is invalid.
    """
    expected = reference["reference"]
    checked_bad = set(reference["failed_queries"])
    attempted = failed = 0
    notes: List[str] = []
    for rep in reps:
        attempted += rep["registrations"]
        failed += len(rep["errors"])
        notes.extend(rep["errors"][:3])
        for run in rep["runs"]:
            attempted += run["accepted"]
            got = run["metrics"]
            names = set(got["items_delivered"]) | set(expected["items_delivered"])
            bad = checked_bad | {
                name for name in names
                if got["items_delivered"].get(name) != expected["items_delivered"].get(name)
            }
            mismatched = [k for k in expected if k != "items_delivered" and got[k] != expected[k]]
            if mismatched:
                notes.append(f"run differs from the reference in {', '.join(mismatched)}")
                failed += run["accepted"]
            else:
                failed += min(len(bad), run["accepted"])
            if rep["workers"] > 1 and run["mode_used"] != "process":
                notes.append(f"invalid: sharded run used mode {run['mode_used']!r}")
    valid = not any(note.startswith("invalid") for note in notes)
    return {
        "correct": valid and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "notes": sorted(set(notes))[:10],
    }


# ----------------------------------------------------------------------
# The two kinds of run
# ----------------------------------------------------------------------
def end_to_end(runner: Runner, workload, seconds: float):
    """Untraced sequential processes; every timing metric is the median
    of its samples, each scaled to the reference host speed by the
    probes around it (``calibrate.py``).  The unscaled medians go to the
    stamp."""
    reps = runner.collect(
        seconds, workload.processes, check=True, workers=1, scaled=True,
        setups=workload.setups, passes=workload.passes, runs=workload.runs,
        traced=False,
    )
    runs = [run for rep in reps for run in rep["runs"]]
    passes = [
        (latencies, scale)
        for rep in reps
        for latencies, scale in zip(rep["register_ms"], rep["register_scale"])
    ]
    setups = [
        (seconds, scale)
        for rep in reps
        for seconds, scale in zip(rep["setup_s"], rep["setup_scale"])
    ]

    def timings(unit_scale: bool) -> Dict[str, float]:
        def scale(value: float) -> float:
            return 1.0 if unit_scale else value

        return {
            "items_per_s": statistics.median(
                run["items"] / run["wall_s"] * scale(run["scale"]) for run in runs
            ),
            "register_ms.p50": statistics.median(
                percentile(p, 50.0) / scale(s) for p, s in passes
            ),
            "register_ms.tail": statistics.median(
                percentile(p, workload.tail_percentile) / scale(s) for p, s in passes
            ),
            "setup_s": statistics.median(value / scale(s) for value, s in setups),
        }

    metrics = {
        **timings(unit_scale=False),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "traffic_mbit": runs[0]["traffic_mbit"],
        "max_peer_cpu_pct": runs[0]["max_peer_cpu_pct"],
    }
    extra = {
        "unscaled": timings(unit_scale=True),
        "probe_s": {
            "median": statistics.median(p for rep in reps for p in rep["probe_s"]),
            "reference": REFERENCE_S,
        },
        "register_passes": len(passes),
        "register_samples": sum(len(p) for p, _ in passes),
        "tail_percentile": workload.tail_percentile,
        "items_lost": runs[0]["metrics"]["items_lost"],
        "queries_repaired": runs[0]["metrics"]["queries_repaired"],
        "queries_lost": runs[0]["metrics"]["queries_lost"],
    }
    return reps, metrics, extra


def per_layer(runner: Runner, workload, seconds: float):
    """Untraced and traced sequential processes (each one ``run``), then
    one untraced process on the sharded executor (``workers=2``) for the
    speedup and the exchange counters."""
    single = {"setups": 1, "passes": 1, "runs": 1, "scaled": False}
    untraced = runner.collect(seconds * 0.35, 1, check=True, workers=1, traced=False, **single)
    traced = runner.collect(seconds * 0.35, 1, check=False, workers=1, traced=True, **single)
    sharded = runner.collect(0.0, 1, check=False, workers=2, traced=False, **single)

    def rate(reps):
        return statistics.median(
            run["items"] / run["wall_s"] for rep in reps for run in rep["runs"]
        )

    layers = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    plain, slow, wide = rate(untraced), rate(traced), rate(sharded)
    exchange = sharded[0]["runs"][0]
    layers.update({
        "engine.parallel.exchange_items": exchange["exchange_items"],
        "engine.parallel.exchange_bytes": exchange["exchange_bytes"],
        "engine.parallel.exchange_batches": exchange["exchange_batches"],
        "engine.parallel.cells": exchange["workers_used"],
        "analysis.shards.s": sharded[0]["certify_shards_s"],
        "trace.items_per_s.untraced": plain,
        "trace.items_per_s.traced": slow,
        "trace.overhead_ratio": plain / slow,
        "context.items_per_s.2w": wide,
        "context.speedup.2w": wide / plain,
    })
    extra = {"traced_reps": len(traced), "untraced_reps": len(untraced)}
    return untraced + traced + sharded, layers, extra


# ----------------------------------------------------------------------
# Stamps
# ----------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit() -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument(
        "--corrupt-reference", action="store_true",
        help="self-test: tamper with the reference so the check must fail",
    )
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: program sources not found under {SRC}", file=sys.stderr)
        return 2
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, RenderError, build_scenario, render_traces

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"benchmark: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    with open(SPEC, encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        scenario = build_scenario(workload, args.seed, args.tiny)
        traces = render_traces(scenario, work)
        runner = Runner(work, {
            "workload": workload.name, "seed": args.seed, "tiny": args.tiny,
            "traces": traces, "corrupt_reference": args.corrupt_reference,
        })
        measure = per_layer if args.trace else end_to_end
        reps, metrics, extra = measure(runner, workload, args.seconds)
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC}")
        result = verdict(reps[0]["check"], reps)
    except (BenchError, RenderError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run's files are still there
            pass

    runs = [run for rep in reps for run in rep["runs"]]
    stamp = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "commit": commit(),
        "src_sha256": source_digest(),
        "pythonhashseed": runner.env["PYTHONHASHSEED"],
        "mode_used": sorted({run["mode_used"] for run in runs}),
        "workers_used": sorted({run["workers_used"] for run in runs}),
        "processes": len(reps),
        "runs": len(runs),
        "wall_s": round(runner.elapsed(), 3),
        "error_rate": result["failed"] / result["attempted"],
        "notes": result["notes"],
        **extra,
    }
    for name, value in metrics.items():
        print(f"{name:34s} {value:14.6g} {units[name]}")
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
