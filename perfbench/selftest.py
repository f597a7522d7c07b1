"""Self-test of the benchmark at tiny size.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks, for every workload and both ``--trace`` modes, that the result
line has exactly the contract's keys and every metric ``BENCHMARK.json``
names, each with its declared unit; that the timing metrics come with
their unscaled medians and probe times; that ``design.json`` cites the same
workloads and metrics; that a deliberately wrong reference
makes the check fail (``failed`` and ``error_rate`` above 0); that a
rendered trace covers its run; and that the benchmark exits non-zero
without a result where the program's sources are missing.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def scratch() -> tempfile.TemporaryDirectory:
    os.makedirs(WORK, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=WORK)


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, "--seed", "3", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )


def result_of(proc: subprocess.CompletedProcess):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    stamp = json.loads(lines[-2])["stamp"]
    return json.loads(lines[-1]), stamp


def check_metrics(result, declared) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = {metric["name"]: metric["unit"] for metric in declared}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert got == expected, sorted(set(got.items()) ^ set(expected.items()))
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name


def check_scaling(result, stamp) -> None:
    """Every timing metric is reported scaled, with its unscaled median
    and the probe times in the stamp; scaling only divides by a
    positive host-speed factor, so scaled and unscaled agree in sign."""
    unscaled = stamp["unscaled"]
    assert set(unscaled) == {"items_per_s", "register_ms.p50", "register_ms.tail", "setup_s"}
    assert stamp["probe_s"]["median"] > 0 and stamp["probe_s"]["reference"] > 0
    for name, value in unscaled.items():
        assert value > 0 and result["metrics"][name]["value"] > 0, name


def check_design_names(spec) -> None:
    """``design.json`` cites only workloads and metrics the contract has."""
    with open(os.path.join(HERE, "design.json"), encoding="utf-8") as handle:
        design = json.load(handle)
    assert set(design["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(design["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    cited = {name for layer in design["layers"] for name in layer["metrics"]}
    assert cited == {m["name"] for m in spec["per_layer"]}, cited ^ {
        m["name"] for m in spec["per_layer"]
    }


def check_render_covers_run() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS, build_scenario, render_traces
    from repro.workload.trace import TraceReplayGenerator

    scenario = build_scenario(WORKLOADS["fig7"], 3, tiny=True)
    with scratch() as work:
        for name, path in render_traces(scenario, work).items():
            replay = TraceReplayGenerator.from_file(path)
            while replay.clock < scenario.duration:  # TraceError if short
                replay.next_item()


def check_refuses_without_sources() -> None:
    with scratch() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig7", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0, "ran without the program's sources"
    assert '"correct"' not in proc.stdout, "printed a result without sources"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    checks = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            result, stamp = result_of(bench("--workload", workload, "--trace", trace, "--tiny"))
            check_metrics(result, declared)
            assert result["correct"] and result["failed"] == 0, (workload, trace, stamp)
            if trace == "0":
                check_scaling(result, stamp)
            checks += 1
        result, stamp = result_of(
            bench("--workload", workload, "--trace", "0", "--tiny", "--corrupt-reference")
        )
        assert not result["correct"] and result["failed"] > 0, (workload, result)
        assert stamp["error_rate"] > 0, stamp
        checks += 1
        print(f"{workload}: ok", flush=True)
    check_design_names(spec)
    check_render_covers_run()
    check_refuses_without_sources()
    try:
        os.rmdir(WORK)
    except OSError:  # not empty: another run's files
        pass
    print(f"selftest: {checks + 3} checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"selftest: FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
