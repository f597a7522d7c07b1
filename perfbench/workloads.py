"""The benchmark's named workloads and their seeded inputs.

Each workload is a scenario built with the program's own scenario
builders (``repro.workload.scenarios``).  The query set and topology
are fixed per workload; the ``--seed`` argument re-seeds every photon
source, so two seeds differ in stream content (positions, energies,
arrival jitter) but not in the shape of the work.

Sources are rendered once per benchmark run into serialized XML trace
files (``repro.workload.trace`` wire format) and fed back through
``TraceReplayGenerator.from_file``, so parsing, copying and column
encoding are program cost inside the measured region while the photon
generator's object churn is not.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Callable, Dict

from repro.sharing.system import STATISTICS_SAMPLE_SIZE, StreamGlobe
from repro.workload.photons import PhotonGenerator
from repro.workload.scenarios import (
    Scenario,
    scenario_churn_hotspots,
    scenario_two,
)
from repro.workload.trace import TraceReplayGenerator, record_trace
from repro.xmlkit import Path

#: Timing element the replay clock follows (the trace default).
REFERENCE = Path("det_time")

#: Super-peers that crash and rejoin in rotation on ``churn``.  The
#: source's home (SP0) is spared so every fault is repairable.
CHURN_PEERS = ("SP1", "SP5", "SP6", "SP9", "SP10", "SP14")


class RenderError(Exception):
    """A rendered trace would not cover its run."""


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[bool], Scenario]
    #: Fewest measured processes per run.
    processes: int
    #: Per fresh process: timed set-ups, registration passes (every
    #: query, into a copy of the set-up system) and timed ``run`` calls
    #: spread over the passes (at most one per pass under faults).
    setups: int
    passes: int
    runs: int
    #: The tail percentile of ``register_ms``: the highest of 90/95/99
    #: with at least 10 of one pass's samples (one per query) beyond it.
    tail_percentile: float


def _fig7(tiny: bool) -> Scenario:
    if tiny:
        scenario = scenario_two(query_count=12)
        scenario.duration = 6.0
        return scenario
    scenario = scenario_two()
    scenario.duration = 20.0
    return scenario


def _churn(tiny: bool) -> Scenario:
    if tiny:
        return scenario_churn_hotspots(
            rows=4, cols=4, query_count=24, duration=12.0, crash_start=2.0,
            crash_peers=CHURN_PEERS[:2], crash_spacing=3.0, downtime=2.0,
        )
    return scenario_churn_hotspots(
        rows=4, cols=4, query_count=200, duration=60.0, crash_start=5.0,
        crash_peers=CHURN_PEERS, crash_spacing=7.5, downtime=5.0,
    )


#: Why each workload exists is recorded in BENCHMARK.json (``why``) and
#: perfbench/design.json, with the layers each one exercises.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig7", _fig7, processes=2,
                 setups=1, passes=6, runs=6, tail_percentile=90.0),
        Workload("churn", _churn, processes=2,
                 setups=1, passes=4, runs=4, tail_percentile=95.0),
    )
}


def build_scenario(workload: Workload, seed: int, tiny: bool = False) -> Scenario:
    """The workload's scenario with every photon source re-seeded."""
    scenario = workload.build(tiny)
    scenario.sources = [
        dataclasses.replace(
            source, config=dataclasses.replace(source.config, seed=seed * 1000 + index)
        )
        for index, source in enumerate(scenario.sources)
    ]
    return scenario


def render_traces(scenario: Scenario, directory: str) -> Dict[str, str]:
    """Write one trace file per source; returns ``{stream: path}``.

    The replay clock is the item's ``det_time`` rebased to the first
    item, and the executor pulls items while that clock is below the
    run's duration — so the trace must reach an item stamped at least
    ``duration`` after the first, or replay raises ``TraceError``
    mid-run.  Rendering stops at that item and fails here instead if
    the trace cannot cover the run or the statistics sample.
    """
    paths: Dict[str, str] = {}
    for source in scenario.sources:
        generator = PhotonGenerator(source.config)
        items = [generator.next_item()]
        base = REFERENCE.number(items[0])
        while True:
            stamp = REFERENCE.number(items[-1])
            if stamp is None or base is None:
                raise RenderError(f"{source.name}: item without {REFERENCE}")
            if stamp - base >= scenario.duration and len(items) >= STATISTICS_SAMPLE_SIZE:
                break
            if len(items) > 1000 * scenario.duration * source.frequency:
                raise RenderError(f"{source.name}: trace does not reach the run's end")
            items.append(generator.next_item())
        path = os.path.join(directory, f"{source.name}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(record_trace(items))
        paths[source.name] = path
    return paths


def build_system(scenario: Scenario, traces: Dict[str, str]) -> StreamGlobe:
    """The measured set-up: the network, then every source registered
    (which samples the statistics catalog from the trace)."""
    system = StreamGlobe(scenario.build_network(), strategy="stream-sharing")
    for source in scenario.sources:
        system.register_stream(
            source.name,
            "photons/photon",
            _replay_factory(traces[source.name], source.frequency),
            frequency=source.frequency,
            source_peer=source.source_peer,
        )
    return system


def _replay_factory(path: str, frequency: float) -> Callable[[], TraceReplayGenerator]:
    return lambda: TraceReplayGenerator.from_file(path, frequency=frequency)
