"""Tests for stream trace recording and replay."""

import copy
import pickle

import pytest

from repro.workload.photons import PhotonGenerator, PhotonStreamConfig
from repro.workload.trace import (
    TraceError,
    TraceReplayGenerator,
    load_trace,
    record_trace,
    save_trace,
)
from repro.xmlkit import Path, XmlParseError, parse_stream


@pytest.fixture()
def photons():
    return PhotonGenerator(PhotonStreamConfig(seed=11, frequency=50.0)).take(40)


class TestRecording:
    def test_roundtrip_text(self, photons):
        text = record_trace(photons)
        assert parse_stream(text) == photons

    def test_roundtrip_file(self, photons, tmp_path):
        path = str(tmp_path / "trace.xml")
        count = save_trace(photons, path)
        assert count == 40
        assert load_trace(path) == photons


class TestReplay:
    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            TraceReplayGenerator([])

    def test_replays_in_order(self, photons):
        replay = TraceReplayGenerator(photons)
        replayed = [replay.next_item() for _ in range(len(photons))]
        assert replayed == photons
        assert replayed[0] is not photons[0]  # defensive copies

    def test_clock_follows_reference(self, photons):
        replay = TraceReplayGenerator(photons)
        first = replay.next_item()
        assert replay.clock == 0.0  # rebased to zero
        replay.next_item()
        expected = (
            float(photons[1].find(["det_time"]).text)
            - float(photons[0].find(["det_time"]).text)
        )
        assert replay.clock == pytest.approx(expected)
        del first

    def test_exhaustion_without_loop(self, photons):
        replay = TraceReplayGenerator(photons[:3])
        for _ in range(3):
            replay.next_item()
        with pytest.raises(TraceError):
            replay.next_item()

    def test_looping_keeps_clock_monotone(self, photons):
        replay = TraceReplayGenerator(photons[:5], loop=True)
        clocks = []
        for _ in range(17):
            replay.next_item()
            clocks.append(replay.clock)
        assert all(b > a for a, b in zip(clocks, clocks[1:]))

    def test_fallback_frequency_without_reference(self, photons):
        replay = TraceReplayGenerator(photons, reference=None, frequency=10.0)
        replay.next_item()
        replay.next_item()
        assert replay.clock == pytest.approx(0.2)

    def test_from_file(self, photons, tmp_path):
        path = str(tmp_path / "trace.xml")
        save_trace(photons, path)
        replay = TraceReplayGenerator.from_file(path)
        assert replay.next_item() == photons[0]

    def test_from_file_yields_the_loaded_items(self, photons, tmp_path):
        path = str(tmp_path / "trace.xml")
        save_trace(photons, path)
        replay = TraceReplayGenerator.from_file(path)
        replayed = [replay.next_item() for _ in range(len(photons))]
        assert replayed == load_trace(path)
        assert len({id(item) for item in replayed}) == len(replayed)
        assert all(item.frozen for item in replayed)
        with pytest.raises(TraceError):
            replay.next_item()

    @pytest.mark.parametrize("reference", [Path("det_time"), None])
    def test_looping_file_matches_in_memory_clocks(self, photons, tmp_path, reference):
        path = str(tmp_path / "trace.xml")
        save_trace(photons[:5], path)
        lazy = TraceReplayGenerator.from_file(path, reference=reference, loop=True)
        eager = TraceReplayGenerator(photons[:5], reference=reference, loop=True)
        for _ in range(17):
            assert lazy.next_item() == eager.next_item()
            assert lazy.clock == eager.clock

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
    def test_copy_mid_stream_continues_identically(self, photons, tmp_path, clone):
        path = str(tmp_path / "trace.xml")
        save_trace(photons[:6], path)
        replay = TraceReplayGenerator.from_file(path, loop=True)
        for _ in range(4):
            replay.next_item()
        twin = clone(replay)
        for _ in range(10):
            item = replay.next_item()
            assert twin.next_item() == item
            assert twin.clock == replay.clock

    def test_malformed_item_surfaces_when_reached(self, photons, tmp_path):
        path = str(tmp_path / "trace.xml")
        text = record_trace(photons[:4]).splitlines()
        text[2] = text[2].replace("</en>", "</eN>")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(text))
        replay = TraceReplayGenerator.from_file(path)
        assert replay.next_item() == photons[0]
        assert replay.next_item() == photons[1]
        with pytest.raises(XmlParseError) as caught:
            replay.next_item()
        assert caught.value.line == 3


class TestReplayDrivesTheSystem:
    def test_trace_as_stream_source(self, photons, tmp_path):
        """A recorded trace can back a registered stream end to end."""
        from repro.network.topology import example_topology
        from repro.sharing import StreamGlobe

        path = str(tmp_path / "trace.xml")
        save_trace(photons, path)

        system = StreamGlobe(example_topology(), strategy="stream-sharing")
        system.register_stream(
            "photons",
            "photons/photon",
            lambda: TraceReplayGenerator.from_file(path, loop=True),
            frequency=50.0,
            source_peer="P0",
        )
        result = system.register_query(
            "all",
            '<photons>{ for $p in stream("photons")/photons/photon '
            "where $p/en >= 0.0 return <r> { $p/en } </r> }</photons>",
            "P1",
        )
        assert result.accepted
        metrics = system.run(duration=2.0)
        assert metrics.items_delivered["all"] > 0
        assert metrics.items_delivered["all"] == metrics.items_generated["photons"]
