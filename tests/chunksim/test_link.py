"""Simulated link tests: serialization, queuing, drops, control path."""

import pytest

from repro.chunksim import Simulator
from repro.chunksim.link import SimLink
from repro.chunksim.messages import DataChunk, Gossip
from repro.errors import ConfigurationError, SimulationError


def _chunk(size=10_000, chunk_id=0):
    return DataChunk(flow_id=1, chunk_id=chunk_id, size_bytes=size)


def _collector():
    received = []

    def deliver(packet, link):
        received.append((packet, link))

    return received, {DataChunk: deliver}


def test_serialization_plus_propagation_timing():
    sim = Simulator()
    received, handlers = _collector()
    # 10 kB at 10 Mbps = 8 ms tx; +1 ms propagation = 9 ms.
    link = SimLink(sim, "a", "b", rate_bps=10e6, delay_s=0.001, handlers=handlers)
    link.send(_chunk())
    sim.run(until=0.0089)
    assert received == []
    sim.run(until=0.0091)
    assert len(received) == 1


def test_back_to_back_serialization():
    sim = Simulator()
    received, handlers = _collector()
    link = SimLink(sim, "a", "b", rate_bps=10e6, delay_s=0.0, handlers=handlers)
    for i in range(3):
        link.send(_chunk(chunk_id=i))
    sim.run(until=1.0)
    assert [p.chunk_id for p, _ in received] == [0, 1, 2]
    # 3 chunks x 8 ms each, FIFO order.
    assert link.stats.data_packets == 3
    assert link.stats.busy_time == pytest.approx(0.024)


def test_drop_tail_buffer():
    sim = Simulator()
    received, handlers = _collector()
    link = SimLink(
        sim, "a", "b", rate_bps=10e6, delay_s=0.0,
        buffer_bytes=25_000, handlers=handlers,
    )
    outcomes = [link.send(_chunk(chunk_id=i)) for i in range(5)]
    # First chunk goes straight to the wire; two fit in the buffer.
    assert outcomes == [True, True, True, False, False]
    assert link.stats.drops == 2
    sim.run(until=1.0)
    assert len(received) == 3


def test_control_fast_path_skips_queue():
    sim = Simulator()
    received, handlers = _collector()
    link = SimLink(sim, "a", "b", rate_bps=1e3, delay_s=0.001, handlers=handlers)
    link.send(_chunk(size=100_000))  # hogs the slow wire for 800 s
    link.send_control(_chunk(size=64, chunk_id=99))
    sim.run(until=0.01)
    assert len(received) == 1
    assert received[0][0].chunk_id == 99
    assert link.stats.control_packets == 1


def test_utilization():
    sim = Simulator()
    received, handlers = _collector()
    link = SimLink(sim, "a", "b", rate_bps=10e6, delay_s=0.0, handlers=handlers)
    link.send(_chunk())  # 8 ms of wire time
    sim.run(until=0.016)
    assert link.utilization() == pytest.approx(0.5, rel=0.01)


def test_tx_complete_callback():
    sim = Simulator()
    received, handlers = _collector()
    link = SimLink(sim, "a", "b", rate_bps=10e6, delay_s=0.0, handlers=handlers)
    ticks = []
    link.on_tx_complete = lambda: ticks.append(sim.now)
    link.send(_chunk())
    sim.run(until=1.0)
    assert len(ticks) == 1
    assert ticks[0] == pytest.approx(0.008)


def test_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        SimLink(sim, "a", "b", rate_bps=0.0, delay_s=0.0, handlers={})
    with pytest.raises(ConfigurationError):
        SimLink(sim, "a", "b", rate_bps=1.0, delay_s=-0.1, handlers={})


def test_control_packet_without_handler_raises():
    sim = Simulator()
    received, handlers = _collector()
    link = SimLink(sim, "a", "b", rate_bps=10e6, delay_s=0.0, handlers=handlers)
    with pytest.raises(SimulationError):
        link.send_control(Gossip(origin="a"))
