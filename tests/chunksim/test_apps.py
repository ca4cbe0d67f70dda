"""Endpoint application tests (INRPP sender/receiver, AIMD)."""

import pytest

from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.errors import SimulationError
from repro.topology import Topology, line_topology
from repro.units import mbps


def _two_node_net(mode="inrp", config=None):
    topo = line_topology(2, capacity=mbps(10))
    return ChunkNetwork(topo, mode=mode, config=config)


def test_receiver_requests_track_data_rate():
    net = _two_node_net()
    flow = net.add_flow(0, 1, num_chunks=500)
    net.run(duration=6.0, warmup=0.0)
    receiver = net.routers[1].receiver_app.flows[flow]
    assert receiver.complete
    # Exactly one request per chunk: max_requested reached the end.
    assert receiver.max_requested == 499


def test_anticipate_horizon_respected():
    config = ChunkSimConfig(anticipation=4, initial_window=2)
    net = _two_node_net(config=config)
    flow = net.add_flow(0, 1, num_chunks=100)
    net.sim.run(until=0.02)  # a few chunks in
    sender = net.routers[0].sender_app.flows[flow]
    # The sender never pushes beyond the anticipate limit.
    assert sender.next_push <= sender.anticipate_limit + 1


def test_sender_push_mode_fills_pipe():
    net = _two_node_net()
    flow = net.add_flow(0, 1, num_chunks=10_000_000)
    report = net.run(duration=5.0, warmup=1.0)
    # A single flow on a clean 10 Mbps link should fill most of it
    # (requests and anticipation permitting).
    assert report.flow(flow).goodput_bps > mbps(8)


def test_duplicate_flow_registration_rejected():
    net = _two_node_net()
    net.add_flow(0, 1, num_chunks=10)
    sender = net.routers[0].sender_app
    with pytest.raises(SimulationError):
        sender.add_flow(0, 1, total_chunks=10)


def test_backpressure_mode_is_request_clocked():
    # With a hard downstream bottleneck the sender ends up in
    # back-pressure mode and sends 1:1 with requests.
    topo = Topology("bp")
    topo.add_link(0, 1, capacity=mbps(10))
    topo.add_link(1, 2, capacity=mbps(1))
    net = ChunkNetwork(topo, mode="inrp")
    flow = net.add_flow(0, 2, num_chunks=10_000_000)
    report = net.run(duration=8.0, warmup=3.0)
    sender = net.routers[0].sender_app.flows[flow]
    assert sender.mode == "backpressure"
    assert report.flow(flow).goodput_bps == pytest.approx(mbps(1), rel=0.1)


def test_aimd_window_dynamics():
    topo = Topology("aimd")
    topo.add_link(0, 1, capacity=mbps(10))
    topo.add_link(1, 2, capacity=mbps(2))
    net = ChunkNetwork(topo, mode="sp")
    flow = net.add_flow(0, 2, num_chunks=10_000_000)
    net.run(duration=8.0, warmup=0.0)
    receiver = net.routers[2].receiver_app.flows[flow]
    # Losses occurred and the window halved at least once.
    assert receiver.timeouts > 0
    assert receiver.window >= 1.0


def test_aimd_completes_despite_losses():
    topo = Topology("aimd2")
    topo.add_link(0, 1, capacity=mbps(10))
    topo.add_link(1, 2, capacity=mbps(2))
    config = ChunkSimConfig(aimd_rto=0.3)
    net = ChunkNetwork(topo, mode="sp", config=config)
    flow = net.add_flow(0, 2, num_chunks=300)
    report = net.run(duration=30.0, warmup=0.0)
    result = report.flow(flow)
    assert result.completed  # retransmissions recover every loss
    assert result.received_chunks == 300
