"""Router pipeline tests: FIB forwarding, detours, back-pressure relay."""

import pytest

from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.chunksim.messages import Backpressure, DataChunk
from repro.chunksim.tracing import Trace
from repro.topology import Topology, fig3_topology, line_topology
from repro.units import mbps


def test_fibs_point_along_shortest_paths():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrp")
    assert net.routers[1].fib[4] == 2
    assert net.routers[2].fib[4] == 4
    assert net.routers[3].fib[4] == 4
    assert net.routers[5].fib[1] == 2


def test_detour_options_oriented_per_router():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrp")
    assert net.routers[2].detour_options[4] == [(2, 3, 4)]
    assert net.routers[4].detour_options[2] == [(4, 3, 2)]
    # The access link 1-2 has no detour.
    assert net.routers[1].detour_options[2] == []


def test_tunnel_chunks_follow_forced_hops():
    # Inject a tunnelled chunk at router 2 and verify it goes via 3.
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrp")
    net.add_flow(1, 4, num_chunks=1)  # registers receiver app at 4
    chunk = DataChunk(
        flow_id=0, chunk_id=0, size_bytes=10_000,
        receiver=4, sender=1, tunnel=(3, 4),
    )
    router2 = net.routers[2]
    router2.forward(chunk, next_hop=3, upstream=1)
    net.sim.run(until=1.0)
    receiver = net.routers[4].receiver_app.flows[0]
    assert len(receiver.received) == 1
    # 2 -> 3 -> 4 is two router hops from injection.
    assert receiver.hops_total == 2


def test_unroutable_data_counts_as_drop():
    topo = line_topology(2)
    net = ChunkNetwork(topo, mode="inrp")
    trace = net.trace
    chunk = DataChunk(flow_id=5, chunk_id=0, size_bytes=100, receiver="ghost")
    via = net.routers[1].ifaces[0].link  # the 1 -> 0 direction
    net.routers[0].handlers[DataChunk](chunk, via)
    assert net.routers[0].drops == 1
    assert trace.count("data-unroutable") == 1


def test_backpressure_relay_toward_sender():
    # BP arriving at a transit router must be relayed along the FIB
    # toward the flow's sender.
    topo = line_topology(4, capacity=mbps(10))
    net = ChunkNetwork(topo, mode="inrp")
    net.add_flow(0, 3, num_chunks=1)
    signal = Backpressure(flow_id=0, sender=0)
    net.routers[2]._on_backpressure(signal)
    net.sim.run(until=0.1)
    assert net.trace.count("bp-relayed") >= 1
    # The sender app saw it and switched the flow's mode.
    sender = net.routers[0].sender_app
    assert sender.flows[0].mode == "backpressure" or sender.bp_signals >= 1


def test_gossip_state_propagates():
    topo = fig3_topology()
    config = ChunkSimConfig(ti=0.05)
    net = ChunkNetwork(topo, mode="inrp", config=config)
    net.sim.run(until=0.3)
    # Router 2 must know about node 3's interfaces by now.
    assert any(
        origin == 3 for origin, _ in net.routers[2].neighbor_backlog
    )


def test_aimd_mode_has_no_detour_or_custody():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="sp")
    f1 = net.add_flow(1, 4, num_chunks=2_000)
    report = net.run(duration=4.0, warmup=0.0)
    assert report.detour_events == 0
    assert report.custody_events == 0
