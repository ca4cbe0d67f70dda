"""End-to-end chunk network tests: both modes on real scenarios."""

import pytest

from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.errors import ConfigurationError
from repro.topology import Topology, fig3_topology, line_topology
from repro.units import mbps


def test_simple_transfer_completes():
    topo = line_topology(3, capacity=mbps(10))
    net = ChunkNetwork(topo, mode="inrp")
    flow = net.add_flow(0, 2, num_chunks=100)
    report = net.run(duration=5.0, warmup=0.0)
    result = report.flow(flow)
    assert result.completed
    assert result.received_chunks == 100
    assert result.duplicates == 0
    assert report.drops == 0
    # 100 chunks x 10 kB at 10 Mbps is ~0.8 s of wire time.
    assert result.completion_time < 2.0


def test_chunk_conservation_no_loss_in_inrpp():
    # INRPP must never drop: every sent chunk is delivered or in
    # custody/queue when the clock stops.
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrp")
    f1 = net.add_flow(1, 4, num_chunks=10_000)
    f2 = net.add_flow(1, 5, num_chunks=10_000)
    report = net.run(duration=10.0, warmup=0.0)
    assert report.drops == 0
    sender = net.routers[1].sender_app
    for flow_id in (f1, f2):
        sent = sender.flows[flow_id].chunks_sent
        received = report.flow(flow_id).received_chunks
        assert received <= sent


def test_fig3_inrpp_pools_resources():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrp")
    f1 = net.add_flow(1, 4, num_chunks=10_000_000)
    f2 = net.add_flow(1, 5, num_chunks=10_000_000)
    report = net.run(duration=12.0, warmup=4.0)
    r1, r2 = report.flow(f1).goodput_bps, report.flow(f2).goodput_bps
    assert r1 == pytest.approx(mbps(5), rel=0.08)
    assert r2 == pytest.approx(mbps(5), rel=0.08)
    assert report.jain() > 0.99
    assert report.detour_events > 0
    assert report.flow(f1).detoured_chunks > 0
    assert report.flow(f2).detoured_chunks == 0


def test_fig3_aimd_is_unfair():
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="sp")
    f1 = net.add_flow(1, 4, num_chunks=10_000_000)
    f2 = net.add_flow(1, 5, num_chunks=10_000_000)
    report = net.run(duration=12.0, warmup=4.0)
    r1, r2 = report.flow(f1).goodput_bps, report.flow(f2).goodput_bps
    assert r1 == pytest.approx(mbps(2), rel=0.2)
    assert r2 == pytest.approx(mbps(8), rel=0.2)
    assert report.jain() == pytest.approx(0.73, abs=0.05)
    assert report.drops > 0          # AIMD probes by losing packets
    assert report.custody_events == 0


def test_backpressure_without_detour():
    topo = Topology("bp")
    topo.add_link(0, 1, capacity=mbps(10))
    topo.add_link(1, 2, capacity=mbps(2))
    net = ChunkNetwork(topo, mode="inrp")
    flow = net.add_flow(0, 2, num_chunks=10_000_000)
    report = net.run(duration=10.0, warmup=3.0)
    assert report.flow(flow).goodput_bps == pytest.approx(mbps(2), rel=0.05)
    assert report.custody_events > 0
    assert report.backpressure_signals > 0
    assert report.drops == 0
    # Custody is conserved and bounded: whatever was not drained when
    # the clock stopped is still sitting in the stores, and the
    # back-pressure loop keeps that residue small.
    residue = report.custody_events - report.custody_drains
    in_store = sum(
        router.custody_used_bytes() for router in net.routers.values()
    )
    config_chunk = net.config.chunk_bytes
    assert residue == in_store // config_chunk
    assert residue <= 32


def test_sender_mode_switches_to_backpressure():
    topo = Topology("bp2")
    topo.add_link(0, 1, capacity=mbps(10))
    topo.add_link(1, 2, capacity=mbps(2))
    net = ChunkNetwork(topo, mode="inrp")
    flow = net.add_flow(0, 2, num_chunks=10_000_000)
    net.run(duration=5.0, warmup=1.0)
    sender = net.routers[0].sender_app
    assert sender.bp_signals > 0


def test_gossip_can_be_disabled():
    # Without neighbour state, detouring is optimistic: the paper
    # warns that "data may find itself before another congested link"
    # (Section 3.3).  On the single-detour Fig. 3 topology the
    # optimistic choice happens to be the right one, so pooling still
    # reaches the full 5 Mbps — the flag must simply not break things.
    config = ChunkSimConfig(gossip=False)
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode="inrp", config=config)
    f1 = net.add_flow(1, 4, num_chunks=10_000_000)
    report = net.run(duration=6.0, warmup=2.0)
    goodput = report.flow(f1).goodput_bps
    assert goodput == pytest.approx(mbps(5), rel=0.1)
    # No gossip traffic was exchanged.
    assert not net.routers[2].neighbor_backlog


def test_anticipated_chunks_are_pushed():
    topo = line_topology(2, capacity=mbps(10))
    net = ChunkNetwork(topo, mode="inrp")
    flow = net.add_flow(0, 1, num_chunks=5_000)
    net.run(duration=3.0, warmup=0.0)
    sender = net.routers[0].sender_app
    assert sender.flows[flow].anticipated_sent > 0


def test_validation():
    topo = line_topology(2)
    with pytest.raises(ConfigurationError):
        ChunkNetwork(topo, mode="tcp")
    with pytest.raises(TypeError):  # one event loop, no engine selector
        ChunkNetwork(topo, engine="reference")
    net = ChunkNetwork(topo)
    with pytest.raises(ConfigurationError):
        net.add_flow(0, 0, num_chunks=10)
    with pytest.raises(ConfigurationError):
        net.add_flow(0, 1, num_chunks=0)
    with pytest.raises(ConfigurationError):
        net.add_flow(0, 99, num_chunks=10)
    disconnected = Topology.from_links([(0, 1), (2, 3)])
    with pytest.raises(ConfigurationError):
        ChunkNetwork(disconnected)


def test_report_accessors():
    topo = line_topology(2)
    net = ChunkNetwork(topo)
    flow = net.add_flow(0, 1, num_chunks=10)
    report = net.run(duration=2.0, warmup=0.0)
    assert report.flow(flow).flow_id == flow
    with pytest.raises(KeyError):
        report.flow(999)
    assert 0.0 < report.total_goodput_bps()
    assert report.mode == "inrp"
    assert ((0, 1) in report.link_utilization)
