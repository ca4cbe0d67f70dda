"""Block-mix and mesh generator tests."""

import pytest

from repro.errors import ConfigurationError
from repro.routing.detour import DetourClass, detour_breakdown
from repro.topology import block_mix_topology, mesh_topology


def test_block_mix_exact_class_counts():
    topo, report = block_mix_topology(7, 8, 5, 3, seed=1)
    assert report.total_links == 7 + 8 + 5 + 3
    breakdown = detour_breakdown(topo)
    assert breakdown.counts[DetourClass.ONE_HOP] == 7
    assert breakdown.counts[DetourClass.TWO_HOP] == 8
    assert breakdown.counts[DetourClass.THREE_PLUS] == 5
    assert breakdown.counts[DetourClass.NONE] == 3


def test_block_mix_report_matches_measurement():
    topo, report = block_mix_topology(9, 4, 0, 6, seed=3)
    breakdown = detour_breakdown(topo)
    assert report.built["one_hop"] == breakdown.counts[DetourClass.ONE_HOP]
    assert report.built["two_hop"] == breakdown.counts[DetourClass.TWO_HOP]
    assert report.built["none"] == breakdown.counts[DetourClass.NONE]
    assert topo.num_links == report.total_links


def test_block_mix_connected_and_seed_varies_layout():
    topo_a, _ = block_mix_topology(15, 10, 5, 5, seed=1)
    topo_b, _ = block_mix_topology(15, 10, 5, 5, seed=2)
    assert topo_a.is_connected()
    assert topo_b.is_connected()
    # Same class mix, different arrangement.
    assert detour_breakdown(topo_a).counts == detour_breakdown(topo_b).counts
    assert sorted(topo_a.links()) != sorted(topo_b.links()) or (
        topo_a.num_nodes != topo_b.num_nodes
    )


def test_block_mix_deterministic_per_seed():
    topo_a, _ = block_mix_topology(7, 4, 0, 2, seed=9)
    topo_b, _ = block_mix_topology(7, 4, 0, 2, seed=9)
    assert sorted(topo_a.links()) == sorted(topo_b.links())


def test_block_mix_zero_classes_allowed():
    topo, report = block_mix_topology(0, 0, 0, 4, seed=0)
    assert topo.num_links == 4
    assert report.built["one_hop"] == 0


def test_block_mix_rejects_nothing():
    with pytest.raises(ConfigurationError):
        block_mix_topology(0, 0, 0, 0)


def test_block_mix_rejects_negative():
    with pytest.raises(ConfigurationError):
        block_mix_topology(-1, 0, 0, 2)


def test_block_mix_capacity_applied():
    topo, _ = block_mix_topology(3, 0, 0, 1, seed=0, capacity=123456.0)
    for u, v in topo.links():
        assert topo.capacity(u, v) == 123456.0


@pytest.mark.parametrize(
    "capacity", [123456.0, (2e6, 3e6)], ids=["symmetric", "pair"]
)
def test_block_mix_sets_capacity_and_delay_as_the_two_pass_build(capacity):
    """Capacities and delays set as the blocks add each link equal
    those of a default build followed by ``set_capacity`` and
    ``set_delay`` over ``links()``: a pair spec is oriented by
    ``Link.key``, not by a block's call order, and node and link
    orders are unchanged."""
    counts = (7, 8, 6, 3)
    topo, _ = block_mix_topology(*counts, seed=4, capacity=capacity, delay=0.007)
    want, _ = block_mix_topology(*counts, seed=4)
    for u, v in want.links():
        want.set_capacity(u, v, capacity)
        want.set_delay(u, v, 0.007)
    assert topo.nodes() == want.nodes()
    assert topo.links() == want.links()
    assert [topo.neighbors(node) for node in topo.nodes()] == [
        want.neighbors(node) for node in want.nodes()
    ]
    got_caps = topo.directed_capacities()
    want_caps = want.directed_capacities()
    assert list(got_caps) == list(want_caps)
    for (u, v), value in want_caps.items():
        assert got_caps[(u, v)] == value
        assert topo.delay(u, v) == want.delay(u, v) == 0.007
    if isinstance(capacity, tuple):
        # Both orientations occur among the blocks' calls, so the pair
        # really had to be re-oriented somewhere.
        assert set(got_caps.values()) == set(capacity)


def test_mesh_connected_with_expected_links():
    topo = mesh_topology(40, extra_links=30, seed=5)
    assert topo.is_connected()
    assert topo.num_nodes == 40
    assert topo.num_links == 39 + 30


def test_mesh_triangle_fraction_raises_one_hop_share():
    sparse = mesh_topology(60, extra_links=40, triangle_fraction=0.0, seed=1)
    dense = mesh_topology(60, extra_links=40, triangle_fraction=1.0, seed=1)
    one_hop = lambda t: detour_breakdown(t).percentage(DetourClass.ONE_HOP)
    assert one_hop(dense) > one_hop(sparse)


def test_mesh_parameter_validation():
    with pytest.raises(ConfigurationError):
        mesh_topology(1, 0)
    with pytest.raises(ConfigurationError):
        mesh_topology(4, extra_links=100)
    with pytest.raises(ConfigurationError):
        mesh_topology(10, 5, triangle_fraction=1.5)
