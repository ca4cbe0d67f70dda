"""Motif builders: each block's links must carry its detour class."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.routing.detour import DetourClass, classify_link_detour
from repro.topology import Topology
from repro.topology.blocks import (
    NodeNamer,
    add_long_cycle,
    add_pendant,
    add_square_chain,
    add_triangle_fan,
    decompose_one_hop,
    decompose_three_plus,
    decompose_two_hop,
)


def _fresh():
    topo = Topology("block-test")
    namer = NodeNamer()
    root = topo.add_node(namer.fresh())
    return topo, namer, root


@pytest.mark.parametrize("num_links", [3, 5, 7, 11])
def test_triangle_fan_links_are_one_hop(num_links):
    topo, namer, root = _fresh()
    created = add_triangle_fan(topo, root, num_links, namer)
    assert len(created) == num_links
    for u, v in created:
        assert classify_link_detour(topo, u, v) is DetourClass.ONE_HOP


@pytest.mark.parametrize("bad", [1, 2, 4, 6])
def test_triangle_fan_rejects_even_or_tiny(bad):
    topo, namer, root = _fresh()
    with pytest.raises(TopologyError):
        add_triangle_fan(topo, root, bad, namer)


@pytest.mark.parametrize("num_links", [4, 7, 10, 13])
def test_square_chain_links_are_two_hop(num_links):
    topo, namer, root = _fresh()
    created = add_square_chain(topo, root, num_links, namer)
    assert len(created) == num_links
    for u, v in created:
        assert classify_link_detour(topo, u, v) is DetourClass.TWO_HOP


@pytest.mark.parametrize("bad", [3, 5, 6, 9])
def test_square_chain_rejects_unreachable_counts(bad):
    topo, namer, root = _fresh()
    with pytest.raises(TopologyError):
        add_square_chain(topo, root, bad, namer)


@pytest.mark.parametrize("num_links", [5, 6, 9])
def test_long_cycle_links_are_three_plus(num_links):
    topo, namer, root = _fresh()
    created = add_long_cycle(topo, root, num_links, namer)
    assert len(created) == num_links
    for u, v in created:
        assert classify_link_detour(topo, u, v) is DetourClass.THREE_PLUS


def test_long_cycle_rejects_short():
    topo, namer, root = _fresh()
    with pytest.raises(TopologyError):
        add_long_cycle(topo, root, 4, namer)


def test_pendant_has_no_detour():
    topo, namer, root = _fresh()
    u, v = add_pendant(topo, root, namer)
    assert classify_link_detour(topo, u, v) is DetourClass.NONE


def test_blocks_glued_at_shared_vertex_keep_classes():
    # A fan and a square attached at the same node must not perturb
    # each other's detour classes.
    topo, namer, root = _fresh()
    fan = add_triangle_fan(topo, root, 5, namer)
    square = add_square_chain(topo, root, 4, namer)
    pendant = add_pendant(topo, root, namer)
    for u, v in fan:
        assert classify_link_detour(topo, u, v) is DetourClass.ONE_HOP
    for u, v in square:
        assert classify_link_detour(topo, u, v) is DetourClass.TWO_HOP
    assert classify_link_detour(topo, *pendant) is DetourClass.NONE


@given(st.integers(min_value=0, max_value=400))
def test_decompose_one_hop_sums(count):
    if count in (1, 2, 4):
        with pytest.raises(TopologyError):
            decompose_one_hop(count)
        return
    parts = decompose_one_hop(count)
    assert sum(parts) == count
    assert all(p >= 3 and p % 2 == 1 for p in parts)


@given(st.integers(min_value=0, max_value=400))
def test_decompose_two_hop_sums(count):
    if count in (1, 2, 3, 5, 6, 9):
        with pytest.raises(TopologyError):
            decompose_two_hop(count)
        return
    parts = decompose_two_hop(count)
    assert sum(parts) == count
    assert all(p >= 4 and (p - 4) % 3 == 0 for p in parts)


@given(st.integers(min_value=0, max_value=400))
def test_decompose_three_plus_sums(count):
    if 1 <= count <= 4:
        with pytest.raises(TopologyError):
            decompose_three_plus(count)
        return
    parts = decompose_three_plus(count)
    assert sum(parts) == count
    assert all(p >= 5 for p in parts)
