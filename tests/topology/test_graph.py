"""Topology graph model tests."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology import Link, Topology, link_key, split_capacity_spec
from repro.units import mbps


@pytest.fixture
def triangle():
    topo = Topology("triangle")
    topo.add_link("a", "b", capacity=mbps(10), delay=0.001)
    topo.add_link("b", "c", capacity=mbps(20), delay=0.002)
    topo.add_link("c", "a", capacity=mbps(30), delay=0.003)
    return topo


def test_link_key_is_order_independent():
    assert link_key(2, 1) == link_key(1, 2)
    assert link_key("b", "a") == ("a", "b")


def test_basic_counts(triangle):
    assert triangle.num_nodes == 3
    assert triangle.num_links == 3
    assert set(triangle.nodes()) == {"a", "b", "c"}


def test_capacity_delay_lookup_either_orientation(triangle):
    assert triangle.capacity("a", "b") == mbps(10)
    assert triangle.capacity("b", "a") == mbps(10)
    assert triangle.delay("c", "b") == pytest.approx(0.002)


def test_self_loop_rejected():
    topo = Topology()
    with pytest.raises(TopologyError):
        topo.add_link("x", "x")


def test_duplicate_link_rejected(triangle):
    with pytest.raises(TopologyError):
        triangle.add_link("b", "a")


def test_nonpositive_capacity_rejected():
    topo = Topology()
    with pytest.raises(TopologyError):
        topo.add_link("a", "b", capacity=0)
    with pytest.raises(TopologyError):
        topo.add_link("a", "b", capacity=-5)


def test_unknown_link_lookup_raises(triangle):
    with pytest.raises(TopologyError):
        triangle.capacity("a", "zzz")


def test_set_capacity(triangle):
    triangle.set_capacity("a", "b", mbps(99))
    assert triangle.capacity("b", "a") == mbps(99)
    with pytest.raises(TopologyError):
        triangle.set_capacity("a", "b", -1)


def test_is_bridge(triangle):
    # No triangle edge is a bridge; a pendant edge is.
    assert not triangle.is_bridge("a", "b")
    triangle.add_link("c", "leaf")
    assert triangle.is_bridge("c", "leaf")
    # is_bridge must not mutate the graph, iteration orders included.
    assert triangle.has_link("c", "leaf")
    assert triangle.num_links == 4
    topo = Topology.from_links([(0, 1), (0, 2), (1, 2), (2, 3)])
    neighbours = {node: topo.neighbors(node) for node in topo.nodes()}
    links = topo.links()
    assert not topo.is_bridge(0, 1)
    assert topo.is_bridge(2, 3)
    assert {node: topo.neighbors(node) for node in topo.nodes()} == neighbours
    assert topo.links() == links


def test_without_link_copies(triangle):
    reduced = triangle.without_link("a", "b")
    assert not reduced.has_link("a", "b")
    assert triangle.has_link("a", "b")


def test_directed_links_double_count(triangle):
    directed = list(triangle.directed_links())
    assert len(directed) == 2 * triangle.num_links
    assert ("a", "b") in directed and ("b", "a") in directed


def test_from_links_and_total_capacity():
    topo = Topology.from_links([(1, 2), (2, 3)], capacity=mbps(5))
    assert topo.num_links == 2
    assert topo.total_capacity() == mbps(10)
    assert topo.link_capacities() == {(1, 2): mbps(5), (2, 3): mbps(5)}


def test_is_connected():
    topo = Topology.from_links([(1, 2), (3, 4)])
    assert not topo.is_connected()
    topo.add_link(2, 3)
    assert topo.is_connected()


def test_neighbors_and_degree(triangle):
    assert set(triangle.neighbors("a")) == {"b", "c"}
    assert triangle.degree("a") == 2
    with pytest.raises(TopologyError):
        triangle.neighbors("nope")


def test_copy_independent(triangle):
    clone = triangle.copy()
    clone.remove_link("a", "b")
    assert triangle.has_link("a", "b")
    assert not clone.has_link("a", "b")


def test_copy_keeps_iteration_orders():
    topo = Topology.from_links([(3, 1), (0, 2), (1, 2), (2, 3), (0, 3)])
    clone = topo.copy()
    assert clone.nodes() == topo.nodes()
    assert clone.links() == topo.links()
    for node in topo.nodes():
        assert clone.neighbors(node) == topo.neighbors(node)
    clone.set_capacity(0, 2, mbps(1))
    assert topo.capacity(0, 2) != mbps(1)


@settings(deadline=None, max_examples=60)
@given(
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(0, 12), st.integers(0, 12)), max_size=60
    )
)
def test_iteration_orders_match_networkx(steps):
    """Nodes, neighbours and links come out in the order a
    networkx.Graph built by the same calls gives them."""
    topo, graph = Topology(), nx.Graph()
    for add, u, v in steps:
        if u == v:
            topo.add_node(u)
            graph.add_node(u)
        elif not topo.has_link(u, v):
            if add:
                topo.add_link(u, v)
                graph.add_edge(u, v)
        elif not add:
            topo.remove_link(u, v)
            graph.remove_edge(u, v)
    assert topo.nodes() == list(graph.nodes())
    assert topo.links() == [link_key(u, v) for u, v in graph.edges()]
    for node in topo.nodes():
        assert topo.neighbors(node) == list(graph.neighbors(node))
        assert [topo.nodes()[i] for i in topo.adjacency()[topo.node_index(node)]] == (
            topo.neighbors(node)
        )
    assert topo.num_links == graph.number_of_edges()
    assert topo.is_connected() == (graph.number_of_nodes() == 0 or nx.is_connected(graph))
    for u, v in topo.links():
        without = nx.restricted_view(graph, [], [(u, v)])
        assert topo.is_bridge(u, v) == (not nx.has_path(without, u, v))


# ----------------------------------------------------------------------
# Directed-capacity substrate
# ----------------------------------------------------------------------
def test_link_key_matches_legacy_helper():
    assert Link.key(2, 1) == link_key(1, 2) == (1, 2)


def test_split_capacity_spec():
    assert split_capacity_spec(5.0) == (5.0, 5.0)
    assert split_capacity_spec((3.0, 7.0)) == (3.0, 7.0)
    with pytest.raises(TopologyError):
        split_capacity_spec((1.0, 2.0, 3.0))
    with pytest.raises(TopologyError):
        split_capacity_spec("fast")


def test_pair_spec_sets_per_direction_capacity():
    topo = Topology()
    # The spec's forward direction is the traversal order given to
    # add_link, regardless of canonical orientation.
    topo.add_link("b", "a", capacity=(mbps(8), mbps(2)))
    assert topo.capacity("b", "a") == mbps(8)
    assert topo.capacity("a", "b") == mbps(2)


def test_set_directed_capacity_leaves_reverse_alone(triangle):
    triangle.set_directed_capacity("b", "a", mbps(1))
    assert triangle.capacity("b", "a") == mbps(1)
    assert triangle.capacity("a", "b") == mbps(10)
    with pytest.raises(TopologyError):
        triangle.set_directed_capacity("a", "b", 0)


def test_set_capacity_pair_spec(triangle):
    triangle.set_capacity("a", "b", (mbps(4), mbps(6)))
    assert triangle.capacity("a", "b") == mbps(4)
    assert triangle.capacity("b", "a") == mbps(6)


def test_is_symmetric(triangle):
    assert triangle.is_symmetric()
    triangle.set_directed_capacity("b", "a", mbps(1))
    assert not triangle.is_symmetric()


def test_directed_capacities_both_orientations(triangle):
    triangle.set_directed_capacity("b", "a", mbps(1))
    caps = triangle.directed_capacities()
    assert len(caps) == 2 * triangle.num_links
    assert caps[("a", "b")] == mbps(10)
    assert caps[("b", "a")] == mbps(1)


def test_asymmetry_survives_copy_and_without_link(triangle):
    triangle.set_directed_capacity("b", "a", mbps(1))
    clone = triangle.copy()
    assert clone.capacity("b", "a") == mbps(1)
    assert clone.capacity("a", "b") == mbps(10)
    reduced = triangle.without_link("b", "c")
    assert reduced.capacity("b", "a") == mbps(1)


def test_is_bridge_preserves_directed_capacities(triangle):
    triangle.set_directed_capacity("b", "a", mbps(1))
    triangle.is_bridge("a", "b")
    assert triangle.capacity("b", "a") == mbps(1)
    assert triangle.capacity("a", "b") == mbps(10)
