"""Deterministic Dijkstra tests, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NoPathError, RoutingError
from repro.routing import shortest_path, shortest_path_length
from repro.routing.shortest import (
    all_pairs_hop_counts,
    dijkstra,
    hop_tree,
    iter_sp_next_hops,
)
from repro.topology import Topology, build_isp_topology, mesh_topology

from networkx_oracle import to_networkx


def test_line_path():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3)])
    assert shortest_path(topo, 0, 3) == (0, 1, 2, 3)
    assert shortest_path_length(topo, 0, 3) == 3


def test_trivial_path():
    topo = Topology.from_links([(0, 1)])
    assert shortest_path(topo, 0, 0) == (0,)


def test_no_path_raises():
    topo = Topology.from_links([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        shortest_path(topo, 0, 3)


def test_unknown_nodes_raise():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError):
        shortest_path(topo, 0, 99)
    with pytest.raises(RoutingError):
        shortest_path(topo, 99, 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lengths_match_networkx(seed):
    topo = mesh_topology(30, extra_links=25, seed=seed)
    graph = to_networkx(topo)
    expected = dict(nx.all_pairs_shortest_path_length(graph))
    for source, lengths in all_pairs_hop_counts(topo).items():
        assert lengths == expected[source]


def test_deterministic_tie_break():
    # Square: two equal paths 0-1-2 and 0-3-2; repeated calls agree.
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0)])
    first = shortest_path(topo, 0, 2)
    for _ in range(5):
        assert shortest_path(topo, 0, 2) == first


def test_weighted_path_prefers_cheap_links():
    topo = Topology()
    topo.add_link("a", "b", weight=10.0)
    topo.add_link("a", "c", weight=1.0)
    topo.add_link("c", "b", weight=1.0)
    path = shortest_path(topo, "a", "b", weight=topo.weight)
    assert path == ("a", "c", "b")


def test_negative_weight_rejected():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError):
        dijkstra(topo, 0, weight=lambda u, v: -1.0)


def test_iter_sp_next_hops_builds_fib():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3)])
    fib = dict(iter_sp_next_hops(topo, 3))
    assert fib == {0: 1, 1: 2, 2: 3}


# ----------------------------------------------------------------------
# The hop-metric BFS against heap Dijkstra, its oracle: an explicit unit
# weight forces the heap search, which must build the very same trees.
# ----------------------------------------------------------------------


def _unit(_u, _v):
    return 1.0


def _path_or_none(topo, source, destination, weight=None):
    try:
        return shortest_path(topo, source, destination, weight)
    except NoPathError:
        return None


def _assert_bfs_matches_heap(topo):
    nodes = topo.nodes()
    for source in nodes:
        distances, predecessors = dijkstra(topo, source)
        heap_distances, heap_predecessors = dijkstra(topo, source, weight=_unit)
        # Same maps, filled in the same order.
        assert list(distances.items()) == list(heap_distances.items())
        assert list(predecessors.items()) == list(heap_predecessors.items())
        packed = hop_tree(topo, source)
        assert [nodes[i] if i >= 0 else None for i in packed] == [
            heap_predecessors.get(node) for node in nodes
        ]


@pytest.mark.parametrize("isp", ["exodus", "ebone", "tiscali"])
def test_bfs_trees_match_heap_dijkstra_on_isp_maps(isp):
    _assert_bfs_matches_heap(build_isp_topology(isp, seed=0))


_LABELS = st.one_of(
    st.integers(-20, 60),
    st.text("abxy01", max_size=3),
    st.tuples(st.integers(0, 3), st.text("ab", max_size=2)),
)


@settings(deadline=None, max_examples=60)
@given(labels=st.lists(_LABELS, min_size=2, max_size=24, unique=True), data=st.data())
def test_bfs_trees_match_heap_dijkstra_on_mixed_type_meshes(labels, data):
    """Random (possibly disconnected) meshes over int, str and tuple
    nodes: the tie-break rank orders across types."""
    last = len(labels) - 1
    pairs = data.draw(
        st.lists(
            st.tuples(st.integers(0, last), st.integers(0, last)),
            max_size=3 * len(labels),
        )
    )
    topo = Topology()
    for i, j in pairs:
        u, v = labels[i], labels[j]
        if u != v and not topo.has_link(u, v):
            topo.add_link(u, v)
    for label in labels:
        topo.add_node(label)
    _assert_bfs_matches_heap(topo)
    # Per-pair searches stop early and must still agree.
    for source in labels[:4]:
        for destination in labels:
            assert _path_or_none(topo, source, destination) == _path_or_none(
                topo, source, destination, _unit
            )


def test_hop_tree_unknown_source_raises():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError):
        hop_tree(topo, 99)
