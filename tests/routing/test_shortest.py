"""Hop-count shortest-path tests, cross-checked against networkx and
the heap Dijkstra oracle."""

from array import array

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NoPathError, RoutingError
from repro.routing import shortest_path
from repro.routing.shortest import hop_tree, iter_sp_next_hops, tree_typecode
from repro.topology import Topology, build_isp_topology, mesh_topology

from networkx_oracle import to_networkx
from oracles import heap_dijkstra


def test_line_path():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3)])
    assert shortest_path(topo, 0, 3) == (0, 1, 2, 3)


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
    with pytest.raises(RoutingError):
        list(iter_sp_next_hops(topo, 99))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lengths_match_networkx(seed):
    topo = mesh_topology(30, extra_links=25, seed=seed)
    graph = to_networkx(topo)
    expected = dict(nx.all_pairs_shortest_path_length(graph))
    nodes = topo.nodes()
    for source in nodes:
        origin, tree = topo.node_index(source), hop_tree(topo, source)
        lengths = {source: 0}
        for index, node in enumerate(nodes):
            hops = 0
            while index != origin and tree[index] >= 0:
                index, hops = tree[index], hops + 1
            if index == origin and hops:
                lengths[node] = hops
        assert lengths == expected[source]


def test_deterministic_tie_break():
    # Square: two equal paths 0-1-2 and 0-3-2; repeated calls agree.
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0)])
    first = shortest_path(topo, 0, 2)
    for _ in range(5):
        assert shortest_path(topo, 0, 2) == first


def test_iter_sp_next_hops_builds_fib():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3)])
    fib = dict(iter_sp_next_hops(topo, 3))
    assert fib == {0: 1, 1: 2, 2: 3}


# ----------------------------------------------------------------------
# The hop-count BFS against heap Dijkstra (tests/oracles.py), which must
# build the very same trees.
# ----------------------------------------------------------------------


def _path_or_none(topo, source, destination):
    try:
        return shortest_path(topo, source, destination)
    except NoPathError:
        return None


def _heap_path_or_none(topo, source, destination):
    distances, predecessors = heap_dijkstra(topo, source)
    if destination not in distances:
        return None
    path = [destination]
    while path[-1] != source:
        path.append(predecessors[path[-1]])
    return tuple(reversed(path))


def _assert_bounded_trees_agree(topo):
    """``hop_tree(topo, s, target=t)`` reaches exactly the nodes within
    *t*'s hop distance (all of *s*'s component if *t* is unreachable)
    and gives each the full tree's predecessor."""
    nodes = topo.nodes()
    for source in nodes:
        full = np.asarray(hop_tree(topo, source))
        distances, _ = heap_dijkstra(topo, source)
        hops = np.array([distances.get(node, np.inf) for node in nodes])
        hops[topo.node_index(source)] = np.inf  # the origin reads -1
        for target in nodes:
            bounded = np.asarray(hop_tree(topo, source, target=target))
            reached = bounded >= 0
            assert np.array_equal(bounded[reached], full[reached])
            if target == source:
                assert not reached.any()
            elif target in distances:
                assert np.array_equal(reached, hops <= distances[target])
            else:
                assert np.array_equal(bounded, full)


def test_bounded_hop_trees_agree_with_full_trees_on_isp_map():
    _assert_bounded_trees_agree(build_isp_topology("ebone", seed=0))


def _assert_bfs_matches_heap(topo):
    nodes = topo.nodes()
    for source in nodes:
        _, predecessors = heap_dijkstra(topo, source)
        packed = hop_tree(topo, source)
        assert [nodes[i] if i >= 0 else None for i in packed] == [
            predecessors.get(node) for node in nodes
        ]
        # The FIB toward `source` is the same tree, yielded in the
        # order the heap search discovers it.
        assert list(iter_sp_next_hops(topo, source)) == list(predecessors.items())


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
    _assert_bounded_trees_agree(topo)
    # Per-pair searches stop early and must still agree.
    for source in labels[:4]:
        for destination in labels:
            assert _path_or_none(topo, source, destination) == _heap_path_or_none(
                topo, source, destination
            )


def test_hop_tree_packs_small_maps_as_int16():
    """A map whose node indices fit in int16 gets an ``"h"`` tree with
    the entries of the int32 tree built from the heap oracle's."""
    topo = build_isp_topology("exodus", seed=0)
    nodes = topo.nodes()
    for source in nodes[:20]:
        tree = hop_tree(topo, source)
        assert tree.typecode == "h" and tree.itemsize == 2
        _, predecessors = heap_dijkstra(topo, source)
        want = array(
            "i",
            [
                topo.node_index(predecessors[node]) if node in predecessors else -1
                for node in nodes
            ],
        )
        assert tree.tolist() == want.tolist()
    assert tree_typecode(1 << 15) == "h"
    assert tree_typecode((1 << 15) + 1) == "i"


def test_hop_tree_packs_maps_beyond_int16_as_int32():
    """On a map of 32,769 nodes, one more than int16 indexes, the tree
    is an ``"i"`` array holding the search's predecessors: the heap
    oracle's, for a full tree and for one bounded by a target.  The
    source is node index 32,768, so its neighbours' entries overflow
    int16."""
    num_nodes = (1 << 15) + 1
    topo = mesh_topology(num_nodes, extra_links=3000, seed=0)
    nodes = topo.nodes()
    source = nodes[-1]
    _, predecessors = heap_dijkstra(topo, source)
    want = [
        topo.node_index(predecessors[node]) if node in predecessors else -1
        for node in nodes
    ]
    tree = hop_tree(topo, source)
    assert tree.typecode == "i" and tree.itemsize == 4
    assert tree.tolist() == want
    assert 1 << 15 in want
    target = nodes[num_nodes // 2]
    bounded = hop_tree(topo, source, target=target)
    assert bounded.typecode == "i"
    assert bounded[topo.node_index(target)] == want[topo.node_index(target)]
    assert all(got in (-1, full) for got, full in zip(bounded, want))
    assert bounded.count(-1) > want.count(-1)


def test_hop_tree_unknown_source_raises():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError):
        hop_tree(topo, 99)
