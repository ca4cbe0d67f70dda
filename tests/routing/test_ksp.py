"""Yen's k-shortest-paths, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.errors import NoPathError, RoutingError
from repro.routing import k_shortest_paths
from repro.topology import Topology, mesh_topology

from networkx_oracle import to_networkx


def test_k1_is_shortest_path():
    topo = Topology.from_links([(0, 1), (1, 2), (0, 2)])
    assert k_shortest_paths(topo, 0, 2, 1) == [(0, 2)]


def test_triangle_two_paths():
    topo = Topology.from_links([(0, 1), (1, 2), (0, 2)])
    paths = k_shortest_paths(topo, 0, 2, 2)
    assert paths == [(0, 2), (0, 1, 2)]


def test_returns_fewer_when_graph_is_thin():
    topo = Topology.from_links([(0, 1), (1, 2)])
    paths = k_shortest_paths(topo, 0, 2, 5)
    assert paths == [(0, 1, 2)]


def test_paths_are_loopless_and_sorted_by_cost():
    topo = mesh_topology(15, extra_links=15, seed=3)
    paths = k_shortest_paths(topo, 0, 9, 5)
    costs = [len(p) - 1 for p in paths]
    assert costs == sorted(costs)
    for path in paths:
        assert len(set(path)) == len(path)
    assert len(set(paths)) == len(paths)


@pytest.mark.parametrize("seed", [1, 4])
def test_matches_networkx_shortest_simple_paths(seed):
    topo = mesh_topology(12, extra_links=10, seed=seed)
    graph = to_networkx(topo)
    expected = []
    for path in nx.shortest_simple_paths(graph, 0, 7):
        expected.append(len(path) - 1)
        if len(expected) == 4:
            break
    got = [len(p) - 1 for p in k_shortest_paths(topo, 0, 7, 4)]
    assert got == expected  # same cost sequence (paths may tie-break)


def test_no_path_and_bad_k():
    topo = Topology.from_links([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        k_shortest_paths(topo, 0, 3, 2)
    with pytest.raises(RoutingError):
        k_shortest_paths(topo, 0, 1, 0)
