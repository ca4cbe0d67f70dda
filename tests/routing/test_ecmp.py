"""ECMP enumeration and hashing tests."""

import random

import networkx as nx
import pytest

from repro.errors import NoPathError, RoutingError
from repro.routing import all_shortest_paths, ecmp_hash
from repro.topology import Topology, build_isp_topology, mesh_topology

from networkx_oracle import to_networkx


@pytest.fixture
def square():
    return Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0)])


def test_square_has_two_equal_cost_paths(square):
    paths = all_shortest_paths(square, 0, 2)
    assert sorted(paths) == [(0, 1, 2), (0, 3, 2)]


def test_single_path_graph():
    topo = Topology.from_links([(0, 1), (1, 2)])
    assert all_shortest_paths(topo, 0, 2) == [(0, 1, 2)]


def test_disconnected_raises():
    topo = Topology.from_links([(0, 1), (2, 3)])
    with pytest.raises(NoPathError):
        all_shortest_paths(topo, 0, 2)


def test_unknown_endpoints_raise():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(RoutingError):
        all_shortest_paths(topo, 99, 0)
    with pytest.raises(NoPathError):
        all_shortest_paths(topo, 0, 99)


def test_trivial_path_set():
    topo = Topology.from_links([(0, 1)])
    assert all_shortest_paths(topo, 0, 0) == [(0,)]


@pytest.mark.parametrize(
    "topo",
    [
        build_isp_topology("exodus", seed=0),
        build_isp_topology("tiscali", seed=0),
        *(mesh_topology(40, extra_links=30, seed=seed) for seed in (1, 2, 3)),
    ],
    ids=["exodus", "tiscali", "mesh1", "mesh2", "mesh3"],
)
def test_path_sets_match_networkx(topo):
    """Every equal-hop path networkx finds, and no other, sorted by the
    ``repr`` of the node sequence, on seeded endpoint pairs."""
    graph = to_networkx(topo)
    nodes = topo.nodes()
    rng = random.Random(7)
    for _ in range(300):
        source, destination = rng.choice(nodes), rng.choice(nodes)
        paths = all_shortest_paths(topo, source, destination)
        expected = nx.all_shortest_paths(graph, source, destination)
        assert set(paths) == set(map(tuple, expected))
        assert len(paths) == len(set(paths))
        assert paths == sorted(paths, key=lambda p: tuple(map(repr, p)))


def test_hash_stable_and_in_range():
    assert ecmp_hash(12345, 4) == ecmp_hash(12345, 4)
    for flow_id in range(200):
        assert 0 <= ecmp_hash(flow_id, 3) < 3


def test_hash_uses_all_buckets(square):
    paths = all_shortest_paths(square, 0, 2)
    chosen = {paths[ecmp_hash(fid, len(paths))] for fid in range(50)}
    assert len(chosen) == 2  # both equal-cost paths get traffic


def test_zero_paths_rejected():
    with pytest.raises(NoPathError):
        ecmp_hash(1, 0)
