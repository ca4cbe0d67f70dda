"""ECMP enumeration and hashing tests."""

import pytest

from repro.errors import NoPathError
from repro.routing import all_shortest_paths, ecmp_hash, ecmp_path_for_flow
from repro.topology import Topology


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


def test_hash_stable_and_in_range():
    assert ecmp_hash(12345, 4) == ecmp_hash(12345, 4)
    for flow_id in range(200):
        assert 0 <= ecmp_hash(flow_id, 3) < 3


def test_hash_uses_all_buckets(square):
    chosen = {ecmp_path_for_flow(square, 0, 2, fid) for fid in range(50)}
    assert len(chosen) == 2  # both equal-cost paths get traffic


def test_zero_paths_rejected():
    with pytest.raises(NoPathError):
        ecmp_hash(1, 0)
