"""Detour classification and enumeration (the Table 1 machinery)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RoutingError, TopologyError
from repro.routing import (
    DetourClass,
    DetourTable,
    classify_link_detour,
    detour_breakdown,
    find_detour_paths,
)
from repro.topology import Topology, build_isp_topology, fig3_topology


def _cycle(n):
    links = [(i, (i + 1) % n) for i in range(n)]
    return Topology.from_links(links)


def test_triangle_edges_are_one_hop():
    topo = _cycle(3)
    for u, v in topo.links():
        assert classify_link_detour(topo, u, v) is DetourClass.ONE_HOP


def test_square_edges_are_two_hop():
    topo = _cycle(4)
    for u, v in topo.links():
        assert classify_link_detour(topo, u, v) is DetourClass.TWO_HOP


def test_pentagon_edges_are_three_plus():
    topo = _cycle(5)
    for u, v in topo.links():
        assert classify_link_detour(topo, u, v) is DetourClass.THREE_PLUS


def test_bridge_is_none():
    topo = Topology.from_links([(0, 1)])
    assert classify_link_detour(topo, 0, 1) is DetourClass.NONE


def test_unknown_link_raises():
    topo = Topology.from_links([(0, 1)])
    with pytest.raises(TopologyError):
        classify_link_detour(topo, 0, 99)


def test_breakdown_percentages_sum_to_100():
    topo = fig3_topology()
    breakdown = detour_breakdown(topo)
    assert breakdown.total_links == 5
    assert sum(breakdown.percentages()) == pytest.approx(100.0)


def test_fig3_bottleneck_has_one_hop_detour():
    topo = fig3_topology()
    assert classify_link_detour(topo, 2, 4) is DetourClass.ONE_HOP
    assert find_detour_paths(topo, 2, 4, max_intermediate=1) == [(2, 3, 4)]


def test_find_detour_paths_depth_two():
    # 0-1 direct, plus 0-2-1 (one-hop) and 0-3-4-1 (two-hop).
    topo = Topology.from_links([(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    one = find_detour_paths(topo, 0, 1, max_intermediate=1)
    assert one == [(0, 2, 1)]
    two = find_detour_paths(topo, 0, 1, max_intermediate=2)
    assert (0, 2, 1) in two and (0, 3, 4, 1) in two
    # Sorted by length: the 1-hop option comes first.
    assert two[0] == (0, 2, 1)


def test_find_detour_paths_avoids_direct_link():
    topo = _cycle(3)
    for path in find_detour_paths(topo, 0, 1, max_intermediate=2):
        assert path[0] == 0 and path[-1] == 1
        assert len(path) >= 3  # never the direct link itself
        assert len(set(path)) == len(path)


def test_detour_table_orientation():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    assert table.options(2, 4) == [(2, 3, 4)]
    assert table.options(4, 2) == [(4, 3, 2)]
    assert table.has_detour(2, 4)
    assert not table.has_detour(1, 2)  # the access link has no detour
    assert len(table) == topo.num_links


def test_detour_table_rejects_bad_args():
    topo = fig3_topology()
    with pytest.raises(RoutingError):
        DetourTable(topo, max_intermediate=0)
    table = DetourTable(topo)
    with pytest.raises(TopologyError):
        table.options(1, 99)


def test_detour_options_respect_residual_structure():
    # AT&T-style: square-heavy map; every 2-hop-class link must have a
    # depth-2 option and no depth-1 option.
    topo = _cycle(4)
    table = DetourTable(topo, max_intermediate=2)
    for u, v in topo.links():
        options = table.options(u, v)
        assert options, "square links must have depth-2 detours"
        assert all(len(option) == 4 for option in options)


# ----------------------------------------------------------------------
# The detour tables against a plain enumeration: every pair of
# neighbours probed link by link, then a DFS for longer detours.
# ----------------------------------------------------------------------


def _oracle_detours(topo, u, v, max_intermediate):
    results = []
    neighbours_u = set(topo.neighbors(u))
    neighbours_v = set(topo.neighbors(v))
    for w in sorted(neighbours_u & neighbours_v, key=repr):
        if w not in (u, v):
            results.append((u, w, v))
    if max_intermediate >= 2:
        for w1 in sorted(neighbours_u - {v}, key=repr):
            for w2 in sorted(neighbours_v - {u}, key=repr):
                if w1 != w2 and w1 != u and w2 != v and topo.has_link(w1, w2):
                    results.append((u, w1, w2, v))
    if max_intermediate >= 3:
        limit = max_intermediate + 1  # links allowed

        def _dfs(path):
            for neighbour in sorted(topo.neighbors(path[-1]), key=repr):
                if neighbour == v:
                    candidate = tuple(path) + (v,)
                    if len(candidate) >= 5 and candidate not in results:
                        results.append(candidate)
                elif neighbour not in path and len(path) < limit:
                    _dfs(path + [neighbour])

        _dfs([u])
    results.sort(key=lambda p: (len(p), tuple(repr(n) for n in p)))
    return results


def _assert_table_matches_oracle(topo, depth):
    table = DetourTable(topo, max_intermediate=depth)
    for u, v in topo.links():
        expected = _oracle_detours(topo, u, v, depth)
        assert table.options(u, v) == expected
        assert table.options(v, u) == [tuple(reversed(p)) for p in expected]
        assert find_detour_paths(topo, u, v, depth) == expected


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("isp", ["exodus", "ebone", "tiscali"])
def test_detour_table_matches_oracle_on_isp_maps(isp, depth):
    _assert_table_matches_oracle(build_isp_topology(isp, seed=0), depth)


_LABELS = st.one_of(
    st.integers(-20, 60),
    st.text("abxy01", max_size=3),
    st.tuples(st.integers(0, 3), st.text("ab", max_size=2)),
)


@settings(deadline=None, max_examples=40)
@given(labels=st.lists(_LABELS, min_size=3, max_size=14, unique=True), data=st.data())
def test_detour_table_matches_oracle_on_mixed_type_meshes(labels, data):
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
    for depth in (1, 2, 3):
        _assert_table_matches_oracle(topo, depth)
