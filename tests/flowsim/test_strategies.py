"""Strategy object tests (SP / ECMP / INRP)."""

import gc
import math
import random
import tracemalloc

import pytest
from oracles import _scratch_allocate

from repro.errors import ConfigurationError, NoPathError, RoutingError
from repro.flowsim import RoutingStrategy, make_strategy
from repro.flowsim import strategies
from repro.routing import hop_tree, shortest_path
from repro.topology import (
    Topology,
    build_isp_topology,
    fig3_topology,
    mesh_topology,
)
from repro.units import mbps


def test_factory_names():
    topo = fig3_topology()
    assert make_strategy("sp", topo).name == "SP"
    assert make_strategy("ecmp", topo).name == "ECMP"
    assert make_strategy("inrp", topo).name == "INRP"
    with pytest.raises(ConfigurationError):
        make_strategy("ospf", topo)


def test_sp_allocation_matches_paper():
    topo = fig3_topology()
    strategy = make_strategy("sp", topo)
    flows = {
        1: (strategy.route(1, 1, 4), mbps(10)),
        2: (strategy.route(2, 1, 5), mbps(10)),
    }
    outcome = strategy.allocate(flows)
    assert outcome.rates[1] == pytest.approx(mbps(2))
    assert outcome.rates[2] == pytest.approx(mbps(8))
    assert outcome.switches == 0


@pytest.mark.parametrize("name", ["sp", "inrp"])
def test_repeated_link_counts_once(name):
    """A primary path that crosses directed link (2, 4) twice loads it
    once, as the scratch solver does: ``allocate`` matches it, and a
    verified allocator fed the same flows does not diverge."""
    strategy = make_strategy(name, fig3_topology())
    flows = {0: ((2, 4, 2, 4), mbps(100)), 1: ((2, 4), mbps(100))}
    rates, _, _ = _scratch_allocate(strategy, flows)
    outcome = strategy.allocate(flows)
    assert outcome.rates == pytest.approx(rates, rel=1e-12)
    allocator = strategy.incremental_allocator(verify=True)
    for fid, (path, demand) in flows.items():
        allocator.add_flow(fid, path, demand)
    allocator.recompute()  # raises SimulationError on divergence
    assert allocator.max_verify_deviation <= 1e-9


def test_inrp_allocation_matches_paper():
    topo = fig3_topology()
    strategy = make_strategy("inrp", topo)
    flows = {
        1: (strategy.route(1, 1, 4), mbps(10)),
        2: (strategy.route(2, 1, 5), mbps(10)),
    }
    outcome = strategy.allocate(flows)
    assert outcome.rates[1] == pytest.approx(mbps(5))
    assert outcome.rates[2] == pytest.approx(mbps(5))
    assert outcome.switches >= 1


def test_inrp_backpressured_flows_reported():
    # Line with a hard bottleneck and no detour: the flow freezes with
    # "no-detour", i.e. the fluid equivalent of back-pressure.
    topo = Topology.from_links([(0, 1), (1, 2)], capacity=mbps(2))
    topo.set_capacity(0, 1, mbps(10))
    strategy = make_strategy("inrp", topo)
    flows = {1: (strategy.route(1, 0, 2), mbps(10))}
    outcome = strategy.allocate(flows)
    assert outcome.rates[1] == pytest.approx(mbps(2))
    assert outcome.backpressured == [1]


def test_ecmp_spreads_flows_on_square():
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 0)])
    strategy = make_strategy("ecmp", topo)
    routes = {strategy.route(fid, 0, 2) for fid in range(40)}
    assert routes == {(0, 1, 2), (0, 3, 2)}


def test_sp_route_is_deterministic():
    topo = fig3_topology()
    strategy = make_strategy("sp", topo)
    assert strategy.route(1, 1, 4) == strategy.route(2, 1, 4)


@pytest.fixture
def tree_searches(monkeypatch):
    """Count the tree searches routing makes."""
    calls = []
    search = strategies.dijkstra

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(strategies, "dijkstra", counted)
    return calls


def test_sp_routes_match_shortest_path_for_all_pairs():
    topo = build_isp_topology("ebone", seed=0)
    strategy = make_strategy("sp", topo)
    pairs = [(s, d) for s in topo.nodes() for d in topo.nodes()]
    random.Random(7).shuffle(pairs)
    for fid, (source, destination) in enumerate(pairs):
        assert strategy.route(fid, source, destination) == shortest_path(
            topo, source, destination
        )


def test_sp_route_searches_further_for_a_deeper_destination(tree_searches):
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    strategy = make_strategy("sp", topo)
    assert strategy.route(1, 0, 1) == (0, 1)
    assert len(tree_searches) == 1
    # Node 5 is two hops out, past the level the first search stopped
    # at: the tree is searched again and replaces the first.
    assert strategy.route(2, 0, 5) == (0, 1, 5)
    assert len(tree_searches) == 2
    assert strategy.route(3, 0, 2) == (0, 1, 2)
    assert len(tree_searches) == 2
    assert strategy.route(4, 0, 4) == (0, 1, 2, 3, 4)
    assert len(tree_searches) == 3
    assert len(strategy._sp_trees) == 1


def test_sp_route_to_itself_keeps_the_cached_tree(tree_searches):
    topo = Topology.from_links([(0, 1), (1, 2), (2, 3)])
    strategy = make_strategy("sp", topo)
    assert strategy.route(1, 0, 3) == (0, 1, 2, 3)
    tree = strategy._sp_trees[0]
    assert strategy.route(2, 0, 0) == (0,)
    assert strategy._sp_trees[0] is tree
    assert strategy.route(3, 0, 2) == (0, 1, 2)
    assert len(tree_searches) == 1


def test_sp_route_unknown_nodes_raise():
    strategy = make_strategy("sp", Topology.from_links([(0, 1)]))
    with pytest.raises(RoutingError):
        strategy.route(1, 99, 0)
    with pytest.raises(RoutingError):
        strategy.route(2, 0, 99)
    with pytest.raises(RoutingError):
        strategy.route(3, 99, 99)


def test_sp_route_unreachable_destination_raises_every_time():
    topo = Topology.from_links([(0, 1), (1, 2), (3, 4)])
    strategy = make_strategy("sp", topo)
    for fid in range(3):
        with pytest.raises(NoPathError):
            strategy.route(fid, 0, 4)
    assert strategy.route(9, 0, 2) == (0, 1, 2)


def test_sp_streaming_state_does_not_grow_with_the_flow_count():
    """Once every source's tree is built, streaming SP flows over fresh
    pairs through routing and the allocator leaves nothing behind: no
    route, path or link set is kept per pair or per departed flow."""
    topo = build_isp_topology("exodus", seed=0)
    strategy = make_strategy("sp", topo)
    nodes = topo.nodes()
    for source in nodes:
        strategy._sp_trees[source] = hop_tree(topo, source)
    allocator = strategy.incremental_allocator()
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    random.Random(0).shuffle(pairs)

    def stream(first, count, live=8):
        flows = []
        for flow in range(first, first + count):
            allocator.add_flow(flow, strategy.route(flow, *pairs[flow]), mbps(10))
            flows.append(flow)
            if len(flows) > live:
                allocator.remove_flow(flows.pop(0))
            allocator.recompute()
        for flow in flows:
            allocator.remove_flow(flow)
        allocator.recompute()

    stream(0, 200)  # warm the allocator's own buffers
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        stream(200, 800)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # A per-pair route or links cache adds ~1.3 MB here; interpreter
    # free lists account for tens of KB.
    assert after - before < 128 << 10
    assert len(allocator) == 0


def test_inrp_walk_state_does_not_grow_with_the_flow_count():
    """INRP churn over fresh pairs with a bounded live set: the detour
    walk's per-path entries live for one tracker epoch, so memory comes
    back to where it was once the per-link option cache is warm."""
    topo = mesh_topology(40, 40, seed=0)
    strategy = make_strategy("inrp", topo)
    nodes = topo.nodes()
    for source in nodes:
        strategy._sp_trees[source] = hop_tree(topo, source)
    allocator = strategy.incremental_allocator()
    pairs = [(s, d) for s in nodes for d in nodes if s != d]
    random.Random(0).shuffle(pairs)

    def stream(first, count, live=8):
        flows = []
        for flow in range(first, first + count):
            # No demand cap: every fill saturates links and walks.
            route = strategy.route(flow, *pairs[flow])
            allocator.add_flow(flow, route, math.inf)
            flows.append(flow)
            if len(flows) > live:
                allocator.remove_flow(flows.pop(0))
            allocator.recompute()
        for flow in flows:
            allocator.remove_flow(flow)
        allocator.recompute()

    stream(0, 300)  # warm the option cache: it is keyed by link
    tracemalloc.start()
    try:
        gc.collect()  # a fill's closures are freed by the cycle collector
        before = tracemalloc.get_traced_memory()[0]
        stream(300, 600)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Entries kept for every path ever walked add ~0.8 MB here.
    assert after - before < 128 << 10
    assert len(allocator) == 0


def test_inrp_depth_zero_equals_sp():
    topo = fig3_topology()
    sp = make_strategy("sp", topo)
    inrp0 = make_strategy("inrp", topo, detour_depth=0)
    flows = {
        1: (sp.route(1, 1, 4), mbps(10)),
        2: (sp.route(2, 1, 5), mbps(10)),
    }
    assert inrp0.allocate(flows).rates == pytest.approx(sp.allocate(flows).rates)


def test_tree_cache_is_sized_by_the_tree_itemsize():
    """The tree LRU holds as many trees as the byte budget fits at the
    packed array's itemsize (2 bytes per node on the shipped maps)."""
    topo = build_isp_topology("sprint", seed=0)
    strategy = make_strategy("sp", topo)
    num_nodes = len(topo.nodes())
    tree = strategy._packed_tree(topo.nodes()[0], 1)
    assert tree.itemsize == 2
    assert strategy._tree_cache_size == max(
        64, RoutingStrategy._TREE_CACHE_BUDGET_BYTES // (tree.itemsize * num_nodes)
    )


def test_tree_cache_evicts_the_least_recently_used_source(monkeypatch):
    """The tree LRU orders sources by their last route, not by their
    first: with room for two trees, routing from A, B, A, C evicts B
    and keeps A.  Routing from B again searches anew and finds the
    same path."""
    topo = build_isp_topology("exodus", seed=0)
    strategy = make_strategy("sp", topo)
    strategy._tree_cache_size = 2
    searched = []
    search = strategies.dijkstra

    def counted(topology, source, target):
        searched.append(source)
        return search(topology, source, target)

    monkeypatch.setattr(strategies, "dijkstra", counted)
    a, b, c, destination = topo.nodes()[:4]
    paths = {}
    for flow, source in enumerate((a, b, a, c)):
        paths.setdefault(source, strategy.route(flow, source, destination))
    assert searched == [a, b, c]
    assert list(strategy._sp_trees) == [a, c]
    again = strategy.route(4, b, destination)
    assert again == paths[b] == shortest_path(topo, b, destination)
    assert searched == [a, b, c, b]
    assert list(strategy._sp_trees) == [c, b]


def test_inrp_rejects_negative_depth():
    with pytest.raises(ConfigurationError):
        make_strategy("inrp", fig3_topology(), detour_depth=-1)


def test_every_strategy_needs_an_incremental_allocator():
    """The event core has no full-recompute fallback, so a strategy
    without an incremental allocator cannot be built."""

    class AllocateOnly(RoutingStrategy):
        def allocate(self, flows):
            raise NotImplementedError

    with pytest.raises(TypeError):
        AllocateOnly(fig3_topology())
