"""Incremental INRP allocator: detour-closure components vs scratch."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.flowsim import (
    IncrementalInrp,
    detour_closure,
    inrp_allocation,
    make_strategy,
)
from repro.routing import DetourTable, shortest_path
from repro.routing.paths import path_links
from repro.topology import Topology, fig3_topology, mesh_topology
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads import uniform_pairs
from repro.workloads.traffic import local_pairs


def _assert_matches_scratch(allocator, capacities, table, paths, demands):
    scratch = inrp_allocation(capacities, paths, demands, table)
    rates = allocator.rates
    assert set(rates) == set(scratch.rates)
    for flow, rate in scratch.rates.items():
        assert rates[flow] == pytest.approx(rate, abs=1e-9, rel=1e-9)


def test_fig3_rates_and_splits_match_scratch():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    allocator = IncrementalInrp(topo.directed_capacities(), table)
    allocator.add_flow(1, shortest_path(topo, 1, 4), mbps(10))
    allocator.add_flow(2, shortest_path(topo, 1, 5), mbps(10))
    rates, splits, switches = allocator.recompute()
    # The paper's Fig. 3 right: both flows get 5 Mbps, flow 1 carries
    # 2 Mbps direct + 3 Mbps via the node-3 detour.
    assert rates[1] == pytest.approx(mbps(5))
    assert rates[2] == pytest.approx(mbps(5))
    split = {tuple(path): rate for path, rate in splits[1]}
    assert split[(1, 2, 4)] == pytest.approx(mbps(2))
    assert split[(1, 2, 3, 4)] == pytest.approx(mbps(3))
    assert switches == 1


def _two_island_topology():
    """Two disconnected bottleneck links: a1-a2 and b1-b2."""
    topo = Topology()
    topo.add_link("a1", "a2", capacity=mbps(10))
    topo.add_link("b1", "b2", capacity=mbps(10))
    return topo


def test_untouched_closure_component_not_recomputed():
    topo = _two_island_topology()
    table = DetourTable(topo, max_intermediate=1)
    allocator = IncrementalInrp(topo.directed_capacities(), table)
    allocator.add_flow("left", ("a1", "a2"), mbps(10))
    allocator.add_flow("right", ("b1", "b2"), mbps(10))
    allocator.recompute()
    allocator.add_flow("right2", ("b1", "b2"), mbps(10))
    rates, splits, _ = allocator.recompute()
    assert "left" not in rates and "left" not in splits
    assert rates["right"] == pytest.approx(mbps(5))
    assert rates["right2"] == pytest.approx(mbps(5))
    assert allocator.rates["left"] == pytest.approx(mbps(10))


def _triangle_and_bar_topology():
    """Two islands: a triangle x1-x2-x3, where x1-x2 can detour via x3,
    and a bare b1-b2 link with no detour."""
    topo = Topology()
    topo.add_link("x1", "x2", capacity=mbps(10))
    topo.add_link("x1", "x3", capacity=mbps(10))
    topo.add_link("x3", "x2", capacity=mbps(10))
    topo.add_link("b1", "b2", capacity=mbps(10))
    return topo


# The "vectorized" id names the fill these tests cover: the CSR
# kernel's inrp_fill, IncrementalInrp's only fill.
@pytest.mark.parametrize("fill", ["vectorized"])
def test_full_refill_fills_only_the_dirty_component(fill):
    """``full=True`` re-fills the dirty island alone, yet reports the
    switch count of a whole-population fill: the clean island's detour
    switch is carried over from its last fill."""
    topo = _triangle_and_bar_topology()
    capacities = topo.directed_capacities()
    table = DetourTable(topo, max_intermediate=1)
    allocator = IncrementalInrp(capacities, table)
    paths = {"tri": ("x1", "x2"), "bar": ("b1", "b2")}
    demands = {"tri": mbps(20), "bar": mbps(10)}
    for flow in paths:
        allocator.add_flow(flow, paths[flow], demands[flow])
    allocator.recompute()
    paths["bar2"], demands["bar2"] = ("b1", "b2"), mbps(10)
    allocator.add_flow("bar2", paths["bar2"], demands["bar2"])
    rates, splits, switches = allocator.recompute(full=True)
    assert set(rates) == set(splits) == {"bar", "bar2"}
    assert set(allocator.rates) == {"tri", "bar", "bar2"}
    # The detour via x3 lends tri its whole 10 Mbps.
    assert allocator.rates["tri"] == pytest.approx(mbps(20))
    assert rates["bar"] == pytest.approx(mbps(5))
    scratch = inrp_allocation(capacities, paths, demands, table)
    assert scratch.flow_switches["tri"] == 1
    assert switches == scratch.switches
    # Nothing dirty: no fill, but the same whole-population count.
    assert allocator.recompute(full=True) == ({}, {}, scratch.switches)
    assert allocator.recompute() == ({}, {}, 0)


@pytest.mark.parametrize("fill", ["vectorized"])
@pytest.mark.parametrize("topology", ["fig3", "ebone"])
def test_mixed_full_refills_match_scratch_under_churn(topology, fill):
    """Seeded churn with ``full=True`` and ``full=False`` recomputes
    mixed at random: rates stay within 1e-9 of scratch, and every full
    recompute reports exactly the switches of a from-scratch fill over
    the active population."""
    if topology == "fig3":
        topo = fig3_topology()
        sampler = uniform_pairs(topo, seed=7)
    else:
        # Local pairs keep several closure components apart, so full
        # recomputes leave clean components with detour switches.
        topo = build_isp_topology("ebone", seed=0)
        sampler = local_pairs(topo, seed=7, max_hops=2)
    capacities = topo.directed_capacities()
    table = DetourTable(topo)
    allocator = IncrementalInrp(capacities, table, verify=True)
    rng = random.Random(11)
    paths, demands = {}, {}
    full_refills = switched = 0
    for next_id in range(150):
        if paths and rng.random() < 0.45:
            victim = rng.choice(sorted(paths))
            allocator.remove_flow(victim)
            del paths[victim], demands[victim]
        else:
            src, dst = sampler()
            paths[next_id] = tuple(shortest_path(topo, src, dst))
            demands[next_id] = mbps(rng.choice([1, 4, 12]))
            allocator.add_flow(next_id, paths[next_id], demands[next_id])
        full = rng.random() < 0.5
        _, _, switches = allocator.recompute(full=full)
        _assert_matches_scratch(allocator, capacities, table, paths, demands)
        if full:
            scratch = inrp_allocation(capacities, paths, demands, table)
            assert switches == scratch.switches
            full_refills += 1
            switched += scratch.switches > 0
    assert full_refills > 0
    assert switched > 0
    assert allocator.max_verify_deviation <= 1e-9


def test_recompute_without_churn_is_empty():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    allocator = IncrementalInrp(topo.directed_capacities(), table)
    allocator.add_flow(1, shortest_path(topo, 1, 4), mbps(10))
    allocator.recompute()
    assert allocator.recompute() == ({}, {}, 0)


def test_linkless_flow_gets_full_demand():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    allocator = IncrementalInrp(topo.directed_capacities(), table)
    allocator.add_flow(1, (2,), mbps(7))
    rates, splits, switches = allocator.recompute()
    assert rates[1] == mbps(7)
    assert switches == 0


def test_validation_errors():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    allocator = IncrementalInrp(topo.directed_capacities(), table)
    with pytest.raises(SimulationError):
        allocator.add_flow(1, (1, 99), 1.0)
    with pytest.raises(SimulationError):
        allocator.add_flow(1, (1, 2), -1.0)
    allocator.add_flow(1, (1, 2), 1.0)
    with pytest.raises(SimulationError):
        allocator.add_flow(1, (1, 2), 1.0)
    with pytest.raises(SimulationError):
        allocator.remove_flow(2)
    assert 1 in allocator and len(allocator) == 1


def test_allocator_checks_its_budget_and_table():
    """A replacement budget needs a detour table, and a budget is never
    negative: both fail at construction, not at the first flow.  A
    budget of 0 needs no table (e2e max-min) and ignores one."""
    topo = fig3_topology()
    capacities = topo.directed_capacities()
    table = DetourTable(topo, max_intermediate=1)
    with pytest.raises(ConfigurationError, match="needs a detour table"):
        IncrementalInrp(capacities, None)
    with pytest.raises(ConfigurationError, match="needs a detour table"):
        IncrementalInrp(capacities, None, max_replacements=1)
    for detour_table in (None, table):
        with pytest.raises(ConfigurationError, match=">= 0"):
            IncrementalInrp(capacities, detour_table, max_replacements=-1)
    rates = []
    for detour_table in (None, table):
        allocator = IncrementalInrp(capacities, detour_table, max_replacements=0)
        allocator.add_flow(1, shortest_path(topo, 1, 4), mbps(10))
        allocator.add_flow(2, shortest_path(topo, 1, 5), mbps(10))
        rates.append(allocator.recompute()[0])
    # Fig. 3 left: with no detour the shared link splits (2, 8).
    assert rates[0] == rates[1] == {1: mbps(2), 2: mbps(8)}


def test_detour_closure_rounds():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    path = shortest_path(topo, 1, 4)
    primary = set(path_links(path))
    closure0 = detour_closure(path, table, 0)
    assert closure0 == frozenset(primary)
    closure1 = detour_closure(path, table, 1)
    closure2 = detour_closure(path, table, 2)
    # Fig. 3: the node-3 detour around (2, 4) joins at round 1.
    assert primary < closure1 <= closure2
    assert (2, 3) in closure1 and (3, 4) in closure1


@settings(deadline=None, max_examples=15)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    churn=st.lists(
        st.integers(min_value=0, max_value=4), min_size=4, max_size=30
    ),
    demand=st.floats(min_value=0.5, max_value=30.0),
)
def test_incremental_inrp_matches_scratch_under_churn(seed, churn, demand):
    """Property: after any arrival/departure sequence, the incremental
    rates equal from-scratch ``inrp_allocation`` on the survivors.
    ``verify=True`` additionally cross-checks inside every recompute."""
    topo = mesh_topology(12, extra_links=10, seed=seed, capacity=10.0)
    capacities = topo.directed_capacities()
    table = DetourTable(topo, max_intermediate=1)
    sampler = uniform_pairs(topo, seed=seed + 1)
    allocator = IncrementalInrp(capacities, table, verify=True)
    paths = {}
    demands = {}
    next_id = 0
    for action in churn:
        if action == 0 and paths:
            victim = next(iter(paths))
            allocator.remove_flow(victim)
            del paths[victim]
            del demands[victim]
        else:
            src, dst = sampler()
            path = tuple(shortest_path(topo, src, dst))
            allocator.add_flow(next_id, path, demand)
            paths[next_id] = path
            demands[next_id] = demand
            next_id += 1
        allocator.recompute()  # raises SimulationError on divergence
        _assert_matches_scratch(allocator, capacities, table, paths, demands)
    assert allocator.max_verify_deviation <= 1e-9


def _sprint_local_paths(count):
    topo = build_isp_topology("sprint", seed=0)
    strategy = make_strategy("sp", topo)
    sampler = local_pairs(topo, seed=1, max_hops=3)
    paths = [strategy.route(flow, *sampler()) for flow in range(count)]
    return topo, paths


def test_departed_flows_leave_no_reach_behind():
    """Once every flow has departed, the allocator keeps no closure,
    reach or column entry, and it has no link -> flows map at all: a
    closure lives as long as its flow, not as long as the allocator."""
    topo, paths = _sprint_local_paths(120)
    allocator = make_strategy("inrp", topo).incremental_allocator()
    for flow, path in enumerate(paths):
        allocator.add_flow(flow, path, mbps(10))
        if flow % 3 == 0:
            allocator.recompute()
    allocator.recompute()
    for flow in range(len(paths)):
        allocator.remove_flow(flow)
    allocator.recompute()
    assert len(allocator) == 0
    assert not getattr(allocator, "_closure_cache", {})
    assert allocator._reach == {}
    assert allocator._cols == {}
    assert not hasattr(allocator, "_members")
