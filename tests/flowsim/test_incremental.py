"""The incremental allocator with no detours (e2e max-min, as SP and
ECMP build it): equality with from-scratch filling."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.flowsim import (
    IncrementalInrp,
    detour_closure,
    inrp_allocation,
    make_strategy,
)
from repro.routing import shortest_path
from repro.routing.paths import path_links
from repro.topology import mesh_topology
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads import local_pairs, uniform_pairs


def _maxmin(capacities, verify=False):
    """The allocator SP and ECMP build: no detour table, budget 0."""
    return IncrementalInrp(capacities, None, max_replacements=0, verify=verify)


def _assert_matches_scratch(allocator, capacities, flow_paths, demands):
    scratch = inrp_allocation(capacities, flow_paths, demands, None).rates
    rates = allocator.rates
    assert set(rates) == set(scratch)
    for flow, rate in scratch.items():
        assert rates[flow] == pytest.approx(rate, abs=1e-6, rel=1e-6)


def test_single_link_share_and_release():
    allocator = _maxmin({("a", "b"): 9.0})
    for flow in (1, 2, 3):
        allocator.add_flow(flow, ("a", "b"), 100.0)
    changed, splits, switches = allocator.recompute()
    assert changed[1] == pytest.approx(3.0)
    # One split per flow, its path at its rate; no detour switches.
    assert splits == {flow: [(("a", "b"), rate)] for flow, rate in changed.items()}
    assert switches == 0
    allocator.remove_flow(2)
    changed, _, _ = allocator.recompute()
    assert changed[1] == pytest.approx(4.5)
    assert changed[3] == pytest.approx(4.5)


def test_untouched_component_is_not_recomputed():
    # Two disjoint links: churn on "b" must not report "a"'s flow.
    allocator = _maxmin({("a", "b"): 10.0, ("c", "d"): 10.0})
    allocator.add_flow("left", ("a", "b"), 100.0)
    allocator.add_flow("right", ("c", "d"), 100.0)
    allocator.recompute()
    allocator.add_flow("right2", ("c", "d"), 100.0)
    changed, _, _ = allocator.recompute()
    assert "left" not in changed
    assert changed["right"] == pytest.approx(5.0)
    assert changed["right2"] == pytest.approx(5.0)
    assert allocator.rates["left"] == pytest.approx(10.0)


def test_recompute_without_churn_is_empty():
    allocator = _maxmin({("a", "b"): 1.0})
    allocator.add_flow(1, ("a", "b"), 5.0)
    allocator.recompute()
    assert allocator.recompute() == ({}, {}, 0)


def test_linkless_flow_gets_full_demand():
    allocator = _maxmin({("a", "b"): 1.0})
    allocator.add_flow(1, ("a",), 42.0)
    assert allocator.recompute()[0][1] == 42.0


def test_validation_errors():
    allocator = _maxmin({("a", "b"): 1.0})
    with pytest.raises(SimulationError):
        allocator.add_flow(1, ("a", "nope"), 1.0)
    with pytest.raises(SimulationError):
        allocator.add_flow(1, ("a", "b"), -1.0)
    allocator.add_flow(1, ("a", "b"), 1.0)
    with pytest.raises(SimulationError):
        allocator.add_flow(1, ("a", "b"), 1.0)
    with pytest.raises(SimulationError):
        allocator.remove_flow(2)


def test_membership_and_len():
    allocator = _maxmin({("a", "b"): 1.0})
    assert 1 not in allocator and len(allocator) == 0
    allocator.add_flow(1, ("a", "b"), 1.0)
    assert 1 in allocator and len(allocator) == 1


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    churn=st.lists(
        st.integers(min_value=0, max_value=4), min_size=4, max_size=40
    ),
    demand=st.floats(min_value=0.5, max_value=30.0),
)
def test_incremental_matches_scratch_under_churn(seed, churn, demand):
    """Property: after any add/remove sequence, the incremental rates
    equal from-scratch progressive filling on the surviving flows."""
    topo = mesh_topology(15, extra_links=12, seed=seed, capacity=10.0)
    capacities = topo.directed_capacities()
    sampler = uniform_pairs(topo, seed=seed + 1)
    allocator = _maxmin(capacities)
    flow_paths = {}
    demands = {}
    next_id = 0
    for action in churn:
        if action == 0 and flow_paths:
            # Remove the oldest surviving flow.
            victim = next(iter(flow_paths))
            allocator.remove_flow(victim)
            del flow_paths[victim]
            del demands[victim]
        else:
            src, dst = sampler()
            path = shortest_path(topo, src, dst)
            allocator.add_flow(next_id, path, demand)
            flow_paths[next_id] = path
            demands[next_id] = demand
            next_id += 1
        allocator.recompute()
        _assert_matches_scratch(allocator, capacities, flow_paths, demands)


def test_verify_mode_accepts_correct_state():
    topo = mesh_topology(10, extra_links=8, seed=3, capacity=mbps(10))
    capacities = topo.directed_capacities()
    sampler = uniform_pairs(topo, seed=4)
    allocator = _maxmin(capacities, verify=True)
    for flow_id in range(12):
        src, dst = sampler()
        allocator.add_flow(flow_id, shortest_path(topo, src, dst), mbps(5))
        allocator.recompute()  # raises SimulationError on divergence
    for flow_id in range(0, 12, 2):
        allocator.remove_flow(flow_id)
        allocator.recompute()


def test_verify_mode_rejects_a_rate_off_by_1e_8():
    """``verify=True`` holds max-min to the same 1e-9 relative bar as
    INRP: a rate perturbed by 1e-8 relative raises."""
    allocator = _maxmin({("a", "b"): mbps(9)}, verify=True)
    for flow in (1, 2, 3):
        allocator.add_flow(flow, ("a", "b"), mbps(100))
    allocator.recompute()
    allocator._rates[1] *= 1.0 + 1e-8
    with pytest.raises(SimulationError, match="diverged"):
        allocator._check_against_scratch()


def _reachable_from(dirty, reaches):
    """Flows a BFS over every live flow's reach finds from *dirty*."""
    by_link = {}
    for flow, links in reaches.items():
        for link in links:
            by_link.setdefault(link, []).append(flow)
    found = set()
    stack = [link for link in dirty if link in by_link]
    seen = set(stack)
    while stack:
        for flow in by_link[stack.pop()]:
            if flow not in found:
                found.add(flow)
                for link in reaches[flow]:
                    if link not in seen:
                        seen.add(link)
                        stack.append(link)
    return found


@pytest.mark.parametrize("name", ["sp", "inrp"])
def test_dirty_component_size_is_exact_under_churn(name):
    """Before every recompute, the full-refill probe counts exactly the
    flows a BFS over every live flow's reach finds from the dirty links
    (plus dirty link-less flows), across tracker rebuilds: the tracker
    class the probe searches is only a superset of that component."""
    topo = build_isp_topology("sprint", seed=0)
    strategy = make_strategy(name, topo)
    sampler = local_pairs(topo, seed=5, max_hops=3)
    allocator = strategy.incremental_allocator()
    rng = random.Random(17)
    reaches = {}
    dirty = set()
    linkless = set()
    nonzero = 0
    for flow in range(700):
        if reaches and rng.random() < len(reaches) / 120:
            victim = rng.choice(sorted(reaches))
            allocator.remove_flow(victim)
            dirty.update(reaches.pop(victim))
            linkless.discard(victim)
        elif flow % 50 == 0:
            node = sampler()[0]
            allocator.add_flow(flow, (node,), mbps(10))
            reaches[flow] = ()
            linkless.add(flow)
        else:
            path = strategy.route(flow, *sampler())
            allocator.add_flow(flow, path, mbps(rng.choice((2, 10, 40))))
            if name == "inrp":
                reaches[flow] = detour_closure(
                    path, strategy.detour_table, strategy.max_replacements
                )
            else:
                reaches[flow] = path_links(path)
            dirty.update(reaches[flow])
        if rng.random() < 0.4:
            want = len(_reachable_from(dirty, reaches)) + len(linkless)
            assert allocator.dirty_component_size() == want
            nonzero += want > 0
            allocator.recompute()
            dirty.clear()
            linkless.clear()
    assert allocator._tracker.rebuilds >= 3
    assert nonzero > 100
