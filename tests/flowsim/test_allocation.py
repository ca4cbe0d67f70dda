"""Max-min progressive filling: the scratch solver with no detour table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.flowsim import inrp_allocation
from repro.metrics import max_min_violations
from repro.routing import shortest_path
from repro.routing.paths import path_links
from repro.topology import fig3_topology, mesh_topology
from repro.units import mbps
from repro.workloads import uniform_pairs


def _max_min(capacities, flow_paths, demands):
    return inrp_allocation(capacities, flow_paths, demands, None).rates


def test_equal_share_on_single_link():
    rates = _max_min(
        {("a", "b"): 9.0},
        {1: ("a", "b"), 2: ("a", "b"), 3: ("a", "b")},
        {1: 100.0, 2: 100.0, 3: 100.0},
    )
    assert all(rate == pytest.approx(3.0) for rate in rates.values())


def test_demand_caps_release_capacity():
    rates = _max_min(
        {("a", "b"): 10.0},
        {1: ("a", "b"), 2: ("a", "b")},
        {1: 2.0, 2: 100.0},
    )
    assert rates[1] == pytest.approx(2.0)
    assert rates[2] == pytest.approx(8.0)


def test_fig3_e2e_arithmetic():
    # The paper's Fig. 3 left: (2, 8) on the shared 10 Mbps link.
    topo = fig3_topology()
    capacities = topo.directed_capacities()
    flow_paths = {1: shortest_path(topo, 1, 4), 2: shortest_path(topo, 1, 5)}
    demands = {1: mbps(10), 2: mbps(10)}
    rates = _max_min(capacities, flow_paths, demands)
    assert rates[1] == pytest.approx(mbps(2))
    assert rates[2] == pytest.approx(mbps(8))


def test_empty_path_gets_full_demand():
    rates = _max_min({("a", "b"): 1.0}, {1: ("a",)}, {1: 42.0})
    assert rates[1] == 42.0


def test_zero_demand():
    rates = _max_min({("a", "b"): 1.0}, {1: ("a", "b")}, {1: 0.0})
    assert rates[1] == 0.0


def test_unknown_link_rejected():
    with pytest.raises(SimulationError, match="unknown link"):
        _max_min({("a", "b"): 1.0}, {1: ("a", "nope")}, {1: 1.0})


def test_missing_demand_rejected():
    with pytest.raises(SimulationError, match="no demand"):
        _max_min({("a", "b"): 1.0}, {1: ("a", "b")}, {})


@settings(deadline=None, max_examples=25)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    num_flows=st.integers(min_value=1, max_value=25),
    demand=st.floats(min_value=0.5, max_value=30.0),
)
def test_max_min_certificate_on_random_instances(seed, num_flows, demand):
    """Property: progressive filling always passes the bottleneck
    characterisation of max-min fairness."""
    topo = mesh_topology(15, extra_links=12, seed=seed, capacity=10.0)
    sampler = uniform_pairs(topo, seed=seed + 1)
    flow_paths = {}
    demands = {}
    for flow_id in range(num_flows):
        src, dst = sampler()
        flow_paths[flow_id] = shortest_path(topo, src, dst)
        demands[flow_id] = demand
    capacities = topo.directed_capacities()
    rates = _max_min(capacities, flow_paths, demands)
    flow_links = {flow: path_links(path) for flow, path in flow_paths.items()}
    assert (
        max_min_violations(rates, demands, flow_links, capacities, tolerance=1e-5)
        == []
    )
