"""Max-min progressive-filling allocator tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.flowsim import max_min_allocation
from repro.metrics import max_min_violations
from repro.routing import shortest_path
from repro.routing.paths import path_links
from repro.topology import fig3_topology, mesh_topology
from repro.units import mbps
from repro.workloads import uniform_pairs


def test_equal_share_on_single_link():
    rates = max_min_allocation(
        {"l": 9.0},
        {1: ["l"], 2: ["l"], 3: ["l"]},
        {1: 100.0, 2: 100.0, 3: 100.0},
    )
    assert all(rate == pytest.approx(3.0) for rate in rates.values())


def test_demand_caps_release_capacity():
    rates = max_min_allocation(
        {"l": 10.0},
        {1: ["l"], 2: ["l"]},
        {1: 2.0, 2: 100.0},
    )
    assert rates[1] == pytest.approx(2.0)
    assert rates[2] == pytest.approx(8.0)


def test_fig3_e2e_arithmetic():
    # The paper's Fig. 3 left: (2, 8) on the shared 10 Mbps link.
    topo = fig3_topology()
    capacities = topo.directed_capacities()
    flow_links = {
        1: path_links(shortest_path(topo, 1, 4)),
        2: path_links(shortest_path(topo, 1, 5)),
    }
    demands = {1: mbps(10), 2: mbps(10)}
    rates = max_min_allocation(capacities, flow_links, demands)
    assert rates[1] == pytest.approx(mbps(2))
    assert rates[2] == pytest.approx(mbps(8))


def test_empty_path_gets_full_demand():
    rates = max_min_allocation({"l": 1.0}, {1: []}, {1: 42.0})
    assert rates[1] == 42.0


def test_zero_demand():
    rates = max_min_allocation({"l": 1.0}, {1: ["l"]}, {1: 0.0})
    assert rates[1] == 0.0


def test_unknown_link_rejected():
    with pytest.raises(SimulationError):
        max_min_allocation({"l": 1.0}, {1: ["nope"]}, {1: 1.0})


def test_missing_demand_rejected():
    with pytest.raises(SimulationError):
        max_min_allocation({"l": 1.0}, {1: ["l"]}, {})


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
    flow_links = {}
    demands = {}
    for flow_id in range(num_flows):
        src, dst = sampler()
        flow_links[flow_id] = path_links(shortest_path(topo, src, dst))
        demands[flow_id] = demand
    capacities = topo.directed_capacities()
    rates = max_min_allocation(capacities, flow_links, demands)
    assert (
        max_min_violations(rates, demands, flow_links, capacities, tolerance=1e-5)
        == []
    )
