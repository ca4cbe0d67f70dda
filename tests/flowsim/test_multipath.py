"""INRP fluid allocator tests (progressive filling with detours)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flowsim import inrp_allocation, make_strategy
from repro.flowsim.flow import split_stretch
from repro.routing import DetourTable, shortest_path
from repro.routing.paths import path_links
from repro.topology import Topology, fig3_topology, mesh_topology
from repro.units import mbps
from repro.workloads import uniform_pairs


def _fig3_instance():
    topo = fig3_topology()
    flow_paths = {
        1: shortest_path(topo, 1, 4),
        2: shortest_path(topo, 1, 5),
    }
    demands = {1: mbps(10), 2: mbps(10)}
    return topo, flow_paths, demands


def test_fig3_global_fairness():
    # The paper's Fig. 3 right: both flows get 5 Mbps; the bottlenecked
    # flow carries 2 direct + 3 via the node-3 detour.
    topo, flow_paths, demands = _fig3_instance()
    table = DetourTable(topo, max_intermediate=1)
    result = inrp_allocation(topo.directed_capacities(), flow_paths, demands, table)
    assert result.rates[1] == pytest.approx(mbps(5))
    assert result.rates[2] == pytest.approx(mbps(5))
    split = dict((tuple(path), rate) for path, rate in result.splits[1])
    assert split[(1, 2, 4)] == pytest.approx(mbps(2))
    assert split[(1, 2, 3, 4)] == pytest.approx(mbps(3))
    assert result.switches == 1


def test_zero_replacements_degenerates_to_e2e():
    topo, flow_paths, demands = _fig3_instance()
    table = DetourTable(topo, max_intermediate=1)
    result = inrp_allocation(
        topo.directed_capacities(), flow_paths, demands, table, max_replacements=0
    )
    assert result.rates[1] == pytest.approx(mbps(2))
    assert result.rates[2] == pytest.approx(mbps(8))
    assert result.freeze_reasons[1] == "no-detour"


def test_stretch_metric():
    topo, flow_paths, demands = _fig3_instance()
    table = DetourTable(topo, max_intermediate=1)
    result = inrp_allocation(topo.directed_capacities(), flow_paths, demands, table)
    # Flow 1: 2 Mbps over 2 hops + 3 Mbps over 3 hops vs primary 2 hops.
    expected = (2 * 2 + 3 * 3) / (5 * 2)
    assert split_stretch(result.splits[1], 2) == pytest.approx(expected)
    assert split_stretch(result.splits[2], 2) == pytest.approx(1.0)


def test_satisfied_flows_report_demand_reason():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    result = inrp_allocation(
        topo.directed_capacities(),
        {1: shortest_path(topo, 1, 5)},
        {1: mbps(4)},
        table,
    )
    assert result.rates[1] == pytest.approx(mbps(4))
    assert result.freeze_reasons[1] == "demand"


def test_trivial_flow_source_equals_destination():
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    result = inrp_allocation(
        topo.directed_capacities(), {1: (1,)}, {1: mbps(3)}, table
    )
    assert result.rates[1] == pytest.approx(mbps(3))


@settings(deadline=None, max_examples=20)
@given(
    seed=st.integers(min_value=0, max_value=5_000),
    num_flows=st.integers(min_value=1, max_value=15),
)
def test_no_link_overloaded_and_splits_consistent(seed, num_flows):
    """Properties: (1) the allocation never overloads any link,
    (2) each flow's split rates sum to its total, (3) no flow exceeds
    its demand, (4) the worst-off flow never does worse than under e2e
    max-min.  (Aggregate throughput is deliberately NOT asserted:
    detoured bits consume extra link capacity — the stretch of
    Fig. 4b — so under saturation INRP may trade a little aggregate
    for its global fairness.)"""
    topo = mesh_topology(12, extra_links=10, seed=seed, capacity=10.0)
    sampler = uniform_pairs(topo, seed=seed + 13)
    flow_paths = {}
    for flow_id in range(num_flows):
        src, dst = sampler()
        flow_paths[flow_id] = shortest_path(topo, src, dst)
    demands = {flow_id: 8.0 for flow_id in flow_paths}
    capacities = topo.directed_capacities()
    table = DetourTable(topo, max_intermediate=2)
    result = inrp_allocation(capacities, flow_paths, demands, table)

    load = {link: 0.0 for link in capacities}
    for flow_id, splits in result.splits.items():
        total = 0.0
        for path, rate in splits:
            total += rate
            for link in path_links(path):
                load[link] += rate
        assert total == pytest.approx(result.rates[flow_id], abs=1e-6)
        assert result.rates[flow_id] <= demands[flow_id] + 1e-6
    for link, used in load.items():
        assert used <= capacities[link] + 1e-5, f"link {link} overloaded"

    e2e = inrp_allocation(capacities, flow_paths, demands, None).rates
    # Local stability / global fairness: pooling never hurts the
    # most-starved flow.
    assert min(result.rates.values()) >= min(e2e.values()) - 1e-6


def _saturating_instance(flow_ids):
    """Many same-path flows over a bottleneck with a narrow detour, so
    the fill saturates and visits the affected flows for rerouting."""
    topo = Topology()
    topo.add_link("s", "m", capacity=mbps(200))
    topo.add_link("m", "d", capacity=mbps(10))
    topo.add_link("m", "x", capacity=mbps(5))
    topo.add_link("x", "d", capacity=mbps(5))
    table = DetourTable(topo, max_intermediate=1)
    flow_paths = {fid: ("s", "m", "d") for fid in flow_ids}
    demands = {fid: mbps(10) for fid in flow_ids}
    return inrp_allocation(topo.directed_capacities(), flow_paths, demands, table)


def test_saturation_visits_flows_in_arrival_order_not_id_order():
    """Regression: saturation-affected flows used to be visited in
    ``sorted(..., key=repr)`` order, so flow 10 rerouted before flow 2
    and outcomes silently depended on the flow-id type.  The contract
    is arrival (insertion) order of ``flow_paths``: identical ids in a
    different textual form — int vs str, crossing the 9 -> 10 boundary
    where lexicographic and numeric order disagree — must produce
    identical allocations position by position."""
    int_ids = list(range(4, 16))  # 4..15 crosses the 9 -> 10 boundary
    str_ids = [str(fid) for fid in int_ids]
    int_result = _saturating_instance(int_ids)
    str_result = _saturating_instance(str_ids)
    assert int_result.switches == str_result.switches
    assert int_result.switches > 0  # the ordering code path actually ran
    for int_id, str_id in zip(int_ids, str_ids):
        assert int_result.rates[int_id] == pytest.approx(
            str_result.rates[str_id], abs=1e-12
        )
        assert int_result.freeze_reasons[int_id] == str_result.freeze_reasons[str_id]
        int_splits = [(tuple(p), r) for p, r in int_result.splits[int_id]]
        str_splits = [(tuple(p), r) for p, r in str_result.splits[str_id]]
        assert int_splits == str_splits


def test_saturation_order_follows_insertion_not_numeric_value():
    """The same ids presented in a different arrival order give each
    *position* the same treatment: outcomes follow insertion order, not
    any ordering of the id values themselves."""
    forward = _saturating_instance([2, 10])
    backward = _saturating_instance([10, 2])
    assert forward.rates[2] == pytest.approx(backward.rates[10], abs=1e-12)
    assert forward.rates[10] == pytest.approx(backward.rates[2], abs=1e-12)


def test_fig3_single_flow_pools_the_detour():
    """Fig. 3, one flow on 1-2-4: the 2 Mbps primary plus the whole
    3 Mbps of the node-3 detour, from the solver and the strategy."""
    topo = fig3_topology()
    table = DetourTable(topo, max_intermediate=1)
    scratch = inrp_allocation(
        topo.directed_capacities(), {0: (1, 2, 4)}, {0: mbps(10)}, table
    )
    outcome = make_strategy("inrp", topo).allocate({0: ((1, 2, 4), mbps(10))})
    for rates, splits in (
        (scratch.rates, scratch.splits),
        (outcome.rates, outcome.splits),
    ):
        assert rates[0] == pytest.approx(mbps(5))
        split = {tuple(path): rate for path, rate in splits[0]}
        assert split[(1, 2, 4)] == pytest.approx(mbps(2))
        assert split[(1, 2, 3, 4)] == pytest.approx(mbps(3))
