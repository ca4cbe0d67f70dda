"""Snapshot experiment tests."""

import pytest
from oracles import _scratch_allocate

from repro.errors import ConfigurationError, NoPathError
from repro.flowsim import inrp_allocation, make_strategy, snapshot_experiment
from repro.topology import build_isp_topology, mesh_topology
from repro.units import mbps
from repro.workloads import local_pairs


@pytest.fixture(scope="module")
def small_topo():
    return mesh_topology(30, extra_links=25, seed=3)


def test_throughput_in_unit_interval(small_topo):
    strategy = make_strategy("sp", small_topo)
    result = snapshot_experiment(
        small_topo, strategy, num_flows=10, demand_bps=mbps(10), num_snapshots=3
    )
    assert len(result.throughputs) == 3
    assert all(0.0 < t <= 1.0 + 1e-9 for t in result.throughputs)
    assert result.mean_throughput > 0


def test_reproducible_with_seed(small_topo):
    def run():
        strategy = make_strategy("sp", small_topo)
        return snapshot_experiment(
            small_topo, strategy, num_flows=8, demand_bps=mbps(5),
            num_snapshots=2, seed=11,
        ).throughputs

    assert run() == run()


def test_inrp_collects_stretch_and_switches(small_topo):
    strategy = make_strategy("inrp", small_topo)
    result = snapshot_experiment(
        small_topo, strategy, num_flows=15, demand_bps=mbps(10),
        num_snapshots=3, seed=5,
        pair_sampler=local_pairs(small_topo, seed=5),
    )
    assert result.stretch_values
    assert len(result.stretch_values) == len(result.stretch_weights)
    cdf = result.stretch_cdf()
    assert cdf.min >= 1.0 - 1e-9
    assert result.switches >= 0


def test_validation(small_topo):
    strategy = make_strategy("sp", small_topo)
    with pytest.raises(ConfigurationError):
        snapshot_experiment(small_topo, strategy, num_flows=0, demand_bps=1.0)
    with pytest.raises(ConfigurationError):
        snapshot_experiment(
            small_topo, strategy, num_flows=1, demand_bps=1.0, num_snapshots=0
        )


def test_inrp_beats_sp_on_isp_map():
    # A small-scale version of Fig. 4a's headline comparison.
    topo = build_isp_topology("telstra", seed=0)
    sampler = local_pairs(topo, seed=9)
    outcomes = {}
    for name in ("sp", "inrp"):
        strategy = make_strategy(name, topo)
        outcomes[name] = snapshot_experiment(
            topo, strategy, num_flows=topo.num_nodes // 12,
            demand_bps=mbps(10), num_snapshots=3, seed=9,
            pair_sampler=sampler,
        ).mean_throughput
    assert outcomes["inrp"] > outcomes["sp"]


@pytest.fixture(scope="module")
def telstra_population():
    """One ``run_snapshot_cell``-sized population on telstra: local
    pairs, seed 0, one flow per 12 nodes at 10 Mbps.  Flow ids count
    down, so a fill that reports in its own (ascending) order differs
    from the mapping's order."""
    topo = build_isp_topology("telstra", seed=0)
    sampler = local_pairs(topo, seed=0, max_hops=5)
    num_flows = max(10, topo.num_nodes // 12)
    router = make_strategy("sp", topo)
    flows = {}
    while len(flows) < num_flows:
        source, destination = sampler()
        fid = num_flows - len(flows)
        try:
            path = router.route(fid, source, destination)
        except NoPathError:
            continue
        flows[fid] = (path, mbps(10))
    return topo, flows


@pytest.mark.parametrize("name", ["sp", "ecmp", "inrp"])
def test_allocate_matches_scratch_on_isp_snapshot(telstra_population, name):
    topo, sp_flows = telstra_population
    strategy = make_strategy(name, topo)
    # Each strategy routes its own primaries (ECMP hashes the flow id).
    flows = {
        fid: (strategy.route(fid, path[0], path[-1]), demand)
        for fid, (path, demand) in sp_flows.items()
    }
    outcome = strategy.allocate(flows)
    rates, splits, switches = _scratch_allocate(strategy, flows)
    assert list(outcome.rates) == list(flows)
    for fid in flows:
        assert outcome.rates[fid] == pytest.approx(rates[fid], rel=1e-9)
        assert [path for path, _ in outcome.splits[fid]] == [
            path for path, _ in splits[fid]
        ]
    assert outcome.switches == switches
    if name == "inrp":
        reasons = inrp_allocation(
            strategy.capacities,
            {fid: path for fid, (path, _) in flows.items()},
            {fid: demand for fid, (_, demand) in flows.items()},
            strategy.detour_table,
            max_replacements=strategy.max_replacements,
        ).freeze_reasons
        assert outcome.backpressured == [
            fid for fid, reason in reasons.items() if reason == "no-detour"
        ]
        assert outcome.switches > 0 and outcome.backpressured
    else:
        assert outcome.switches == 0 and outcome.backpressured == []

    # The same population through a verified allocator: one recompute,
    # checked against the from-scratch solver, filling as allocate does.
    allocator = strategy.incremental_allocator(verify=True)
    for fid, (path, demand) in flows.items():
        allocator.add_flow(fid, path, demand)
    verified, _, verified_switches = allocator.recompute()
    assert allocator.max_verify_deviation <= 1e-9
    assert verified == outcome.rates
    assert verified_switches == outcome.switches
