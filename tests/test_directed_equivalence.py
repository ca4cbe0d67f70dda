"""Directed-substrate equivalence suite.

The directed-capacity refactor must be invisible on symmetric
topologies: the flow-level event loop and its from-scratch oracle, and
the chunk-level engine and its reference yardstick, have to reproduce the pre-refactor (undirected-substrate) results exactly.
The goldens below were captured on the commit *before* the refactor
with the exact workloads in this file; the assertions hold them to
1e-12.

The asymmetric half of the suite exercises what the old substrate
could not express at all: per-direction capacities under randomized
churn, cross-checked against from-scratch recomputation with the
allocator's own ``verify=True`` guard.
"""

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import ReferenceSimulator, reference_chunk_engine, reference_run

from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.engine import Simulator
from repro.chunksim.network import ChunkNetwork
from repro.flowsim.allocation import IncrementalInrp
from repro.flowsim.flow import FlowRecord
from repro.flowsim.simulator import FlowLevelSimulator
from repro.flowsim.strategies import make_strategy
from repro.routing.detour import DetourTable
from repro.routing.shortest import shortest_path
from repro.topology import apply_capacity_asymmetry
from repro.topology.isp import build_isp_topology
from repro.topology.builders import fig3_topology
from repro.topology.generators import mesh_topology
from repro.units import mbps
from repro.workloads import FlowWorkload, local_pairs, uniform_pairs
from repro.workloads.traffic import FlowSpec

TOL = 1e-12

#: Pre-refactor flow-level results on Fig. 3 (see the module
#: docstring).  Keyed by strategy; identical for the simulator and the
#: oracle up to float association order (covered by the 1e-12
#: tolerance).
FLOW_GOLDENS = {
    "sp": {
        "throughput": 0.0675303197353914,
        "mean_fct": 4.319047619047619,
        "completions": [8.5, 2.2, 7.4, 6.6, 2.2142857142857144, 2.0],
    },
    "inrp": {
        "throughput": 0.09020618556701031,
        "mean_fct": 3.233333333333333,
        "completions": [4.6000000000000005, 4.4, 4.2, 3.8, 2.0, 3.4],
    },
}

#: Pre-refactor chunk-level results on Fig. 3 per protocol, identical
#: across the modern and reference engines; ``system`` is the mode
#: that runs the protocol.
CHUNK_GOLDENS = {
    "aimd": {
        "system": "sp",
        "goodputs": [933333.3333333334, 960000.0, 2995555.5555555555],
        "jain": 0.7400177114982852,
    },
    "inrpp": {
        "system": "inrp",
        "goodputs": [915555.5555555555, 1084444.4444444445, 2995555.5555555555],
        "jain": 0.757081973028817,
    },
}


def _flow_specs():
    return [
        FlowSpec(0, 1, 4, 0.0, 8e6, mbps(20)),
        FlowSpec(1, 1, 3, 0.2, 6e6, mbps(20)),
        FlowSpec(2, 5, 4, 0.4, 5e6, mbps(20)),
        FlowSpec(3, 2, 4, 0.6, 4e6, mbps(20)),
        FlowSpec(4, 1, 5, 0.8, 9e6, mbps(20)),
        FlowSpec(5, 3, 4, 1.0, 3e6, mbps(20)),
    ]


def _simulate(topo, strategy, specs):
    return FlowLevelSimulator(topo, strategy, specs).run()


#: ``auto`` is the simulator's event loop, ``reference`` the oracle.
FLOW_RUNNERS = {"reference": reference_run, "auto": _simulate}


@pytest.mark.parametrize("core", FLOW_RUNNERS)
@pytest.mark.parametrize("mode", ["sp", "inrp"])
def test_flow_cores_reproduce_pre_refactor_goldens(mode, core):
    topo = fig3_topology()
    assert topo.is_symmetric()
    result = FLOW_RUNNERS[core](topo, make_strategy(mode, topo), _flow_specs())
    golden = FLOW_GOLDENS[mode]
    assert result.network_throughput == pytest.approx(
        golden["throughput"], abs=TOL
    )
    assert result.mean_fct() == pytest.approx(golden["mean_fct"], abs=TOL)
    records = sorted(result.require_records(), key=lambda r: r.flow_id)
    assert [r.completion_time for r in records] == pytest.approx(
        golden["completions"], abs=TOL
    )


CHUNK_ENGINES = {"modern": Simulator, "reference": ReferenceSimulator}


@pytest.mark.parametrize("engine", CHUNK_ENGINES)
@pytest.mark.parametrize("protocol", CHUNK_GOLDENS)
def test_chunk_engines_reproduce_pre_refactor_goldens(protocol, engine):
    golden = CHUNK_GOLDENS[protocol]
    substitution = (
        reference_chunk_engine()
        if engine == "reference"
        else contextlib.nullcontext()
    )
    with substitution:
        net = ChunkNetwork(
            fig3_topology(), mode=golden["system"], config=ChunkSimConfig()
        )
    assert type(net.sim) is CHUNK_ENGINES[engine]
    net.add_flow(1, 4, 400, start_time=0.0)
    net.add_flow(5, 4, 400, start_time=0.0)
    net.add_flow(1, 3, 400, start_time=0.0)
    report = net.run(duration=10.0, warmup=1.0)
    assert [f.goodput_bps for f in report.flows] == pytest.approx(
        golden["goodputs"], abs=TOL
    )
    assert report.jain() == pytest.approx(golden["jain"], abs=TOL)


def test_asymmetric_directions_allocate_independently():
    """Same path forward and back: each direction gets its own pipe."""
    topo = fig3_topology()
    topo.set_directed_capacity(2, 4, mbps(1))  # squeeze 2 -> 4 only
    strategy = make_strategy("sp", topo)
    outcome = strategy.allocate(
        {
            0: (tuple(shortest_path(topo, 1, 4)), mbps(10)),
            1: (tuple(shortest_path(topo, 4, 1)), mbps(10)),
        }
    )
    assert outcome.rates[0] == pytest.approx(mbps(1))
    assert outcome.rates[1] == pytest.approx(mbps(2))  # reverse untouched


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    churn=st.lists(
        st.integers(min_value=0, max_value=4), min_size=4, max_size=25
    ),
    ratio=st.floats(min_value=0.1, max_value=0.9),
)
def test_asymmetric_churn_verified_against_scratch(seed, churn, ratio):
    """Property: on an asymmetric topology, incremental INRP agrees
    with from-scratch recomputation under arbitrary arrival/departure
    churn (``verify=True`` cross-checks inside every recompute)."""
    topo = mesh_topology(12, extra_links=10, seed=seed, capacity=10.0)
    apply_capacity_asymmetry(topo, ratio)
    capacities = topo.directed_capacities()
    table = DetourTable(topo, max_intermediate=1)
    sampler = uniform_pairs(topo, seed=seed + 1)
    allocator = IncrementalInrp(capacities, table, verify=True)
    active = set()
    next_id = 0
    for action in churn:
        if action == 0 and active:
            victim = min(active)
            allocator.remove_flow(victim)
            active.discard(victim)
        else:
            src, dst = sampler()
            path = tuple(shortest_path(topo, src, dst))
            allocator.add_flow(next_id, path, 4.0)
            active.add(next_id)
            next_id += 1
        allocator.recompute()  # raises SimulationError on divergence
    assert allocator.max_verify_deviation <= 1e-9


def _record_deviation(a: FlowRecord, b: FlowRecord) -> float:
    assert (a.flow_id, a.completed) == (b.flow_id, b.completed)
    worst = abs(a.delivered_bits - b.delivered_bits) / max(a.size_bits, 1.0)
    if a.completed:
        worst = max(worst, abs(a.fct - b.fct) / max(abs(a.fct), 1e-12))
    return worst


def test_directed_inrp_on_an_isp_map_matches_reference():
    """INRP on sprint with every reverse direction at half capacity,
    so local traffic exercises per-direction link state through the
    detour closures and the CSR kernel: the event loop's records
    match the oracle's to 1e-6, and every recompute of its
    allocator matches the from-scratch fill to 1e-9."""
    topo = build_isp_topology("sprint", seed=0)
    apply_capacity_asymmetry(topo, 0.5)
    assert not topo.is_symmetric()
    specs = FlowWorkload(
        topo,
        arrival_rate=500.0,
        mean_size_bits=2.5e6,
        demand_bps=mbps(10),
        seed=1,
        pair_sampler=local_pairs(topo, seed=2, max_hops=3),
    ).generate(max_flows=200)
    reference = reference_run(topo, make_strategy("inrp", topo), specs)
    auto = FlowLevelSimulator(topo, make_strategy("inrp", topo), specs).run()
    assert len(reference.records) == len(auto.records) == len(specs)
    assert auto.unfinished == reference.unfinished
    worst = max(
        _record_deviation(a, b) for a, b in zip(reference.records, auto.records)
    )
    assert worst <= 1e-6
    assert auto.network_throughput == pytest.approx(
        reference.network_throughput, rel=1e-6
    )
    verified = FlowLevelSimulator(
        topo, make_strategy("inrp", topo), specs, verify_allocator=True
    ).run()
    assert verified.max_verify_deviation <= 1e-9
