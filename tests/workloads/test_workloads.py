"""Arrival processes, size distributions, pair samplers, workloads."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.topology import fig3_topology, mesh_topology
from repro.workloads import (
    ExponentialSize,
    FlowSpec,
    FlowWorkload,
    PoissonArrivals,
    local_pairs,
    uniform_pairs,
)


# ----------------------------------------------------------------------
# Arrivals
# ----------------------------------------------------------------------
def test_poisson_mean_interarrival():
    process = PoissonArrivals(rate_per_second=50.0, seed=1)
    gaps = [process.next_interarrival() for _ in range(4000)]
    assert np.mean(gaps) == pytest.approx(1 / 50.0, rel=0.1)


def test_poisson_times_respect_horizon_and_count():
    process = PoissonArrivals(5.0, seed=2)
    times = list(process.times(horizon=10.0))
    assert all(0 < t <= 10.0 for t in times)
    assert times == sorted(times)
    process = PoissonArrivals(5.0, seed=2)
    assert len(list(process.times(max_events=7))) == 7


def test_poisson_requires_bound():
    process = PoissonArrivals(1.0, seed=0)
    with pytest.raises(WorkloadError):
        next(process.times())
    with pytest.raises(WorkloadError):
        PoissonArrivals(0.0)


def test_poisson_deterministic_per_seed():
    a = list(PoissonArrivals(3.0, seed=9).times(max_events=20))
    b = list(PoissonArrivals(3.0, seed=9).times(max_events=20))
    assert a == b


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------
def test_exponential_size_mean():
    dist = ExponentialSize(1e6, seed=3)
    samples = [dist.sample() for _ in range(5000)]
    assert np.mean(samples) == pytest.approx(1e6, rel=0.1)
    assert min(samples) > 0


# ----------------------------------------------------------------------
# Pair samplers
# ----------------------------------------------------------------------
def test_uniform_pairs_no_self_loops():
    topo = mesh_topology(10, extra_links=5, seed=0)
    sample = uniform_pairs(topo, seed=1)
    for _ in range(100):
        src, dst = sample()
        assert src != dst
        assert topo.has_node(src) and topo.has_node(dst)


def test_local_pairs_radius_and_degree():
    topo = mesh_topology(40, extra_links=30, seed=2)
    sample = local_pairs(topo, seed=3, max_hops=3)
    from repro.routing import shortest_path

    for _ in range(50):
        src, dst = sample()
        assert src != dst
        assert topo.degree(src) >= 2 and topo.degree(dst) >= 2
        assert len(shortest_path(topo, src, dst)) - 1 <= 3


def test_local_pairs_first_draws_are_pinned():
    """A seeded sampler's draws are part of every workload's identity
    (campaign records, perfbench fingerprints).  These values come from
    a sampler that searched afresh on every draw, so they pin that the
    per-source candidate cache changes no draw."""
    topo = mesh_topology(40, extra_links=30, seed=2)
    sample = local_pairs(topo, seed=3, max_hops=3)
    assert [sample() for _ in range(8)] == [
        (33, 9), (37, 9), (16, 10), (2, 37),
        (33, 3), (37, 12), (9, 7), (33, 10),
    ]


def test_local_pairs_searches_once_per_source(monkeypatch):
    """Once every core source has been drawn, further draws run no
    neighbourhood search: each source's candidates are found once."""
    topo = mesh_topology(40, extra_links=30, seed=2)
    neighbors = topo.neighbors
    calls = []

    def counting_neighbors(node):
        calls.append(node)
        return neighbors(node)

    monkeypatch.setattr(topo, "neighbors", counting_neighbors)
    sample = local_pairs(topo, seed=3, max_hops=3)
    sources = {sample()[0] for _ in range(500)}
    assert sources == {node for node in topo.nodes() if topo.degree(node) >= 2}
    searched = len(calls)
    assert searched > 0
    for _ in range(500):
        sample()
    assert len(calls) == searched


def test_local_pairs_validation():
    topo = fig3_topology()
    with pytest.raises(WorkloadError):
        local_pairs(topo, max_hops=1)


# ----------------------------------------------------------------------
# FlowWorkload
# ----------------------------------------------------------------------
def test_workload_generation_sorted_and_reproducible():
    topo = mesh_topology(20, extra_links=10, seed=5)
    make = lambda: FlowWorkload(
        topo, arrival_rate=10.0, mean_size_bits=1e6, demand_bps=1e6, seed=7
    ).generate(horizon=5.0)
    specs_a, specs_b = make(), make()
    assert [s.arrival_time for s in specs_a] == [s.arrival_time for s in specs_b]
    assert all(
        a.arrival_time <= b.arrival_time for a, b in zip(specs_a, specs_a[1:])
    )
    assert all(spec.source != spec.destination for spec in specs_a)
    assert all(spec.size_bits > 0 for spec in specs_a)
    assert {spec.flow_id for spec in specs_a} == set(range(len(specs_a)))


def test_workload_demand_validation():
    topo = mesh_topology(5, extra_links=2, seed=0)
    with pytest.raises(WorkloadError):
        FlowWorkload(topo, 1.0, 1e6, demand_bps=0)


def test_iter_specs_streams_lazily_and_matches_generate():
    """iter_specs is the streaming contract: lazy (a generator, no
    list behind it), in arrival order, and identical to generate()
    from an identically-seeded workload."""
    topo = mesh_topology(6, extra_links=3, seed=1)

    def make():
        return FlowWorkload(topo, arrival_rate=50.0, mean_size_bits=1e6,
                            demand_bps=1e6, seed=9)

    iterator = make().iter_specs(max_flows=200)
    assert iter(iterator) is iterator  # a true lazy generator
    first = next(iterator)
    assert first.flow_id == 0
    streamed = [first] + list(iterator)
    materialized = make().generate(max_flows=200)
    assert streamed == materialized
    assert all(
        a.arrival_time <= b.arrival_time
        for a, b in zip(streamed, streamed[1:])
    )


# ----------------------------------------------------------------------
# Flow specs
# ----------------------------------------------------------------------
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("arrival_time", _NAN),
        ("arrival_time", _INF),
        ("arrival_time", -1.0),
        ("size_bits", _NAN),
        ("size_bits", _INF),
        ("size_bits", 0.0),
        ("size_bits", -1e6),
        ("demand_bps", _NAN),
        ("demand_bps", -1.0),
    ],
)
def test_flow_spec_rejects_values_the_simulator_cannot_run(field, value):
    """A NaN arrival time or size used to hang the event loop; every bad
    value now fails where it enters, naming the flow and the field."""
    spec = dict(
        flow_id=7, source=0, destination=1, arrival_time=0.5,
        size_bits=1e6, demand_bps=1e6,
    )
    spec[field] = value
    with pytest.raises(WorkloadError, match=f"flow 7: {field}"):
        FlowSpec(**spec)


def test_flow_spec_accepts_uncapped_and_zero_demand():
    assert FlowSpec(0, 0, 1, 0.0, 1.0, _INF).demand_bps == _INF
    assert FlowSpec(1, 0, 1, 0.0, 1.0, 0.0).demand_bps == 0.0
