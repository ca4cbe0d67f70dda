"""Event-driven flow-level simulator tests."""

import hashlib

import pytest
from oracles import reference_run

from repro.errors import SimulationError
from repro.flowsim import (
    FlowLevelSimulator,
    MaterializingSink,
    StreamingSink,
    make_strategy,
)
from repro.flowsim.flow import ActiveFlow
from repro.topology import Topology, fig3_topology, line_topology, mesh_topology
from repro.units import mbps
from repro.workloads import FlowSpec, FlowWorkload, local_pairs


def _simulate(topo, strategy, specs, **kwargs):
    return FlowLevelSimulator(topo, strategy, specs, **kwargs).run()


#: The simulator's event loop ("auto": its adaptive full-refill
#: fallback always runs) and the from-scratch oracle.
RUNNERS = {"auto": _simulate, "reference": reference_run}


def _spec(flow_id, src, dst, t, size_bits, demand=mbps(10)):
    return FlowSpec(flow_id, src, dst, t, size_bits, demand)


def test_single_flow_completion_time_exact():
    topo = line_topology(3, capacity=mbps(10))
    strategy = make_strategy("sp", topo)
    # 10 Mbit at 10 Mbps -> exactly 1 second.
    sim = FlowLevelSimulator(topo, strategy, [_spec(1, 0, 2, 0.0, 10e6)])
    result = sim.run()
    record = result.records[0]
    assert record.completed
    assert record.fct == pytest.approx(1.0)
    assert record.delivered_bits == pytest.approx(10e6)
    assert record.stretch == pytest.approx(1.0)


def test_two_flows_share_then_speed_up():
    # Two equal flows sharing a 10 Mbps link: each runs at 5 Mbps until
    # the first finishes, after which the survivor gets the full rate.
    topo = line_topology(2, capacity=mbps(10))
    specs = [
        _spec(1, 0, 1, 0.0, 5e6),
        _spec(2, 0, 1, 0.0, 10e6),
    ]
    strategy = make_strategy("sp", topo)
    result = FlowLevelSimulator(topo, strategy, specs).run()
    fct = {record.flow_id: record.fct for record in result.records}
    # Flow 1: 5 Mbit at 5 Mbps = 1 s.  Flow 2: 5 Mbit at 5 Mbps, then
    # 5 Mbit at 10 Mbps = 1.5 s total.
    assert fct[1] == pytest.approx(1.0)
    assert fct[2] == pytest.approx(1.5)


def test_staggered_arrival():
    topo = line_topology(2, capacity=mbps(10))
    specs = [
        _spec(1, 0, 1, 0.0, 10e6),
        _spec(2, 0, 1, 2.0, 10e6),  # arrives after flow 1 finished
    ]
    strategy = make_strategy("sp", topo)
    result = FlowLevelSimulator(topo, strategy, specs).run()
    fct = {record.flow_id: record.fct for record in result.records}
    assert fct[1] == pytest.approx(1.0)
    assert fct[2] == pytest.approx(1.0)


@pytest.mark.parametrize("runner", RUNNERS)
def test_horizon_reports_unfinished(runner):
    topo = line_topology(2, capacity=mbps(1))
    specs = [_spec(1, 0, 1, 0.0, 100e6)]  # would need 100 s
    strategy = make_strategy("sp", topo)
    result = RUNNERS[runner](topo, strategy, specs, horizon=1.0)
    assert result.unfinished == 1
    record = result.records[0]
    assert not record.completed
    assert record.delivered_bits == pytest.approx(1e6, rel=0.01)


@pytest.mark.parametrize("runner", RUNNERS)
def test_completion_exactly_at_horizon_counts_completed(runner):
    # 10 Mbit at 10 Mbps completes at t == 1.0 == horizon: the flow
    # must be finalized as completed, not reported unfinished.
    topo = line_topology(2, capacity=mbps(10))
    specs = [_spec(1, 0, 1, 0.0, 10e6)]
    strategy = make_strategy("sp", topo)
    result = RUNNERS[runner](topo, strategy, specs, horizon=1.0)
    assert result.unfinished == 0
    record = result.records[0]
    assert record.completed
    assert record.fct == pytest.approx(1.0)
    assert record.delivered_bits == pytest.approx(10e6)


@pytest.mark.parametrize("runner", RUNNERS)
def test_horizon_splits_completed_from_unfinished(runner):
    # Two flows share 10 Mbps: both run at 5 Mbps.  Flow 1 (5 Mbit)
    # completes exactly at the 1.0 s horizon; flow 2 does not.
    topo = line_topology(2, capacity=mbps(10))
    specs = [_spec(1, 0, 1, 0.0, 5e6), _spec(2, 0, 1, 0.0, 50e6)]
    strategy = make_strategy("sp", topo)
    result = RUNNERS[runner](topo, strategy, specs, horizon=1.0)
    by_id = {record.flow_id: record for record in result.records}
    assert by_id[1].completed and by_id[1].fct == pytest.approx(1.0)
    assert not by_id[2].completed
    assert by_id[2].delivered_bits == pytest.approx(5e6, rel=1e-6)
    assert result.unfinished == 1


def test_throughput_ratio_bounded():
    topo = fig3_topology()
    specs = [
        _spec(1, 1, 4, 0.0, 4e6),
        _spec(2, 1, 5, 0.0, 16e6),
    ]
    strategy = make_strategy("sp", topo)
    result = FlowLevelSimulator(topo, strategy, specs).run()
    assert 0.0 < result.network_throughput <= 1.0
    assert result.allocations >= 1


def test_inrp_completes_faster_on_fig3():
    # The paper expects the throughput gain "to translate to faster
    # flow completion time by the same proportion".
    topo = fig3_topology()
    specs = [
        _spec(1, 1, 4, 0.0, 10e6),
        _spec(2, 1, 5, 0.0, 10e6),
    ]
    sp_result = FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run()
    inrp_result = FlowLevelSimulator(topo, make_strategy("inrp", topo), specs).run()
    sp_fct = sp_result.records[0].fct
    inrp_fct = inrp_result.records[0].fct
    assert inrp_fct < sp_fct  # 10 Mbit at 5 Mbps vs 2 Mbps


def test_invalid_horizon():
    topo = line_topology(2)
    with pytest.raises(SimulationError):
        FlowLevelSimulator(topo, make_strategy("sp", topo), [], horizon=0.0)


def test_consumed_stream_cannot_rerun():
    topo = mesh_topology(14, extra_links=12, seed=2, capacity=mbps(10))
    workload = FlowWorkload(
        topo, arrival_rate=120.0, mean_size_bits=4e6, demand_bps=mbps(10), seed=7
    )
    sim = FlowLevelSimulator(
        topo, make_strategy("sp", topo), workload.iter_specs(horizon=1.0),
        sink="streaming",
    )
    sim.run()
    with pytest.raises(SimulationError, match="already consumed"):
        sim.run()


@pytest.mark.parametrize("sink_cls", [MaterializingSink, StreamingSink])
def test_reused_sink_instance_cannot_rerun(sink_cls):
    """A sink instance holds one run: a second ``run()`` raises instead
    of folding its flows into the first result."""
    topo = mesh_topology(14, extra_links=12, seed=2, capacity=mbps(10))
    specs = _workload_specs(topo, seed=3, num_flows=50)
    sim = FlowLevelSimulator(topo, make_strategy("sp", topo), specs, sink=sink_cls())
    first = sim.run()
    assert first.num_flows == 50
    with pytest.raises(SimulationError, match="sink instance"):
        sim.run()
    assert first.num_flows == 50
    assert first.completed_count == 50


def test_positive_rate_without_positive_split_is_an_error():
    """Delivery at a positive rate must be carried by some split:
    otherwise the bits would be credited to no path's hop count."""
    path, detour = (0, 1, 2), (0, 3, 1, 2)
    flow = ActiveFlow(
        spec=_spec(7, 0, 2, 0.0, 10e6),
        primary_path=path,
        remaining_bits=10e6,
        rate_bps=mbps(5),
    )
    for splits in ([(path, 0.0), (detour, 0.0)], [(path, 0.0)], []):
        flow.splits = splits
        with pytest.raises(SimulationError, match="no positive split"):
            flow.record_delivery(0.5)
    # With a positive split the same delivery is credited to its hops.
    flow.splits = [(path, mbps(3)), (detour, mbps(2))]
    assert flow.record_delivery(0.5) == pytest.approx(mbps(5) * 0.5)
    assert flow.bits_by_hops == pytest.approx({2: mbps(1.5), 3: mbps(1)})


def test_mean_fct_and_stretch_helpers():
    topo = fig3_topology()
    specs = [_spec(1, 1, 4, 0.0, 2e6), _spec(2, 1, 5, 0.0, 2e6)]
    result = FlowLevelSimulator(topo, make_strategy("inrp", topo), specs).run()
    assert result.mean_fct() is not None
    samples = result.stretch_samples()
    assert len(samples) == 2
    assert all(s >= 1.0 for s in samples)


def test_unknown_core_rejected():
    """The simulator has one event loop: no argument selects a core or
    tunes its full-refill fallback."""
    topo = line_topology(2)
    for option in (
        {"core": "reference"},
        {"core": "auto"},
        {"adaptive_threshold": 0.5},
        {"adaptive_patience": 3},
        {"adaptive_probe_every": 16},
        {"adaptive_min_active": 64},
    ):
        with pytest.raises(TypeError):
            FlowLevelSimulator(topo, make_strategy("sp", topo), [], **option)


def _workload_specs(topo, seed, num_flows, arrival_rate=120.0):
    workload = FlowWorkload(
        topo,
        arrival_rate=arrival_rate,
        mean_size_bits=2e6,
        demand_bps=mbps(10),
        seed=seed,
        pair_sampler=local_pairs(topo, seed=seed + 1, max_hops=4),
    )
    return workload.generate(max_flows=num_flows)


def _assert_equivalent(ref, inc):
    assert len(ref.records) == len(inc.records)
    for a, b in zip(ref.records, inc.records):
        assert a.flow_id == b.flow_id
        assert a.completed == b.completed
        if a.completed:
            assert b.fct == pytest.approx(a.fct, rel=1e-6, abs=1e-9)
        assert b.delivered_bits == pytest.approx(a.delivered_bits, rel=1e-6, abs=1e-3)
        assert b.stretch == pytest.approx(a.stretch, rel=1e-6)
    assert inc.unfinished == ref.unfinished
    assert inc.network_throughput == pytest.approx(
        ref.network_throughput, rel=1e-6
    )
    assert inc.duration == pytest.approx(ref.duration, rel=1e-6)
    # Switch counts are a per-recompute diagnostic, not a flow metric:
    # the oracle re-performs every component's switches at each full
    # fill, while the event loop only counts the dirty component's.
    # With directed links the closure decomposition is finer than the
    # oracle's full fill, so the totals may differ even though records,
    # rates and aggregates agree exactly.
    if ref.total_switches == 0:
        assert inc.total_switches == 0
    else:
        assert inc.total_switches > 0


@pytest.mark.parametrize("strategy_name", ["sp", "ecmp", "inrp"])
@pytest.mark.parametrize("seed", [0, 7])
def test_cores_equivalent_on_random_workloads(strategy_name, seed):
    """The event loop is a drop-in for the from-scratch oracle: same
    records, same aggregates, for every strategy."""
    topo = mesh_topology(24, extra_links=20, seed=seed, capacity=mbps(10))
    num_flows = 60 if strategy_name == "inrp" else 150
    specs = _workload_specs(topo, seed=seed, num_flows=num_flows)
    runs = {
        name: runner(topo, make_strategy(strategy_name, topo), specs)
        for name, runner in RUNNERS.items()
    }
    _assert_equivalent(runs["reference"], runs["auto"])


def test_incremental_allocator_verified_inside_simulator():
    """verify_allocator re-checks every dirty-component recompute
    against from-scratch max-min; any divergence raises."""
    topo = mesh_topology(18, extra_links=14, seed=3, capacity=mbps(10))
    specs = _workload_specs(topo, seed=3, num_flows=80)
    strategy = make_strategy("sp", topo)
    sim = FlowLevelSimulator(topo, strategy, specs, verify_allocator=True)
    result = sim.run()
    assert result.unfinished == 0
    assert result.max_verify_deviation is not None
    assert result.max_verify_deviation <= 1e-9


def test_cores_equivalent_with_horizon():
    topo = mesh_topology(20, extra_links=16, seed=11, capacity=mbps(10))
    specs = _workload_specs(topo, seed=11, num_flows=120)
    runs = {
        name: runner(topo, make_strategy("sp", topo), specs, horizon=0.6)
        for name, runner in RUNNERS.items()
    }
    _assert_equivalent(runs["reference"], runs["auto"])


def test_stretch_samples_exclude_unfinished_by_default():
    """Regression: a flow truncated by the horizon (partial delivery)
    used to leak into the Fig. 4b stretch distribution; completed-only
    is the default, ``include_unfinished=True`` the escape hatch."""
    topo = line_topology(2)
    strategy = make_strategy("sp", topo)
    # Flow 1 (5 Mbit at >= 5 Mbps effective) completes within the 1.5 s
    # horizon; flow 2 (100 Mbit) is truncated with bits delivered.
    specs = [_spec(1, 0, 1, 0.0, 5e6), _spec(2, 0, 1, 0.0, 100e6)]
    result = FlowLevelSimulator(topo, strategy, specs, horizon=1.5).run()
    assert result.unfinished == 1
    truncated = [r for r in result.records if not r.completed]
    assert truncated and truncated[0].delivered_bits > 0
    assert len(result.stretch_samples()) == 1
    assert len(result.stretch_samples(include_unfinished=True)) == 2


def _spanning_component_specs(num_flows):
    # Every flow crosses the same single link: one component that spans
    # the whole active set, the adaptive fallback's worst case.
    return [
        _spec(fid, 0, 1, 0.001 * fid, 4e6) for fid in range(num_flows)
    ]


def test_adaptive_core_falls_back_on_spanning_component():
    """The event loop must notice that every dirty component spans the
    active set (population above the policy's MIN_ACTIVE) and switch
    to full refills, while small populations never do."""
    topo = line_topology(2)
    specs = _spanning_component_specs(120)
    auto = _simulate(topo, make_strategy("sp", topo), specs)
    assert auto.full_refills > 0
    small = _simulate(topo, make_strategy("sp", topo), specs[:60])
    assert small.full_refills == 0
    reference = reference_run(topo, make_strategy("sp", topo), specs)
    _assert_equivalent(reference, auto)
    _assert_equivalent(
        reference_run(topo, make_strategy("sp", topo), specs[:60]), small
    )


def test_auto_core_still_adapts_with_vectorized_kernel():
    """The CSR kernels do not disable the adaptive fallback: on a
    spanning component the event loop switches to full refills both
    for max-min (``maxmin_fill``) and for INRP (``inrp_fill``), and
    still reproduces the oracle's records."""
    topo = line_topology(2)
    specs = _spanning_component_specs(120)
    for name in ("sp", "inrp"):
        auto = _simulate(topo, make_strategy(name, topo), specs)
        assert auto.full_refills > 0, name
        reference = reference_run(topo, make_strategy(name, topo), specs)
        _assert_equivalent(reference, auto)


def _overload_specs(topo, seed, num_flows):
    """Deep overload: uniform endpoints, arrivals far above the drain
    rate, so the population snowballs into one spanning component."""
    from repro.workloads import uniform_pairs

    workload = FlowWorkload(
        topo,
        arrival_rate=600.0,
        mean_size_bits=4e6,
        demand_bps=mbps(10),
        seed=seed,
        pair_sampler=uniform_pairs(topo, seed=seed + 1),
    )
    return workload.generate(max_flows=num_flows)


@pytest.mark.parametrize("seed", [0, 5])
def test_inrp_cores_equivalent_at_overload(seed):
    """The event loop and the oracle produce the same records for INRP
    in the deep-overload regime (spanning components).
    ``total_switches`` is excluded: the event loop re-fills only dirty
    components, so it does not re-count the switches of untouched
    components the way a full re-fill does."""
    topo = mesh_topology(14, extra_links=12, seed=seed, capacity=mbps(10))
    specs = _overload_specs(topo, seed=seed, num_flows=70)
    ref, other = (
        runner(topo, make_strategy("inrp", topo), specs)
        for runner in (reference_run, _simulate)
    )
    assert len(ref.records) == len(other.records)
    for a, b in zip(ref.records, other.records):
        assert a.flow_id == b.flow_id
        assert a.completed == b.completed
        if a.completed:
            assert b.fct == pytest.approx(a.fct, rel=1e-6, abs=1e-9)
        assert b.delivered_bits == pytest.approx(
            a.delivered_bits, rel=1e-6, abs=1e-3
        )
    assert other.unfinished == ref.unfinished
    assert other.network_throughput == pytest.approx(
        ref.network_throughput, rel=1e-6
    )


def _inrp_overload_schedule():
    """The exodus map and 350-flow uniform schedule of the
    ``inrp-overload`` benchmark workload at seed 0."""
    from repro.topology.isp import build_isp_topology
    from repro.workloads import uniform_pairs

    topo = build_isp_topology("exodus", seed=0)
    specs = FlowWorkload(
        topo,
        arrival_rate=400.0,
        mean_size_bits=4e6,
        demand_bps=mbps(10),
        seed=0,
        pair_sampler=uniform_pairs(topo, seed=1),
    ).generate(max_flows=350)
    return topo, specs


def _records_digest(result):
    """sha256 of a run's records, each float as ``float.hex``."""
    digest = hashlib.sha256()
    for record in result.records:
        fields = (
            record.flow_id,
            record.source,
            record.destination,
            record.size_bits,
            record.arrival_time,
            record.completion_time,
            record.delivered_bits,
            record.stretch,
        )
        digest.update(
            repr(
                tuple(
                    value.hex() if isinstance(value, float) else value
                    for value in fields
                )
            ).encode()
        )
    return digest.hexdigest()


#: sha256 of SP's records on ``inrp-overload``'s map and schedule at
#: seed 0 (350 flows), each float as ``float.hex``.
_SP_OVERLOAD_GOLDEN = (
    "f7d71efb7f498587f875fa80368f74cc03918a0dd56bdec0107a7d396c0f6480"
)


def test_sp_overload_records_are_pinned():
    """SP in deep overload, where the dirty-component probe decides
    every return from full refills: the exodus map and uniform
    schedule of the ``inrp-overload`` benchmark workload, run as SP,
    switch to full refills and keep their records bit for bit."""
    topo, specs = _inrp_overload_schedule()
    result = _simulate(topo, make_strategy("sp", topo), specs)
    assert result.full_refills > 0
    assert _records_digest(result) == _SP_OVERLOAD_GOLDEN


@pytest.mark.parametrize("name", ["sp", "ecmp"])
def test_single_path_records_do_not_depend_on_full_refills(monkeypatch, name):
    """Under SP and ECMP a full recompute fills what an incremental one
    fills: on ``inrp-overload``'s schedule, a run that enters full
    mode gives the records and throughput, bit for bit, of the same
    run with the adaptive policy held off full mode."""
    from repro.flowsim.simulator import _AdaptiveCorePolicy

    topo, specs = _inrp_overload_schedule()
    adaptive = _simulate(topo, make_strategy(name, topo), specs)
    assert adaptive.full_refills > 0
    monkeypatch.setattr(_AdaptiveCorePolicy, "decide", lambda *args: False)
    incremental = _simulate(topo, make_strategy(name, topo), specs)
    assert incremental.full_refills == 0
    assert _records_digest(adaptive) == _records_digest(incremental)
    assert adaptive.network_throughput.hex() == (
        incremental.network_throughput.hex()
    )
    assert adaptive.total_switches == incremental.total_switches == 0


def test_inrp_without_detours_is_sp_bit_for_bit():
    """INRP at ``detour_depth=0`` has no replacement budget, so it is
    SP, the zero-pooling end of one model: on ``inrp-overload``'s
    schedule its records, full-refill count and throughput equal SP's
    bit for bit, and it makes no detour switch."""
    topo, specs = _inrp_overload_schedule()
    sp = _simulate(topo, make_strategy("sp", topo), specs)
    inrp = _simulate(topo, make_strategy("inrp", topo, detour_depth=0), specs)
    assert _records_digest(inrp) == _records_digest(sp)
    assert inrp.full_refills == sp.full_refills > 0
    assert inrp.total_switches == sp.total_switches == 0
    assert inrp.network_throughput.hex() == sp.network_throughput.hex()


def test_inrp_incremental_verified_inside_simulator():
    """verify_allocator cross-checks every incremental INRP recompute
    against from-scratch inrp_allocation and reports the worst
    deviation on the result."""
    topo = mesh_topology(14, extra_links=12, seed=2, capacity=mbps(10))
    specs = _workload_specs(topo, seed=2, num_flows=50)
    result = FlowLevelSimulator(
        topo,
        make_strategy("inrp", topo),
        specs,
        verify_allocator=True,
    ).run()
    assert result.max_verify_deviation is not None
    assert result.max_verify_deviation <= 1e-9
