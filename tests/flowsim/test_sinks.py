"""Result-sink layer tests: streaming aggregates vs materialized
records, records-optional accessors, empty-run degradation."""

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.flowsim import (
    FlowLevelSimulator,
    MaterializingSink,
    StreamingSink,
    make_strategy,
)
from repro.flowsim.sinks import make_sink
from repro.topology import line_topology, mesh_topology
from repro.units import mbps
from repro.workloads import FlowSpec, FlowWorkload, local_pairs, uniform_pairs


def _mesh_workload(seed=7):
    topo = mesh_topology(14, extra_links=12, seed=2, capacity=mbps(10))
    workload = FlowWorkload(
        topo,
        arrival_rate=120.0,
        mean_size_bits=4e6,
        demand_bps=mbps(10),
        seed=seed,
        pair_sampler=uniform_pairs(topo, seed=3),
    )
    return topo, workload


def _sprint_workload():
    from repro.topology import build_isp_topology

    topo = build_isp_topology("sprint", seed=0)
    workload = FlowWorkload(
        topo,
        arrival_rate=800.0,
        mean_size_bits=2.5e6,
        demand_bps=mbps(10),
        seed=1,
        pair_sampler=local_pairs(topo, seed=2, max_hops=3),
    )
    return topo, workload


@pytest.mark.parametrize("strategy_name", ("sp", "inrp"))
def test_streaming_matches_materializing(strategy_name):
    """The equivalence contract of the streaming pipeline: exact
    counts/throughput/goodput/Jain, quantiles within the sketch's rank
    error translated through the local FCT distribution.  The horizon
    truncates the overloaded drain, so both sinks also see unfinished
    flows."""
    topo, workload = _mesh_workload()
    specs = workload.generate(horizon=3.0)
    materialized = FlowLevelSimulator(
        topo, make_strategy(strategy_name, topo), specs, horizon=12.0
    ).run()
    streamed = FlowLevelSimulator(
        topo, make_strategy(strategy_name, topo), specs, horizon=12.0,
        sink="streaming",
    ).run()
    assert streamed.unfinished > 0

    assert streamed.records is None and streamed.aggregates is not None
    assert materialized.records is not None and materialized.aggregates is None
    # Exact aggregates.
    assert streamed.num_flows == materialized.num_flows
    assert streamed.completed_count == materialized.completed_count
    assert streamed.unfinished == materialized.unfinished
    assert streamed.delivered_bits == pytest.approx(
        materialized.delivered_bits, rel=1e-12
    )
    assert streamed.goodput_bps() == pytest.approx(
        materialized.goodput_bps(), rel=1e-12
    )
    assert streamed.network_throughput == pytest.approx(
        materialized.network_throughput, rel=1e-12
    )
    assert streamed.mean_fct() == pytest.approx(materialized.mean_fct(), rel=1e-12)
    assert streamed.jain_goodput() == pytest.approx(
        materialized.jain_goodput(), rel=1e-9
    )
    assert streamed.completion_ratio() == pytest.approx(
        materialized.completion_ratio()
    )
    # Sketch quantiles: the answered value's rank is within epsilon of
    # the target, so it must fall between the exact quantiles at
    # q -/+ 2*epsilon (slack for the discrete record grid).
    epsilon = streamed.aggregates.fct_sketch.epsilon
    for q in (0.25, 0.5, 0.9, 0.99):
        lo = materialized.fct_quantile(max(q - 2 * epsilon, 0.0))
        hi = materialized.fct_quantile(min(q + 2 * epsilon, 1.0))
        assert lo <= streamed.fct_quantile(q) <= hi
    stretch = streamed.stretch_quantile(0.9)
    assert stretch is not None and stretch >= 1.0


def test_streaming_with_lazy_spec_iterator():
    """Full streaming pipeline: lazy specs in, aggregates out, same
    answers as the materialized list."""
    topo, workload = _mesh_workload()
    specs = workload.generate(horizon=3.0)
    baseline = FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run()
    streamed = FlowLevelSimulator(
        topo,
        make_strategy("sp", topo),
        workload_clone_iter(horizon=3.0),
        sink="streaming",
    ).run()
    assert streamed.num_flows == baseline.num_flows
    assert streamed.completed_count == baseline.completed_count
    assert streamed.network_throughput == pytest.approx(
        baseline.network_throughput, rel=1e-12
    )


def workload_clone_iter(horizon):
    # A fresh identically-seeded workload yields the same spec stream.
    _, workload = _mesh_workload()
    return workload.iter_specs(horizon=horizon)


def test_streaming_on_calibrated_inrp_point():
    topo, workload = _sprint_workload()
    specs = workload.generate(max_flows=300)
    materialized = FlowLevelSimulator(topo, make_strategy("inrp", topo), specs).run()
    streamed = FlowLevelSimulator(
        topo, make_strategy("inrp", topo), specs, sink="streaming"
    ).run()
    assert streamed.completed_count == materialized.completed_count
    assert streamed.network_throughput == pytest.approx(
        materialized.network_throughput, rel=1e-12
    )
    assert streamed.mean_fct() == pytest.approx(materialized.mean_fct(), rel=1e-12)


def test_require_records_guides_to_materialize():
    topo, workload = _mesh_workload()
    result = FlowLevelSimulator(
        topo,
        make_strategy("sp", topo),
        workload.generate(horizon=2.0),
        sink="streaming",
    ).run()
    assert result.records is None
    with pytest.raises(AnalysisError, match="materialize"):
        result.require_records()
    with pytest.raises(AnalysisError, match="materialize"):
        result.stretch_samples()


def test_make_sink_resolution():
    assert isinstance(make_sink(None), MaterializingSink)
    assert isinstance(make_sink("materialize"), MaterializingSink)
    assert isinstance(make_sink("streaming"), StreamingSink)
    custom = StreamingSink()
    assert make_sink(custom) is custom
    with pytest.raises(ConfigurationError):
        make_sink("csv")
    with pytest.raises(ConfigurationError):
        FlowLevelSimulator(
            line_topology(2, capacity=mbps(10)),
            make_strategy("sp", line_topology(2, capacity=mbps(10))),
            [],
            sink="bogus",
        ).run()


def test_empty_run_degrades_gracefully():
    topo = line_topology(2, capacity=mbps(10))
    for sink in ("materialize", "streaming"):
        result = FlowLevelSimulator(
            topo, make_strategy("sp", topo), [], sink=sink
        ).run()
        assert result.num_flows == 0
        assert result.completion_ratio() == 0.0
        assert result.goodput_bps() == 0.0
        assert result.mean_fct() is None
        assert result.fct_quantile(0.5) is None
        assert result.stretch_quantile(0.5) is None
        assert result.jain_goodput() == 1.0


@pytest.mark.parametrize("sink", ("materialize", "streaming"))
@pytest.mark.parametrize("q", (-0.5, 1.5))
def test_fct_quantile_rejects_q_outside_unit_interval(sink, q):
    """Both sinks raise for a quantile outside [0, 1], as ``Cdf`` and
    the sketch do: from records, ``q=-0.5`` used to index the sorted
    FCTs from the end and ``q=1.5`` to return the maximum."""
    from repro.topology import build_isp_topology

    topo = build_isp_topology("vsnl", seed=0)
    workload = FlowWorkload(
        topo,
        arrival_rate=40.0,
        mean_size_bits=2.5e6,
        demand_bps=mbps(10),
        seed=1,
        pair_sampler=local_pairs(topo, seed=2, max_hops=3),
    )
    result = FlowLevelSimulator(
        topo, make_strategy("sp", topo), workload.generate(max_flows=40),
        sink=sink,
    ).run()
    assert result.completed_count > 0
    with pytest.raises(ConfigurationError, match="quantile"):
        result.fct_quantile(q)


@pytest.mark.parametrize("sink", ("materialize", "streaming"))
@pytest.mark.parametrize("q", (-0.5, 1.5))
def test_quantiles_reject_q_outside_unit_interval_on_an_empty_run(sink, q):
    """With nothing completed, both quantiles still raise for ``q``
    outside [0, 1] on both sinks before returning None: the stretch
    quantile used to return None without looking at ``q``."""
    topo = line_topology(2)
    result = FlowLevelSimulator(
        topo, make_strategy("sp", topo), [], sink=sink
    ).run()
    assert result.completed_count == 0
    assert result.fct_quantile(0.5) is None
    assert result.stretch_quantile(0.5) is None
    with pytest.raises(ConfigurationError, match="quantile"):
        result.fct_quantile(q)
    with pytest.raises(ConfigurationError, match="quantile"):
        result.stretch_quantile(q)


def test_materializing_result_unchanged_by_refactor():
    """The default sink reproduces the historical result shape: sorted
    records, one per spec, with aggregates unset."""
    topo = line_topology(3, capacity=mbps(10))
    specs = [
        FlowSpec(2, 0, 2, 0.5, 5e6, mbps(10)),
        FlowSpec(1, 0, 2, 0.0, 10e6, mbps(10)),
    ]
    result = FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run()
    assert [record.flow_id for record in result.records] == [1, 2]
    assert result.aggregates is None
    assert all(record.completed for record in result.records)
