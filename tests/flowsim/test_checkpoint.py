"""Simulator checkpoint/resume tests: determinism against the
uninterrupted run, pickle roundtrip, streaming-source fast-forward."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.flowsim import FlowLevelSimulator, SimulatorCheckpoint, make_strategy
from repro.topology import mesh_topology
from repro.units import mbps
from repro.workloads import FlowWorkload, uniform_pairs


def _setup(seed=7):
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


def _assert_same_records(full, resumed):
    assert resumed.num_flows == full.num_flows
    assert resumed.completed_count == full.completed_count
    assert resumed.unfinished == full.unfinished
    for expected, actual in zip(full.records, resumed.records):
        assert expected.flow_id == actual.flow_id
        assert expected.completed == actual.completed
        assert actual.delivered_bits == pytest.approx(
            expected.delivered_bits, rel=1e-9, abs=1e-3
        )
        if expected.completed:
            assert actual.fct == pytest.approx(expected.fct, rel=1e-9, abs=1e-9)
    assert resumed.network_throughput == pytest.approx(
        full.network_throughput, rel=1e-9
    )


@pytest.mark.parametrize("strategy_name", ("sp", "inrp"))
def test_pause_resume_matches_uninterrupted(strategy_name):
    """Pausing mid-flight and resuming reproduces the uninterrupted
    run exactly — allocations are memoryless in the active set, so the
    checkpoint needs no allocator internals."""
    topo, workload = _setup()
    specs = workload.generate(horizon=3.0)
    full = FlowLevelSimulator(
        topo, make_strategy(strategy_name, topo), specs, horizon=10.0
    ).run()
    checkpoint = FlowLevelSimulator(
        topo, make_strategy(strategy_name, topo), specs, horizon=10.0
    ).run(pause_at=1.5)
    assert isinstance(checkpoint, SimulatorCheckpoint)
    assert checkpoint.time == 1.5
    assert checkpoint.active_flows  # paused mid-flight, not after drain
    resumed = FlowLevelSimulator(
        topo, make_strategy(strategy_name, topo), specs, horizon=10.0
    ).run(resume_from=checkpoint)
    _assert_same_records(full, resumed)


def test_checkpoint_pickle_roundtrip(tmp_path):
    topo, workload = _setup()
    specs = workload.generate(horizon=2.0)
    full = FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run()
    checkpoint = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(pause_at=1.0)
    path = tmp_path / "sim.ckpt"
    checkpoint.save(path)
    restored = SimulatorCheckpoint.load(path)
    assert restored.specs_consumed == checkpoint.specs_consumed
    resumed = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(resume_from=restored)
    _assert_same_records(full, resumed)


def test_checkpoint_is_reusable():
    # Resuming twice from one checkpoint gives identical results: the
    # resume deep-copies, so the first resume cannot corrupt the second.
    topo, workload = _setup()
    specs = workload.generate(horizon=2.0)
    checkpoint = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(pause_at=1.0)
    first = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(resume_from=checkpoint)
    second = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(resume_from=checkpoint)
    _assert_same_records(first, second)


def test_streaming_source_pause_and_fast_forward():
    """A streaming-spec simulator pauses and resumes in-place (the
    partially-consumed iterator is retained), and a *fresh* iterator
    resumes by fast-forwarding the checkpoint cursor."""
    topo, workload = _setup()
    specs = workload.generate(horizon=3.0)
    baseline = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs, horizon=10.0, sink="streaming"
    ).run()

    def fresh_iter():
        _, clone = _setup()
        return clone.iter_specs(horizon=3.0)

    sim = FlowLevelSimulator(
        topo, make_strategy("sp", topo), fresh_iter(), horizon=10.0,
        sink="streaming",
    )
    checkpoint = sim.run(pause_at=1.5)
    same_sim = sim.run(resume_from=checkpoint)
    assert same_sim.num_flows == baseline.num_flows
    assert same_sim.completed_count == baseline.completed_count

    fast_forwarded = FlowLevelSimulator(
        topo, make_strategy("sp", topo), fresh_iter(), horizon=10.0,
        sink="streaming",
    ).run(resume_from=checkpoint)
    assert fast_forwarded.num_flows == baseline.num_flows
    assert fast_forwarded.completed_count == baseline.completed_count
    assert fast_forwarded.network_throughput == pytest.approx(
        baseline.network_throughput, rel=1e-9
    )


def test_consumed_stream_cannot_rerun():
    topo, workload = _setup()
    sim = FlowLevelSimulator(
        topo, make_strategy("sp", topo), workload.iter_specs(horizon=1.0),
        sink="streaming",
    )
    sim.run()
    with pytest.raises(SimulationError, match="already consumed"):
        sim.run()


def test_pause_validation():
    topo, workload = _setup()
    specs = workload.generate(horizon=1.0)
    with pytest.raises(SimulationError):
        FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run(
            pause_at=-1.0
        )
    checkpoint = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(pause_at=0.5)
    with pytest.raises(SimulationError, match="not after"):
        FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run(
            pause_at=0.25, resume_from=checkpoint
        )


def test_resume_under_another_strategy_rejected():
    """A checkpoint holds one sharing model's rates and switch count;
    resuming it under another strategy would mix two models."""
    topo, workload = _setup()
    specs = workload.generate(horizon=1.0)
    checkpoint = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(pause_at=0.2)
    assert checkpoint.strategy_name == "SP"
    assert checkpoint.active_flows
    with pytest.raises(ConfigurationError, match="'SP'"):
        FlowLevelSimulator(topo, make_strategy("inrp", topo), specs).run(
            resume_from=checkpoint
        )
    resumed = FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run(
        resume_from=checkpoint
    )
    full = FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run()
    _assert_same_records(full, resumed)


def test_pause_past_end_returns_result():
    # A pause instant the run never reaches: the run just completes.
    topo, workload = _setup()
    specs = workload.generate(horizon=1.0)
    full = FlowLevelSimulator(topo, make_strategy("sp", topo), specs).run()
    result = FlowLevelSimulator(
        topo, make_strategy("sp", topo), specs
    ).run(pause_at=1e9)
    assert not isinstance(result, SimulatorCheckpoint)
    _assert_same_records(full, result)


def test_repeated_pause_resume_chain():
    # Three pause/resume legs stitched together equal one run.
    topo, workload = _setup()
    specs = workload.generate(horizon=2.0)
    full = FlowLevelSimulator(
        topo, make_strategy("inrp", topo), specs, horizon=6.0
    ).run()
    state = FlowLevelSimulator(
        topo, make_strategy("inrp", topo), specs, horizon=6.0
    ).run(pause_at=0.8)
    state = FlowLevelSimulator(
        topo, make_strategy("inrp", topo), specs, horizon=6.0
    ).run(pause_at=1.9, resume_from=state)
    final = FlowLevelSimulator(
        topo, make_strategy("inrp", topo), specs, horizon=6.0
    ).run(resume_from=state)
    _assert_same_records(full, final)
