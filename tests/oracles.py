"""From-scratch oracles the production event loops are checked against.

- :func:`reference_run` is the original O(active)-per-event flow-level
  loop: every arrival or departure re-runs ``strategy.allocate`` over
  the whole active set and advances every flow.  It shares only the
  spec intake (``_SpecSource``) and the record/result assembly with
  :class:`repro.flowsim.simulator.FlowLevelSimulator`, so agreement
  checks the departure heap, delivery sync and incremental allocators.
- :func:`reference_chunk_engine` runs every
  :class:`~repro.chunksim.network.ChunkNetwork` built inside it on the
  seed-era :class:`~repro.chunksim.engine.ReferenceSimulator`.

``tests/conftest.py`` puts this directory on ``sys.path``, so any test
module imports these with ``from oracles import ...``.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Sequence
from typing import Dict, Iterable, List, Optional, Union

from repro.chunksim import network as _network
from repro.chunksim.engine import ReferenceSimulator
from repro.errors import SimulationError
from repro.flowsim.flow import ActiveFlow
from repro.flowsim.simulator import _EPS, FlowLevelSimulator, _SpecSource
from repro.flowsim.sinks import ResultSink, SimulationResult, make_sink
from repro.flowsim.strategies import RoutingStrategy
from repro.metrics.timeseries import TimeWeightedMean
from repro.topology.graph import Topology
from repro.workloads.traffic import FlowSpec


def reference_run(
    topology: Topology,
    strategy: RoutingStrategy,
    specs: Iterable[FlowSpec],
    horizon: Optional[float] = None,
    sink: Union[str, ResultSink, None] = None,
) -> SimulationResult:
    """Run *specs* the from-scratch way; same contract as
    ``FlowLevelSimulator(topology, strategy, specs, horizon, sink=sink).run()``.
    """
    del topology  # the strategy already holds it; kept for call symmetry
    if isinstance(specs, Sequence):
        specs = sorted(specs, key=lambda spec: (spec.arrival_time, spec.flow_id))
    active: Dict[int, ActiveFlow] = {}
    sink = make_sink(sink)
    delivered_meter = TimeWeightedMean()
    offered_meter = TimeWeightedMean()
    source = _SpecSource(specs)
    now = 0.0
    allocations = 0
    total_switches = 0

    def _recompute() -> None:
        nonlocal allocations, total_switches
        if not active:
            return
        flows = {
            fid: (flow.primary_path, flow.spec.demand_bps)
            for fid, flow in active.items()
        }
        outcome = strategy.allocate(flows)
        allocations += 1
        total_switches += outcome.switches
        for fid, flow in active.items():
            flow.rate_bps = outcome.rates.get(fid, 0.0)
            flow.splits = [
                (path, rate) for path, rate in outcome.splits.get(fid, []) if rate > 0
            ]

    while not source.exhausted or active:
        next_arrival = source.next_arrival
        next_departure = math.inf
        for flow in active.values():
            if flow.rate_bps > _EPS:
                next_departure = min(
                    next_departure, now + flow.remaining_bits / flow.rate_bps
                )
        next_time = min(next_arrival, next_departure)
        if horizon is not None:
            next_time = min(next_time, horizon)
        if math.isinf(next_time):
            # Active flows exist but none can make progress and no
            # arrivals remain: report them unfinished.
            break

        dt = next_time - now
        if dt < -_EPS:
            raise SimulationError("event time went backwards")
        if dt > 0:
            # The rate vector was constant over [now, next_time).
            delivered = sum(flow.rate_bps for flow in active.values())
            offered = sum(flow.spec.demand_bps for flow in active.values())
            delivered_meter.observe(next_time, delivered)
            offered_meter.observe(next_time, offered)
            for flow in active.values():
                flow.record_delivery(dt)
        now = next_time

        # Completions strictly before new arrivals at the same
        # instant — including at the horizon instant itself, so a
        # flow finishing exactly at t == horizon counts completed.
        finished: List[int] = [fid for fid, flow in active.items() if flow.done]
        for fid in finished:
            flow = active.pop(fid)
            sink.consume(FlowLevelSimulator._finalize(flow, completion_time=now))

        if horizon is not None and now >= horizon:
            break

        arrived = False
        while not source.exhausted and source.next_arrival <= now + _EPS:
            spec = source.pop()
            path = strategy.route(spec.flow_id, spec.source, spec.destination)
            active[spec.flow_id] = ActiveFlow(
                spec=spec, primary_path=path, remaining_bits=spec.size_bits
            )
            arrived = True

        if finished or arrived:
            _recompute()

    return FlowLevelSimulator._finish_run(
        sink,
        active,
        delivered_meter,
        offered_meter,
        now,
        allocations,
        total_switches,
    )


@contextlib.contextmanager
def reference_chunk_engine():
    """Build every :class:`ChunkNetwork` inside the block on the
    :class:`ReferenceSimulator`; yields the list of engines built, so
    a comparison can assert it really ran on the yardstick."""
    built: List[ReferenceSimulator] = []

    def build() -> ReferenceSimulator:
        engine = ReferenceSimulator()
        built.append(engine)
        return engine

    original = _network.Simulator
    _network.Simulator = build
    try:
        yield built
    finally:
        _network.Simulator = original
