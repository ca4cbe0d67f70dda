"""From-scratch oracles the production event loops are checked against.

- :func:`reference_run` is the original O(active)-per-event flow-level
  loop: every arrival or departure re-runs the scratch solver
  (:func:`_scratch_allocate`) over the whole active set and advances
  every flow.  It shares only the spec intake (``_SpecSource``) and
  the record/result assembly with
  :class:`repro.flowsim.simulator.FlowLevelSimulator`, so agreement
  checks the departure heap, delivery sync, incremental allocators
  and CSR kernel fills.
- :class:`ReferenceSimulator` is the seed-era chunk event loop, and
  :func:`reference_chunk_engine` runs every
  :class:`~repro.chunksim.network.ChunkNetwork` built inside it on
  that loop.
- :func:`heap_dijkstra` is a heap Dijkstra over unit link costs with
  the routing tie-break written out, the oracle of the hop-count
  search in :mod:`repro.routing.shortest`.

``tests/conftest.py`` puts this directory on ``sys.path``, so any test
module imports these with ``from oracles import ...``.
"""

from __future__ import annotations

import contextlib
import heapq
import math
from collections.abc import Sequence
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.chunksim import network as _network
from repro.chunksim.engine import _SCHEDULE_CLAMP
from repro.errors import SimulationError
from repro.flowsim.flow import ActiveFlow
from repro.flowsim.multipath import inrp_allocation
from repro.flowsim.simulator import _EPS, FlowLevelSimulator, _SpecSource
from repro.flowsim.sinks import ResultSink, SimulationResult, make_sink
from repro.flowsim.strategies import RoutingStrategy
from repro.metrics.timeseries import TimeWeightedMean
from repro.routing.paths import Path
from repro.topology.graph import Node, Topology, node_rank
from repro.workloads.traffic import FlowSpec


def _scratch_allocate(
    strategy: RoutingStrategy, flows: Mapping[int, Tuple[Path, float]]
) -> Tuple[Dict[int, float], Dict[int, List[Tuple[Path, float]]], int]:
    """``(rates, splits, switches)`` of *strategy*'s sharing model over
    ``{id: (path, demand)}``, from the from-scratch solver rather than
    the kernel fill ``strategy.allocate`` runs (with no detour table
    for SP and ECMP: e2e max-min)."""
    result = inrp_allocation(
        strategy.capacities,
        {fid: path for fid, (path, _) in flows.items()},
        {fid: demand for fid, (_, demand) in flows.items()},
        getattr(strategy, "detour_table", None),
        max_replacements=getattr(strategy, "max_replacements", 0),
    )
    return result.rates, result.splits, result.switches


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
        rates, splits, switches = _scratch_allocate(strategy, flows)
        allocations += 1
        total_switches += switches
        for fid, flow in active.items():
            flow.rate_bps = rates.get(fid, 0.0)
            flow.splits = [
                (path, rate) for path, rate in splits.get(fid, []) if rate > 0
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


class _ReferenceEvent:
    """Seed-era heap entry: an object whose ``__lt__`` is Python code."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "_ReferenceEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceSimulator:
    """The seed event loop, kept as the semantic/performance baseline.

    The scheduling API of :class:`~repro.chunksim.engine.Simulator`
    (``call_after`` / ``call_at`` / ``cancel_entry`` / ``run``) with
    identical event ordering, but with the seed's cost profile:
    per-entry objects compared via a Python ``__lt__``, one run-bound
    test per event, and tombstones that stay in the heap until their
    scheduled time is popped.  The equivalence tests and
    ``benchmarks/bench_chunksim.py`` drive both engines through the
    same scenario and assert identical traces.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: List[_ReferenceEvent] = []
        self._seq = 0
        self.events_processed = 0

    def call_after(self, delay: float, fn: Callable, *args) -> _ReferenceEvent:
        """Run ``fn(*args)`` after *delay* seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        event = _ReferenceEvent(self.now + delay, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def call_at(self, time: float, fn: Callable, *args) -> _ReferenceEvent:
        """Run ``fn(*args)`` at absolute simulated *time* (>= now)."""
        delay = time - self.now
        if -_SCHEDULE_CLAMP * (1.0 + abs(self.now)) <= delay < 0.0:
            delay = 0.0
        return self.call_after(delay, fn, *args)

    @staticmethod
    def cancel_entry(entry: _ReferenceEvent) -> None:
        entry.cancelled = True

    def run(self, until: float) -> None:
        """Process events until the clock passes *until*."""
        if until < self.now:
            raise SimulationError(f"cannot run backwards to {until}")
        while self._heap and self._heap[0].time <= until:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.now = event.time
            event.fn(*event.args)
            self.events_processed += 1
        self.now = until

    @property
    def pending(self) -> int:
        """Number of events still queued (including tombstones)."""
        return len(self._heap)


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


def heap_dijkstra(
    topo: Topology, source: Node
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Hop distances and predecessors from *source*, by heap Dijkstra.

    Nodes are settled in ``(distance, node_rank)`` order.  Of two
    equal-distance predecessors the lower-ranked one wins, the
    tie-break the production BFS gets from expanding each level in rank
    order.  Both maps are filled in discovery order; unreachable nodes
    are absent.
    """
    distances: Dict[Node, float] = {source: 0.0}
    predecessors: Dict[Node, Node] = {}
    settled = set()
    frontier = [(0.0, node_rank(source), source)]
    while frontier:
        dist, _, node = heapq.heappop(frontier)
        if node in settled:
            continue
        settled.add(node)
        for neighbour in topo.neighbors(node):
            if neighbour in settled:
                continue
            candidate = dist + 1.0
            best = distances.get(neighbour)
            if (
                best is None
                or candidate < best
                or (
                    candidate == best
                    and node_rank(node) < node_rank(predecessors[neighbour])
                )
            ):
                distances[neighbour] = candidate
                predecessors[neighbour] = node
                heapq.heappush(frontier, (candidate, node_rank(neighbour), neighbour))
    return distances, predecessors
