"""Event-driven flow-level simulator.

Implements the standard fluid flow-level simulation loop: the rate
vector is recomputed at every flow arrival and departure; between
events rates are constant, so deliveries and completion times are
exact integrals.

One event loop implements it.  It keeps the next departure of every
flow in a lazy-invalidation heap (the tombstone pattern of
:mod:`repro.chunksim.engine`: a stale entry is skipped when popped,
never searched for), syncs each flow's delivered bits only when its
rate actually changes, and recomputes rates only for the component
dirtied by the event, via the strategy's incremental allocator
(:class:`repro.flowsim.allocation.IncrementalInrp`, with a replacement
budget of 0 for SP/ECMP), called directly through its interface:
``add_flow(flow, path, demand)``, ``remove_flow``, ``recompute(full=)``
returning ``(rates, splits, switches)``, and the
``dirty_component_size`` probe.
Same-instant arrivals and departures are batched into a single
recompute.  The per-event cost is O(affected component · log flows)
instead of O(all active flows), which is what makes 100k-flow load
sweeps tractable.  The tests check it against a from-scratch
O(active)-per-event loop over the scratch solver.

The loop follows the **streaming contract**: flow specs are pulled
one at a time from any arrival-ordered iterator (a materialized list
works too and is sorted defensively), and every finalized flow goes to
a pluggable :class:`~repro.flowsim.sinks.ResultSink` instead of an
append-only record list.  With
:class:`~repro.flowsim.sinks.StreamingSink` plus
:meth:`repro.workloads.traffic.FlowWorkload.iter_specs` the resident
state is just the active flows and O(1) aggregates — million-flow runs
complete in bounded memory.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence as _SequenceABC
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.flowsim.flow import ActiveFlow, FlowRecord, stretch_of
from repro.flowsim.sinks import ResultSink, SimulationResult, make_sink
from repro.flowsim.strategies import RoutingStrategy
from repro.metrics.timeseries import TimeWeightedMean
from repro.topology.graph import Topology
from repro.workloads.traffic import FlowSpec

__all__ = [
    "FlowLevelSimulator",
    "SimulationResult",
]

_EPS = 1e-9


class _SpecSource:
    """Pull-based arrival stream with one-spec lookahead.

    Wraps any iterator of :class:`FlowSpec` in arrival order; the loop
    peeks :attr:`next_arrival` and :meth:`pop`\\ s specs as the clock
    reaches them, so only one unarrived spec is resident at a time.
    Ordering is validated as specs stream through (an out-of-order
    spec raises instead of silently corrupting the event clock).
    """

    __slots__ = ("_iterator", "_head")

    def __init__(self, specs: Iterable[FlowSpec]):
        self._iterator = iter(specs)
        self._head: Optional[FlowSpec] = next(self._iterator, None)

    @property
    def exhausted(self) -> bool:
        return self._head is None

    @property
    def next_arrival(self) -> float:
        if self._head is None:
            return math.inf
        return self._head.arrival_time

    def pop(self) -> FlowSpec:
        spec = self._head
        if spec is None:
            raise SimulationError("popped an exhausted spec stream")
        head = next(self._iterator, None)
        if head is not None and head.arrival_time < spec.arrival_time - _EPS:
            raise SimulationError(
                "flow specs must stream in arrival order: "
                f"flow {head.flow_id} at t={head.arrival_time} after "
                f"flow {spec.flow_id} at t={spec.arrival_time}"
            )
        self._head = head
        return spec


class _AdaptiveCorePolicy:
    """Decides which recomputes run in full mode.

    The policy watches the fraction of active flows each recompute
    returned; after ``PATIENCE`` consecutive recomputes above
    ``THRESHOLD`` (with at least ``MIN_ACTIVE`` flows active, so tiny
    populations never flap) it switches to full mode, then probes the
    dirty-component size (a search, no fill) every ``PROBE_EVERY``-th
    event to notice when components have shrunk again.

    Full mode saves no work under either model: a full recompute
    fills the same dirty component as an incremental one and differs
    only in the switch count it reports (see
    :meth:`IncrementalInrp.recompute
    <repro.flowsim.allocation.IncrementalInrp.recompute>`).  Under SP
    and ECMP that count is 0, so the policy moves only
    ``full_refills``; under INRP it moves ``total_switches`` too, which
    the benchmark fingerprints pin, and that is all that keeps it.
    """

    THRESHOLD = 0.5
    PATIENCE = 3
    PROBE_EVERY = 16
    MIN_ACTIVE = 64

    def __init__(self):
        self.full_refills = 0
        self._streak = 0
        self._full_mode = False
        self._since_probe = 0

    def decide(self, measure, active: int) -> bool:
        """Should the next recompute be a full refill?

        ``measure`` is a zero-argument callable returning the current
        dirty-component size (a search, no fill); it is consulted on full-mode
        probe events, so its cost is amortised over ``PROBE_EVERY``
        refills.
        """
        if not self._full_mode:
            return False
        self._since_probe += 1
        if self._since_probe >= self.PROBE_EVERY:
            self._since_probe = 0
            if active < self.MIN_ACTIVE or measure() <= self.THRESHOLD * active:
                self._full_mode = False
                self._streak = 0
                return False
        return True

    def observe(self, changed: int, active: int, was_full: bool) -> None:
        """Feed back what the recompute actually touched."""
        if was_full:
            self.full_refills += 1
            return
        if active >= self.MIN_ACTIVE and changed > self.THRESHOLD * active:
            self._streak += 1
            if self._streak >= self.PATIENCE:
                self._full_mode = True
                self._since_probe = 0
        else:
            self._streak = 0


class FlowLevelSimulator:
    """Run a schedule of :class:`FlowSpec` under a routing strategy.

    Parameters
    ----------
    specs:
        Either a materialized sequence (sorted defensively by arrival
        time) or any iterator yielding specs in arrival order — e.g.
        :meth:`repro.workloads.traffic.FlowWorkload.iter_specs` — which
        is consumed lazily, one lookahead spec at a time.  An iterator
        is single-use: rerunning requires a fresh one.
    horizon:
        Hard stop (seconds).  Flows completing exactly at the horizon
        instant count as completed; flows still active are reported as
        unfinished with their partial delivery.
    sink:
        Where finalized flows go: ``"materialize"`` (default; the
        historical per-flow record list), ``"streaming"``
        (:class:`~repro.flowsim.sinks.StreamingSink` — O(1) online
        aggregates, ``result.records is None``) or a
        :class:`~repro.flowsim.sinks.ResultSink` instance, which is
        single-use: rerunning with one raises, as a consumed stream
        does, instead of folding a second run into the first result.
    verify_allocator:
        Re-check every incremental recompute against the from-scratch solver
        (:func:`~repro.flowsim.multipath.inrp_allocation`, with no
        detour table under SP and ECMP; slow, used by benchmarks and
        tests).  The run itself is unchanged: a
        verified run's result equals the unverified run's, plus
        ``max_verify_deviation``.
    """

    def __init__(
        self,
        topology: Topology,
        strategy: RoutingStrategy,
        specs: Union[Iterable[FlowSpec], "Sequence[FlowSpec]"],
        horizon: Optional[float] = None,
        sink: Union[str, ResultSink, None] = None,
        verify_allocator: bool = False,
    ):
        if horizon is not None and horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        self.topology = topology
        self.strategy = strategy
        if isinstance(specs, _SequenceABC):
            #: Materialized schedule (None when streaming from an iterator).
            self.specs: Optional[List[FlowSpec]] = sorted(
                specs, key=lambda spec: (spec.arrival_time, spec.flow_id)
            )
            self._spec_input: Optional[Iterable[FlowSpec]] = None
        else:
            self.specs = None
            self._spec_input = specs
        self._ran = False
        self.horizon = horizon
        self.sink = sink
        self.verify_allocator = verify_allocator

    def run(self) -> SimulationResult:
        """Run the schedule to completion (or to the horizon)."""
        if self._ran:
            if self.specs is None:
                raise SimulationError(
                    "streaming flow specs were already consumed; construct "
                    "a new simulator (or pass a materialized list) to rerun"
                )
            if isinstance(self.sink, ResultSink):
                raise SimulationError(
                    "the result sink instance already holds a run; construct "
                    "a new sink (or pass a sink name) to rerun"
                )
        self._ran = True
        source = _SpecSource(
            self._spec_input if self.specs is None else self.specs
        )
        sink = make_sink(self.sink)
        delivered_meter = TimeWeightedMean()
        offered_meter = TimeWeightedMean()
        active: Dict[int, ActiveFlow] = {}
        last_sync: Dict[int, float] = {}
        version: Dict[int, int] = {}
        heap: List[Tuple[float, int, int, int]] = []  # (time, seq, fid, version)
        now = 0.0
        seq = 0
        allocations = 0
        total_switches = 0
        sum_rate = 0.0
        sum_demand = 0.0
        allocator = self.strategy.incremental_allocator(
            verify=self.verify_allocator
        )
        policy = _AdaptiveCorePolicy()

        def _peek_departure() -> float:
            while heap:
                time, _, fid, ver = heap[0]
                if version.get(fid) != ver:
                    heapq.heappop(heap)  # tombstone: rate changed or flow gone
                    continue
                return time
            return math.inf

        def _compact_heap() -> None:
            # Lazy invalidation leaves tombstones buried in the heap
            # until they surface; at most one entry per flow is live
            # (its current version), so when tombstones dominate the
            # heap is rebuilt from the live entries.  The trigger keeps
            # the heap O(active), which is what bounds the memory of
            # million-flow streaming runs; the rebuild is O(heap) but
            # amortised by the growth needed to re-trigger it.
            nonlocal heap
            live = [entry for entry in heap if version.get(entry[2]) == entry[3]]
            heapq.heapify(live)
            heap = live

        def _sync(fid: int, flow: ActiveFlow) -> None:
            dt = now - last_sync[fid]
            if dt > 0:
                flow.record_delivery(dt)
            last_sync[fid] = now

        def _set_rate(
            fid: int, flow: ActiveFlow, rate: float, splits: List[Tuple[tuple, float]]
        ) -> None:
            nonlocal sum_rate, seq
            _sync(fid, flow)
            sum_rate += rate - flow.rate_bps
            flow.rate_bps = rate
            flow.splits = splits
            version[fid] += 1
            if rate > _EPS:
                departure = now + flow.remaining_bits / rate
                heapq.heappush(heap, (departure, seq, fid, version[fid]))
                seq += 1

        def _drop(fid: int, flow: ActiveFlow, completion: Optional[float]) -> None:
            nonlocal sum_rate, sum_demand
            active.pop(fid)
            version.pop(fid)  # invalidates any heap entries for fid
            last_sync.pop(fid)
            sum_rate -= flow.rate_bps
            sum_demand -= flow.spec.demand_bps
            allocator.remove_flow(fid)
            sink.consume(self._finalize(flow, completion_time=completion))

        while not source.exhausted or active:
            next_arrival = source.next_arrival
            next_departure = _peek_departure()
            next_time = min(next_arrival, next_departure)
            if self.horizon is not None:
                next_time = min(next_time, self.horizon)
            if math.isinf(next_time):
                # Active flows exist but none can make progress and no
                # arrivals remain: report them unfinished.
                break

            dt = next_time - now
            if dt < -_EPS:
                raise SimulationError("event time went backwards")
            if dt > 0:
                # The rate vector was constant over [now, next_time).
                delivered_meter.observe(next_time, sum_rate)
                offered_meter.observe(next_time, sum_demand)
            now = next_time

            # Departures due at this instant (batched; completions
            # strictly before new arrivals at the same instant).
            finished = False
            while heap:
                time, _, fid, ver = heap[0]
                if version.get(fid) != ver:
                    heapq.heappop(heap)
                    continue
                if time > now:
                    break
                heapq.heappop(heap)
                flow = active[fid]
                _sync(fid, flow)
                if flow.done:
                    _drop(fid, flow, completion=now)
                    finished = True
                    continue
                # Float residue left the flow a hair short of done:
                # re-arm its departure strictly in the future.
                version[fid] += 1
                departure = now + flow.remaining_bits / flow.rate_bps
                if departure <= now:
                    flow.remaining_bits = 0.0
                    _drop(fid, flow, completion=now)
                    finished = True
                else:
                    heapq.heappush(heap, (departure, seq, fid, version[fid]))
                    seq += 1

            if self.horizon is not None and now >= self.horizon:
                break

            arrived = False
            while not source.exhausted and source.next_arrival <= now + _EPS:
                spec = source.pop()
                path = self.strategy.route(spec.flow_id, spec.source, spec.destination)
                active[spec.flow_id] = ActiveFlow(
                    spec=spec, primary_path=path, remaining_bits=spec.size_bits
                )
                version[spec.flow_id] = 0
                last_sync[spec.flow_id] = now
                sum_demand += spec.demand_bps
                allocator.add_flow(spec.flow_id, path, spec.demand_bps)
                arrived = True

            if (finished or arrived) and active:
                use_full = policy.decide(
                    allocator.dirty_component_size, len(active)
                )
                rates, splits_map, switches = allocator.recompute(full=use_full)
                policy.observe(len(rates), len(active), use_full)
                allocations += 1
                total_switches += switches
                # Only the dirty component came back, with its new
                # per-path splits.  A flow keeps only the splits that
                # carry something; past the primary, every split does.
                for fid, rate in rates.items():
                    flow = active[fid]
                    splits = splits_map[fid]
                    if splits[0][1] <= 0:
                        splits = splits[1:]
                    if rate != flow.rate_bps or splits != flow.splits:
                        _set_rate(fid, flow, rate, splits)
            elif not active:
                sum_rate = 0.0  # exact reset: no accumulated float drift
                sum_demand = 0.0

            if len(heap) > 1024 and len(heap) > 8 * len(active):
                _compact_heap()

        for fid, flow in active.items():
            _sync(fid, flow)
        max_deviation = None
        if self.verify_allocator:
            max_deviation = allocator.max_verify_deviation
        return self._finish_run(
            sink,
            active,
            delivered_meter,
            offered_meter,
            now,
            allocations,
            total_switches,
            full_refills=policy.full_refills,
            max_verify_deviation=max_deviation,
        )

    @staticmethod
    def _finish_run(
        sink: ResultSink,
        active: Dict[int, ActiveFlow],
        delivered_meter: TimeWeightedMean,
        offered_meter: TimeWeightedMean,
        now: float,
        allocations: int,
        total_switches: int,
        full_refills: int = 0,
        max_verify_deviation: Optional[float] = None,
    ) -> SimulationResult:
        """Tail of a run (shared with the test oracle): flows still active are
        reported unfinished (the caller has synced their deliveries),
        then the sink assembles the result."""
        for flow in active.values():
            sink.consume(
                FlowLevelSimulator._finalize(flow, completion_time=None)
            )
        offered_mean = offered_meter.mean
        throughput = (
            delivered_meter.mean / offered_mean if offered_mean > 0 else 0.0
        )
        return sink.build(
            network_throughput=throughput,
            mean_delivered_bps=delivered_meter.mean,
            mean_offered_bps=offered_mean,
            duration=now,
            allocations=allocations,
            unfinished=len(active),
            total_switches=total_switches,
            full_refills=full_refills,
            max_verify_deviation=max_verify_deviation,
        )

    @staticmethod
    def _finalize(flow: ActiveFlow, completion_time: Optional[float]) -> FlowRecord:
        delivered = flow.spec.size_bits - max(flow.remaining_bits, 0.0)
        return FlowRecord(
            flow_id=flow.spec.flow_id,
            source=flow.spec.source,
            destination=flow.spec.destination,
            size_bits=flow.spec.size_bits,
            arrival_time=flow.spec.arrival_time,
            completion_time=completion_time,
            delivered_bits=delivered,
            stretch=stretch_of(flow),
        )
