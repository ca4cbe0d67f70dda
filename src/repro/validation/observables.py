"""Observable mapping between the two fidelities.

The chunk simulator measures protocol outcomes (per-chunk arrivals,
custody stores, back-pressure signals); the flow-level model predicts
fluid outcomes (steady rates, path splits).  This module reduces both
to one comparable vocabulary:

========================  =====================================  ===================================
observable                chunk-level source                     flow-level source
========================  =====================================  ===================================
per-flow rate (bps)       post-warmup goodput                    ``strategy.allocate`` fixed point
fairness (Jain)           goodput Jain index                     allocated-rate Jain index
path stretch              ``mean_hops / sp_hops``                rate-weighted split-path stretch
completion time (s)       receiver completion - start            ``FlowLevelSimulator`` record FCT
custody occupancy (B)     peak custody store bytes               transient bound (see below)
custody / bp onset (s)    first ``custody`` trace event          control-transient window
loss (AIMD only)          drop-tail drop count                   any positive fluid deficit
========================  =====================================  ===================================

Two mapped observables need a model rather than a direct counterpart:

**Custody prediction** (:func:`predict_custody`).  A fluid deficit at
the *sender* never creates custody — receiver-driven pacing absorbs
it at the source before chunks enter the network.  Custody appears
only when chunks already committed to a detour meet contention they
cannot outrun: some link on the detour portion of one flow's split is
also carrying another flow's traffic.  The predicate is therefore:
custody is expected iff the detour-only links of some flow's fluid
split intersect the split links of another flow.

**Custody bound** (:attr:`FluidObservables.custody_bound_bytes`).
Custody occupancy is a *transient* quantity: once back-pressure
propagates (one measurement interval ``Ti`` to detect, one to relay,
plus the path round-trip) senders are paced to the fluid rates and
custody drains.  The bound charges every flow's full fluid deficit
for that control window plus each flow's anticipation allowance
(chunks legitimately in flight ahead of demand):

    bound = sum(deficit_bps) * (2*Ti + max_rtt) / 8
          + n_flows * anticipation * chunk_bytes
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.flowsim import FlowLevelSimulator, make_strategy
from repro.flowsim.flow import split_stretch
from repro.metrics.fairness import jain_index
from repro.routing.paths import Path, path_links
from repro.routing.shortest import shortest_path
from repro.topology.graph import Topology
from repro.validation.scenario import ValidationScenario
from repro.workloads.traffic import FlowSpec

Splits = Dict[int, List[Tuple[Path, float]]]


@dataclass
class ChunkObservables:
    """What the chunk-level protocol simulation measured."""

    rates_bps: Dict[int, float]
    jain: float
    stretch: Dict[int, float]
    fct: Dict[int, Optional[float]]
    completed: Dict[int, bool]
    custody_peak_bytes: int
    custody_events: int
    custody_onset: Optional[float]
    backpressure_signals: int
    drops: int
    events_processed: int


@dataclass
class FluidObservables:
    """What the flow-level fluid model predicts."""

    rates_bps: Dict[int, float]
    jain: float
    stretch: Dict[int, float]
    fct: Dict[int, Optional[float]]
    completed: Dict[int, bool]
    deficits_bps: Dict[int, float]
    #: ``None`` when the strategy never detours: no custody model.
    custody_expected: Optional[bool]
    custody_bound_bytes: float
    #: Back-pressure, when predicted, must engage within this many
    #: seconds after the last flow starts (the control transient).
    onset_window_s: float
    demands_bps: Dict[int, float] = field(default_factory=dict)


def _first_hop_demand(topo: Topology, route: Path) -> float:
    """Demand of a flow: the capacity of its first-hop (access) link.

    Both fidelities are receiver-driven with no application pacing, so
    a flow asks for as much as its access link can carry — which on
    Fig. 3 reproduces the paper's 10 Mbps offered load.
    """
    return topo.capacity(route[0], route[1])


def _sp_hops(topo: Topology, source, destination) -> int:
    return len(shortest_path(topo, source, destination)) - 1


def _detour_only_links(splits: List[Tuple[Path, float]], primary: Path) -> Set:
    """Links used by a flow's non-primary splits but not its primary."""
    primary_links = set(path_links(primary))
    extra: Set = set()
    for path, rate in splits:
        if rate <= 0.0 or tuple(path) == tuple(primary):
            continue
        extra.update(
            link
            for link in path_links(path)
            if link not in primary_links
        )
    return extra


def predict_custody(
    splits: Splits, primaries: Dict[int, Path]
) -> bool:
    """Does the fluid allocation imply transit custody?

    True iff some flow's detour-only links carry another flow's
    traffic (see the module docstring for the reasoning).  Sender-side
    deficits alone never trigger custody.
    """
    detour_links = {
        fid: _detour_only_links(splits.get(fid, []), primary)
        for fid, primary in primaries.items()
    }
    all_links = {
        fid: {
            link
            for path, rate in splits.get(fid, [])
            if rate > 0.0
            for link in path_links(path)
        }
        for fid in primaries
    }
    for fid, extras in detour_links.items():
        if not extras:
            continue
        for other, links in all_links.items():
            if other != fid and extras & links:
                return True
    return False


def _max_rtt(topo: Topology, splits: Splits, primaries: Dict[int, Path]) -> float:
    """Largest round-trip propagation delay over any used path."""
    paths = [tuple(p) for p in primaries.values()]
    for split in splits.values():
        paths.extend(tuple(path) for path, rate in split if rate > 0.0)
    best = 0.0
    for path in paths:
        rtt = 2.0 * sum(topo.delay(u, v) for u, v in zip(path, path[1:]))
        best = max(best, rtt)
    return best


# ----------------------------------------------------------------------
# Runners
# ----------------------------------------------------------------------
def run_chunk_fidelity(
    scenario: ValidationScenario,
    config: Optional[ChunkSimConfig] = None,
) -> ChunkObservables:
    """Run *scenario* through the chunk-level protocol simulator."""
    topo = scenario.topology()
    if scenario.detour_depth is not None:
        config = replace(config or ChunkSimConfig(), detour_depth=scenario.detour_depth)
    network = ChunkNetwork(topo, mode=scenario.mode, config=config)
    flow_ids = [
        network.add_flow(
            flow.source,
            flow.destination,
            num_chunks=scenario.chunks_per_flow,
            start_time=flow.start_time,
        )
        for flow in scenario.flows
    ]
    report = network.run(
        duration=scenario.duration, warmup=scenario.effective_warmup
    )
    rates = {fid: report.flow(fid).goodput_bps for fid in flow_ids}
    stretch = {}
    fct = {}
    completed = {}
    for fid in flow_ids:
        flow_report = report.flow(fid)
        hops = _sp_hops(topo, flow_report.source, flow_report.destination)
        stretch[fid] = flow_report.mean_hops / hops if hops else 1.0
        fct[fid] = flow_report.fct
        completed[fid] = flow_report.completed
    return ChunkObservables(
        rates_bps=rates,
        jain=report.jain(),
        stretch=stretch,
        fct=fct,
        completed=completed,
        custody_peak_bytes=report.custody_peak_bytes,
        custody_events=report.custody_events,
        custody_onset=network.trace.first_seen.get("custody"),
        backpressure_signals=report.backpressure_signals,
        drops=report.drops,
        events_processed=report.events_processed,
    )


def run_flow_fidelity(
    scenario: ValidationScenario,
    config: Optional[ChunkSimConfig] = None,
) -> FluidObservables:
    """Run *scenario* through the flow-level fluid model.

    Steady observables come from the strategy's allocation fixed
    point (all flows concurrently active — starts in the calibrated
    scenarios are separated by at most a few tens of milliseconds
    against multi-second measurement windows); completion times come
    from the progressive-filling :class:`FlowLevelSimulator`.
    """
    config = config or ChunkSimConfig()
    topo = scenario.topology()
    strategy = make_strategy(scenario.mode, topo, detour_depth=scenario.detour_depth)
    flow_ids = list(range(len(scenario.flows)))
    primaries: Dict[int, Path] = {}
    demands: Dict[int, float] = {}
    for fid, flow in zip(flow_ids, scenario.flows):
        route = strategy.route(fid, flow.source, flow.destination)
        primaries[fid] = route
        demands[fid] = _first_hop_demand(topo, route)

    outcome = strategy.allocate(
        {fid: (primaries[fid], demands[fid]) for fid in flow_ids}
    )
    rates = outcome.rates
    deficits = {
        fid: max(demands[fid] - rates[fid], 0.0) for fid in flow_ids
    }
    stretch = {
        fid: split_stretch(outcome.splits[fid], len(primaries[fid]) - 1)
        for fid in flow_ids
    }
    custody_expected = (
        None
        if strategy.detour_depth is None
        else predict_custody(outcome.splits, primaries)
    )
    control_window = 2.0 * config.ti + _max_rtt(topo, outcome.splits, primaries)
    custody_bound = (
        sum(deficits.values()) * control_window / 8.0
        + len(flow_ids) * config.anticipation * config.chunk_bytes
    )

    fct: Dict[int, Optional[float]] = {fid: None for fid in flow_ids}
    completed = {fid: False for fid in flow_ids}
    if scenario.kind == "completion":
        size_bits = scenario.chunks_per_flow * config.chunk_bytes * 8.0
        specs = [
            FlowSpec(
                flow_id=fid,
                source=flow.source,
                destination=flow.destination,
                arrival_time=flow.start_time,
                size_bits=size_bits,
                demand_bps=demands[fid],
            )
            for fid, flow in zip(flow_ids, scenario.flows)
        ]
        result = FlowLevelSimulator(
            topo, strategy, specs, horizon=scenario.duration
        ).run()
        # Per-flow FCTs are needed here, so the run must materialize
        # (the default sink); require_records() makes that explicit.
        for record in result.require_records():
            fct[record.flow_id] = record.fct
            completed[record.flow_id] = record.completed

    return FluidObservables(
        rates_bps=rates,
        jain=jain_index([rates[fid] for fid in flow_ids]),
        stretch=stretch,
        fct=fct,
        completed=completed,
        deficits_bps=deficits,
        custody_expected=custody_expected,
        custody_bound_bytes=custody_bound,
        onset_window_s=4.0 * config.ti,
        demands_bps=demands,
    )
