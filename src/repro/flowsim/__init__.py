"""Flow-level simulation substrate (the paper's Fig. 4 evaluation).

The paper evaluates the push-data and detour phases of INRPP "in a
simple flow-level simulator, where flows arrive Poisson distributed",
against single shortest-path routing (SP) and ECMP.  This package
provides:

- :mod:`~repro.flowsim.allocation` — the two incremental allocators
  every allocation runs through (max-min and INRP).  They share one
  interface: ``add_flow(flow, path, demand)`` on a node path,
  ``remove_flow(flow)`` and ``recompute(full=False)`` returning
  ``(rates, splits | None, switches)``;
- :mod:`~repro.flowsim.multipath` — the one from-scratch solver, the
  oracle ``verify=True`` and the tests check both fills against:
  progressive filling where a flow blocked at a saturated link
  *detours* its further growth through alternative sub-paths (1-hop
  detours, with one extra hop allowed on the detour path, as in the
  paper).  With no detour table the blocked flow freezes: e2e max-min;
- :mod:`~repro.flowsim.kernel` — the CSR filling kernel both
  incremental allocators fill with: the production fills;
- :mod:`~repro.flowsim.strategies` — SP / ECMP / INRP strategy objects,
  whose ``allocate`` is one fill of a fresh incremental allocator;
- :mod:`~repro.flowsim.simulator` — an event-driven simulator with
  per-event rate recomputation (arrivals, departures, completion)
  and streaming spec intake;
- :mod:`~repro.flowsim.sinks` — the pluggable result layer: the
  materializing sink (full per-flow records) and the streaming sink
  (O(1) online aggregates + quantile sketches) both assemble the same
  :class:`~repro.flowsim.sinks.SimulationResult`;
- :mod:`~repro.flowsim.snapshots` — steady-state snapshot evaluation
  used by the Fig. 4 benches.
"""

from repro.flowsim.allocation import (
    IncrementalInrp,
    IncrementalMaxMin,
    detour_closure,
)
from repro.flowsim.multipath import MultipathAllocation, inrp_allocation
from repro.flowsim.kernel import LinkSpace, inrp_fill, maxmin_fill
from repro.flowsim.flow import ActiveFlow, FlowRecord
from repro.flowsim.strategies import (
    EcmpStrategy,
    InrpStrategy,
    RoutingStrategy,
    ShortestPathStrategy,
    make_strategy,
)
from repro.flowsim.sinks import (
    FlowAggregates,
    MaterializingSink,
    ResultSink,
    SimulationResult,
    StreamingSink,
)
from repro.flowsim.simulator import FlowLevelSimulator
from repro.flowsim.snapshots import SnapshotResult, snapshot_experiment

__all__ = [
    "IncrementalMaxMin",
    "IncrementalInrp",
    "detour_closure",
    "inrp_allocation",
    "MultipathAllocation",
    "LinkSpace",
    "maxmin_fill",
    "inrp_fill",
    "ActiveFlow",
    "FlowRecord",
    "RoutingStrategy",
    "ShortestPathStrategy",
    "EcmpStrategy",
    "InrpStrategy",
    "make_strategy",
    "FlowLevelSimulator",
    "SimulationResult",
    "ResultSink",
    "MaterializingSink",
    "StreamingSink",
    "FlowAggregates",
    "snapshot_experiment",
    "SnapshotResult",
]
