"""Grid-sweep scenarios that go beyond the paper's fixed operating points.

The paper evaluates INRP at a handful of points; resource pooling's
benefit is an *aggregate* claim, so these scenarios expose every knob —
seed × ISP topology × routing strategy × detour depth × load — as a
campaign grid axis.  A typical sweep::

    python -m repro campaign run --scenarios snapshot-sweep \
        --grid seed=0,1,2 --grid isp=telstra,exodus,tiscali \
        --grid strategy=sp,ecmp,inrp --grid detour_depth=0,1,2 \
        --workers 8
"""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis.fig4 import run_snapshot_cell
from repro.campaign.scenario import register_scenario
from repro.flowsim.simulator import FlowLevelSimulator
from repro.flowsim.strategies import make_strategy
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads.traffic import FlowWorkload, local_pairs


@register_scenario(
    "snapshot-sweep",
    summary="flow-level snapshot point: one (seed, isp, strategy, depth) cell",
    tags=("sweep", "flowsim"),
)
def scenario_snapshot_sweep(
    seed: int = 0,
    isp: str = "telstra",
    strategy: str = "inrp",
    detour_depth: int = 2,
    num_snapshots: int = 8,
    demand_mbps: float = 10.0,
    flows_per_node: float = 1.0 / 12.0,
    max_hops: int = 5,
) -> Dict[str, Any]:
    """One cell of the Fig. 4-style sweep grid.

    Grid axes are the parameters; the campaign runner takes the
    cartesian product, so a full seed × isp × strategy × depth sweep is
    one ``campaign run`` invocation instead of a hand-rolled loop.
    Grid ``flows_per_node`` to trace throughput against offered load
    (pooling pays most near saturation), or ``detour_depth=0,1,2`` for
    the detour-depth ablation (depth 0 is SP with push).
    """
    topo = build_isp_topology(isp, seed=0)
    routing = make_strategy(strategy, topo, detour_depth=detour_depth)
    snapshot = run_snapshot_cell(
        topo,
        routing,
        seed=seed,
        sampler_label=f"snapshot-sweep-{isp}",
        num_snapshots=num_snapshots,
        demand_bps=mbps(demand_mbps),
        flows_per_node=flows_per_node,
        max_hops=max_hops,
    )
    result: Dict[str, Any] = {
        "isp": isp,
        "strategy": strategy,
        "detour_depth": routing.detour_depth,
        "num_flows": max(10, int(topo.num_nodes * flows_per_node)),
        "num_snapshots": num_snapshots,
        "mean_throughput": snapshot.mean_throughput,
        "std_throughput": snapshot.std_throughput,
        "switches": snapshot.switches,
        "backpressured": snapshot.backpressured,
    }
    if snapshot.stretch_values:
        cdf = snapshot.stretch_cdf()
        result["stretch"] = {
            "p50": cdf.quantile(0.50),
            "p90": cdf.quantile(0.90),
            "p99": cdf.quantile(0.99),
        }
    return result


@register_scenario(
    "load-sweep-large",
    summary="event-driven 10k-100k flow Poisson sweep through the flow-level event loop",
    tags=("sweep", "flowsim", "scale"),
)
def scenario_load_sweep_large(
    seed: int = 0,
    isp: str = "sprint",
    strategy: str = "sp",
    num_flows: int = 10_000,
    arrival_rate: float = 1500.0,
    mean_size_mbit: float = 2.5,
    demand_mbps: float = 10.0,
    max_hops: int = 4,
    detour_depth: int = 2,
    sink: str = "materialize",
) -> Dict[str, Any]:
    """One cell of the large event-driven load sweep (Fig. 3/4 regime).

    Unlike the snapshot scenarios, this runs the full arrival/departure
    dynamics: ``num_flows`` Poisson arrivals with locality-bounded
    endpoints pushed through :class:`FlowLevelSimulator`'s event loop.
    Grid ``num_flows=10000,...,100000`` against ``strategy`` and
    ``arrival_rate`` traces throughput and FCT across operating points
    at population sizes a from-scratch re-fill per event could not reach.

    ``sink="streaming"`` streams the specs straight from the workload
    and folds completions into online aggregates — the reported cell is
    identical in shape (quantiles within sketch rank error) but the
    run's memory stays flat in ``num_flows``.

    Two operating points are grid lines of this scenario:

    - INRP below saturation (local pairs within 3 hops, ρ < 1; 0.90
      network throughput at seed 0): ``--grid strategy=inrp --grid
      arrival_rate=800.0 --grid max_hops=3``;
    - a million streamed flows at ρ < 1 (small flows keep the active
      set small): ``--grid num_flows=1000000 --grid
      mean_size_mbit=0.25 --grid sink=streaming``.
    """
    topo = build_isp_topology(isp, seed=0)
    routing = make_strategy(strategy, topo, detour_depth=detour_depth)
    workload = FlowWorkload(
        topo,
        arrival_rate=arrival_rate,
        mean_size_bits=mean_size_mbit * 1e6,
        demand_bps=mbps(demand_mbps),
        seed=seed,
        pair_sampler=local_pairs(topo, seed=seed + 1, max_hops=max_hops),
    )
    if sink == "streaming":
        specs = workload.iter_specs(max_flows=num_flows)
    else:
        specs = workload.generate(max_flows=num_flows)
    result = FlowLevelSimulator(topo, routing, specs, sink=sink).run()
    return {
        "isp": isp,
        "strategy": strategy,
        "detour_depth": routing.detour_depth,
        "num_flows": num_flows,
        "arrival_rate": arrival_rate,
        "sink": sink,
        "completed": result.completed_count,
        "unfinished": result.unfinished,
        "allocations": result.allocations,
        "full_refills": result.full_refills,
        "duration": result.duration,
        "network_throughput": result.network_throughput,
        "mean_fct": result.mean_fct(),
        "p50_fct": result.fct_quantile(0.50),
        "p99_fct": result.fct_quantile(0.99),
        "total_switches": result.total_switches,
    }
