"""Fig. 4 — flow-level evaluation on the ISP topologies.

Fig. 4a compares network throughput of SP, ECMP and INRP (named
``sp``, ``ecmp`` and ``inrp`` here; "URP" is INRP's label in the
paper's legend) on Telstra, Exodus and Tiscali with Poisson-arriving
flows; the paper reports INRP gaining 9–15 % over SP with ECMP in
between.  Fig. 4b shows the CDF of INRP's path stretch: most traffic
takes the shortest path and the tail stays below ~1.35.

The driver evaluates steady-state snapshots of the stationary flow
population (see :mod:`repro.flowsim.snapshots`), with locality-weighted
core-to-core demands — the intra-domain traffic-engineering picture the
paper's detour mechanism targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.records import ComparisonTable
from repro.analysis.reporting import ascii_bar_chart, ascii_cdf
from repro.campaign.scenario import register_scenario
from repro.flowsim.snapshots import SnapshotResult, snapshot_experiment
from repro.flowsim.strategies import RoutingStrategy, make_strategy
from repro.rng import derive_seed
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads.traffic import local_pairs

#: The paper's headline claim for Fig. 4a.
PAPER_MIN_GAIN = 0.09
PAPER_MAX_GAIN = 0.15

#: Topologies shown in Fig. 4.
FIG4_ISPS = ("telstra", "exodus", "tiscali")

#: Strategies in Fig. 4a's legend order.
FIG4_STRATEGIES = ("sp", "ecmp", "inrp")


@dataclass
class Fig4Result:
    """Per-topology throughputs and INRP stretch samples."""

    #: topology -> strategy -> mean network throughput.
    throughput: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: topology -> raw snapshot results of the INRP run (for Fig. 4b).
    inrp_results: Dict[str, SnapshotResult] = field(default_factory=dict)

    def gain_over_sp(self, isp: str, strategy: str = "inrp") -> float:
        """Relative throughput gain of *strategy* over SP."""
        row = self.throughput[isp]
        return row[strategy] / row["sp"] - 1.0

    def comparisons(self) -> ComparisonTable:
        table = ComparisonTable("fig4a: INRP throughput gain over SP")
        for isp in self.throughput:
            table.add(
                f"{isp} INRP/SP gain",
                (PAPER_MIN_GAIN + PAPER_MAX_GAIN) / 2,
                self.gain_over_sp(isp),
                note=f"paper band [{PAPER_MIN_GAIN}, {PAPER_MAX_GAIN}]",
            )
        return table

    def render_fig4a(self) -> str:
        series = {
            isp: {name.upper(): value for name, value in row.items()}
            for isp, row in self.throughput.items()
        }
        return ascii_bar_chart(
            series, title="Fig. 4a: network throughput (SP / ECMP / INRP)"
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (campaign result records)."""
        gains = {isp: self.gain_over_sp(isp) for isp in self.throughput}
        payload: Dict[str, object] = {
            "throughput": {
                isp: dict(row) for isp, row in self.throughput.items()
            },
            "gain_over_sp": gains,
            "mean_gain_over_sp": sum(gains.values()) / len(gains)
            if gains
            else 0.0,
        }
        stretch = {}
        for isp, result in self.inrp_results.items():
            cdf = result.stretch_cdf()
            stretch[isp] = {
                "p50": cdf.quantile(0.50),
                "p90": cdf.quantile(0.90),
                "p99": cdf.quantile(0.99),
            }
        payload["inrp_stretch"] = stretch
        return payload

    def render_fig4b(self, points: int = 10) -> str:
        curves = {}
        for isp, result in self.inrp_results.items():
            xs, ps = result.stretch_cdf().points()
            curves[isp] = (xs, ps)
        return ascii_cdf(
            curves, points=points, title="Fig. 4b: INRP path stretch CDF"
        )


def run_snapshot_cell(
    topo,
    strategy: RoutingStrategy,
    seed: int,
    sampler_label: str,
    num_snapshots: int = 8,
    demand_bps: float = mbps(10),
    flows_per_node: float = 1.0 / 12.0,
    max_hops: int = 5,
) -> SnapshotResult:
    """One (topology, strategy) cell of the calibrated snapshot sweep.

    The single place the Fig. 4 operating point is encoded — the flow
    population floor and the locality-weighted demand model — shared
    by :func:`run_fig4` and the ``snapshot-sweep`` campaign scenario so
    the two cannot drift apart.
    """
    num_flows = max(10, int(topo.num_nodes * flows_per_node))
    sampler_seed = derive_seed(seed, sampler_label)
    return snapshot_experiment(
        topo,
        strategy,
        num_flows=num_flows,
        demand_bps=demand_bps,
        num_snapshots=num_snapshots,
        seed=seed,
        pair_sampler=local_pairs(topo, sampler_seed, max_hops=max_hops),
    )


def run_fig4(
    isps: Sequence[str] = FIG4_ISPS,
    strategies: Sequence[str] = FIG4_STRATEGIES,
    seed: int = 42,
    num_snapshots: int = 8,
    demand_bps: float = mbps(10),
    flows_per_node: float = 1.0 / 12.0,
    max_hops: int = 5,
    detour_depth: int = 2,
) -> Fig4Result:
    """Run the Fig. 4 experiment suite.

    Parameters
    ----------
    flows_per_node:
        Concurrent-flow population as a fraction of the topology's
        node count (default: 1 flow per 12 nodes, the calibrated
        operating point where SP utilisation sits in the paper's
        0.6–0.8 range).
    max_hops:
        Locality radius of the demand model (core-to-core pairs).
    """
    result = Fig4Result()
    for isp in isps:
        topo = build_isp_topology(isp, seed=0)
        result.throughput[isp] = {}
        for name in strategies:
            strategy = make_strategy(name, topo, detour_depth=detour_depth)
            snapshot = run_snapshot_cell(
                topo,
                strategy,
                seed=seed,
                sampler_label=f"fig4-{isp}",
                num_snapshots=num_snapshots,
                demand_bps=demand_bps,
                flows_per_node=flows_per_node,
                max_hops=max_hops,
            )
            result.throughput[isp][name] = snapshot.mean_throughput
            if strategy.detour_depth is not None:
                result.inrp_results[isp] = snapshot
    return result


@register_scenario(
    "fig4",
    summary="Fig. 4: SP/ECMP/INRP throughput + INRP stretch on ISP maps",
    tags=("paper", "flowsim"),
)
def scenario_fig4(
    seed: int = 42,
    isp: Optional[str] = None,
    num_snapshots: int = 8,
    detour_depth: int = 2,
) -> Dict[str, object]:
    """Campaign adapter: Fig. 4, optionally restricted to one ISP."""
    result = run_fig4(
        isps=(isp,) if isp else FIG4_ISPS,
        seed=seed,
        num_snapshots=num_snapshots,
        detour_depth=detour_depth,
    )
    return result.as_dict()
