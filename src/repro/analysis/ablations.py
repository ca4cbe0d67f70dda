"""Ablation drivers for the reproduction's modelling decisions.

Each driver is a plain function returning a small result mapping, so
tests, notebooks and the CLI can share them:

- :func:`ablate_custody_size` — custody store sweep on a detour-free
  bottleneck: each router's custody store is bounded (50 MB by
  default), where the paper sizes a cache at 10 GB per 40 Gbps link;
- :func:`ablate_anticipation` — anticipation horizon Ac on the Fig. 3
  scenario: how many chunks a receiver requests ahead;
- :func:`ablate_gossip` — informed vs optimistic detouring: routers
  exchange one-hop interface state every Ti before they pick a detour.

The detour-depth ablation has no driver of its own: it is the
``snapshot-sweep`` scenario gridded over ``detour_depth=0,1,2`` (the
default of 2 intermediate nodes follows the paper's simulator, and
depth 0 allows no detour, so INRP degenerates to SP).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.analysis.fig3 import run_fig3_simulation
from repro.campaign.scenario import register_scenario
from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.topology.graph import Topology
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads.traffic import local_pairs


@dataclass(frozen=True)
class CustodyAblationPoint:
    goodput_mbps: float
    peak_custody_bytes: int
    backpressure_signals: int
    drops: int


def _bottleneck_line() -> Topology:
    topo = Topology("custody-ablation")
    topo.add_link(0, 1, capacity=mbps(10))
    topo.add_link(1, 2, capacity=mbps(2))
    return topo


def ablate_custody_size(
    sizes: Sequence[Tuple[str, Optional[int]]] = (
        ("40kB", 40_000),
        ("200kB", 200_000),
        ("2MB", 2_000_000),
        ("unbounded", None),
    ),
    duration: float = 15.0,
) -> Dict[str, CustodyAblationPoint]:
    """Custody sweep on a 10 -> 2 Mbps detour-free bottleneck."""
    results: Dict[str, CustodyAblationPoint] = {}
    for label, custody_bytes in sizes:
        config = ChunkSimConfig(custody_bytes=custody_bytes)
        net = ChunkNetwork(_bottleneck_line(), mode="inrp", config=config)
        flow = net.add_flow(0, 2, num_chunks=10_000_000)
        report = net.run(duration=duration, warmup=duration / 3)
        results[label] = CustodyAblationPoint(
            goodput_mbps=report.flow(flow).goodput_bps / 1e6,
            peak_custody_bytes=report.custody_peak_bytes,
            backpressure_signals=report.backpressure_signals,
            drops=report.drops,
        )
    return results


def ablate_anticipation(
    horizons: Sequence[int] = (0, 2, 8, 32),
    duration: float = 15.0,
) -> Dict[int, Tuple[float, float, float]]:
    """Fig. 3 INRPP goodputs ``(flow1, flow2, jain)`` per ``Ac``."""
    results: Dict[int, Tuple[float, float, float]] = {}
    for anticipation in horizons:
        config = ChunkSimConfig(anticipation=anticipation)
        outcome, _ = run_fig3_simulation("inrp", duration=duration, config=config)
        results[anticipation] = (
            outcome.rate_bottlenecked_mbps,
            outcome.rate_clear_mbps,
            outcome.jain,
        )
    return results


def ablate_gossip(
    isp: str = "vsnl",
    duration: float = 10.0,
    num_flows: int = 4,
    seed: int = 11,
) -> Dict[bool, float]:
    """Aggregate chunk-level goodput with and without neighbour state.

    Runs several concurrent transfers between core nodes of a (small)
    ISP map; without gossip the detour choice is optimistic, so
    detoured chunks may pile into already-congested neighbours.
    """
    topo = build_isp_topology(isp, seed=0)
    sampler = local_pairs(topo, seed=seed)
    pairs = [sampler() for _ in range(num_flows)]
    results: Dict[bool, float] = {}
    for gossip in (True, False):
        config = ChunkSimConfig(gossip=gossip)
        net = ChunkNetwork(topo, mode="inrp", config=config)
        flows = [
            net.add_flow(src, dst, num_chunks=10_000_000) for src, dst in pairs
        ]
        report = net.run(duration=duration, warmup=duration / 3)
        results[gossip] = sum(report.flow(f).goodput_bps for f in flows)
    return results


# --- campaign adapters -------------------------------------------------
#
# JSON object keys must be strings, so the int/bool-keyed ablation maps
# are re-keyed here; otherwise the adapters are thin shims over the
# drivers above.


@register_scenario(
    "ablation-custody",
    summary="ablation: custody-store size sweep on a detour-free bottleneck",
    tags=("ablation", "chunksim"),
)
def scenario_custody(duration: float = 15.0) -> Dict[str, object]:
    points = ablate_custody_size(duration=duration)
    return {
        label: {
            "goodput_mbps": point.goodput_mbps,
            "peak_custody_bytes": point.peak_custody_bytes,
            "backpressure_signals": point.backpressure_signals,
            "drops": point.drops,
        }
        for label, point in points.items()
    }


@register_scenario(
    "ablation-anticipation",
    summary="ablation: anticipation horizon Ac on the Fig. 3 scenario",
    tags=("ablation", "chunksim"),
)
def scenario_anticipation(duration: float = 15.0) -> Dict[str, object]:
    results = ablate_anticipation(duration=duration)
    return {
        str(horizon): {
            "rate_bottlenecked_mbps": rates[0],
            "rate_clear_mbps": rates[1],
            "jain": rates[2],
        }
        for horizon, rates in results.items()
    }


@register_scenario(
    "ablation-gossip",
    summary="ablation: informed vs optimistic detouring on an ISP map",
    tags=("ablation", "chunksim"),
)
def scenario_gossip(
    isp: str = "vsnl",
    duration: float = 10.0,
    num_flows: int = 4,
    seed: int = 11,
) -> Dict[str, object]:
    results = ablate_gossip(
        isp=isp, duration=duration, num_flows=num_flows, seed=seed
    )
    return {
        "isp": isp,
        "goodput_bps": {
            "gossip": results[True],
            "optimistic": results[False],
        },
    }
