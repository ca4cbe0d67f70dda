"""Fig. 3 — the fairness worked example.

The paper's arithmetic on the 5-link example topology:

- **e2e flow control** (left): the flow crossing the 2 Mbps bottleneck
  gets 2 Mbps, the other dominates the shared 10 Mbps link with
  8 Mbps; Jain's index 0.73;
- **INRPP** (right): the shared link splits 5/5 (global fairness); at
  node 2 the bottlenecked flow sends 2 Mbps over the direct link and
  detours 3 Mbps through node 3 (local stability); Jain's index 1.0.

Three independent reproductions are provided: the closed-form
arithmetic, the fluid allocators of :mod:`repro.flowsim`, and the full
chunk-level protocol simulation of :mod:`repro.chunksim`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.records import ComparisonTable
from repro.campaign.scenario import register_scenario
from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.flowsim import make_strategy
from repro.metrics.fairness import jain_index
from repro.topology.builders import fig3_topology
from repro.units import mbps

#: The paper's reported numbers for Fig. 3.
PAPER_E2E_RATES_MBPS = (2.0, 8.0)
PAPER_INRPP_RATES_MBPS = (5.0, 5.0)
PAPER_E2E_JAIN = 0.73
PAPER_INRPP_JAIN = 1.0


def _label(detour_depth: Optional[int]) -> str:
    """Fig. 3's display name of a system, kept in its records: the
    paper's "e2e" for a system that never detours, else "inrpp"."""
    return "e2e" if detour_depth is None else "inrpp"


@dataclass
class Fig3Result:
    """Rates (Mbps) and fairness for one system of the Fig. 3 example."""

    #: Display label, ``"e2e"`` or ``"inrpp"`` (see :func:`_label`).
    mode: str
    method: str
    rate_bottlenecked_mbps: float
    rate_clear_mbps: float

    @property
    def jain(self) -> float:
        return jain_index([self.rate_bottlenecked_mbps, self.rate_clear_mbps])

    def as_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (campaign result records)."""
        return {
            "mode": self.mode,
            "method": self.method,
            "rate_bottlenecked_mbps": self.rate_bottlenecked_mbps,
            "rate_clear_mbps": self.rate_clear_mbps,
            "jain": self.jain,
        }

    def comparisons(self) -> ComparisonTable:
        paper_rates = (
            PAPER_E2E_RATES_MBPS if self.mode == "e2e" else PAPER_INRPP_RATES_MBPS
        )
        paper_jain = PAPER_E2E_JAIN if self.mode == "e2e" else PAPER_INRPP_JAIN
        table = ComparisonTable(f"fig3 ({self.mode}, {self.method})")
        table.add("flow 1->4 rate", paper_rates[0], self.rate_bottlenecked_mbps, "Mbps")
        table.add("flow 1->5 rate", paper_rates[1], self.rate_clear_mbps, "Mbps")
        table.add("Jain index", paper_jain, self.jain)
        return table


def fig3_fluid(mode: str) -> Fig3Result:
    """Fluid allocation on the Fig. 3 topology: ``"sp"`` (max-min) or
    ``"inrp"`` (push + detour); an unknown name raises
    :class:`~repro.errors.ConfigurationError`."""
    topo = fig3_topology()
    strategy = make_strategy(mode, topo)
    flows = {
        1: (strategy.route(1, 1, 4), mbps(10)),
        2: (strategy.route(2, 1, 5), mbps(10)),
    }
    outcome = strategy.allocate(flows)
    return Fig3Result(
        mode=_label(strategy.detour_depth),
        method="fluid",
        rate_bottlenecked_mbps=outcome.rates[1] / 1e6,
        rate_clear_mbps=outcome.rates[2] / 1e6,
    )


def run_fig3_simulation(
    mode: str,
    duration: float = 20.0,
    warmup: Optional[float] = None,
    config: Optional[ChunkSimConfig] = None,
) -> Tuple[Fig3Result, "ChunkNetwork"]:
    """Chunk-level protocol simulation of the Fig. 3 scenario.

    *mode* is ``"sp"`` (the AIMD e2e baseline) or ``"inrp"`` (INRPP);
    an unknown name raises :class:`~repro.errors.ConfigurationError`.
    Returns the result plus the network object for deeper inspection.
    """
    topo = fig3_topology()
    network = ChunkNetwork(topo, mode=mode, config=config)
    # Plenty of chunks so both transfers outlast the run (steady state).
    flow_bottlenecked = network.add_flow(1, 4, num_chunks=10_000_000)
    flow_clear = network.add_flow(1, 5, num_chunks=10_000_000)
    report = network.run(duration=duration, warmup=warmup)
    return (
        Fig3Result(
            mode=_label(network.detour_depth),
            method="chunk-sim",
            rate_bottlenecked_mbps=report.flow(flow_bottlenecked).goodput_bps / 1e6,
            rate_clear_mbps=report.flow(flow_clear).goodput_bps / 1e6,
        ),
        network,
    )


def run_fig3_all(duration: float = 20.0) -> Dict[str, Fig3Result]:
    """All four reproductions keyed by ``{mode}-{method}``."""
    results = {
        "e2e-fluid": fig3_fluid("sp"),
        "inrpp-fluid": fig3_fluid("inrp"),
    }
    results["e2e-sim"], _ = run_fig3_simulation("sp", duration=duration)
    results["inrpp-sim"], _ = run_fig3_simulation("inrp", duration=duration)
    return results


@register_scenario(
    "fig3",
    summary="Fig. 3: fairness worked example (fluid + chunk-level)",
    tags=("paper", "chunksim"),
)
def scenario_fig3(duration: float = 20.0) -> Dict[str, object]:
    """Campaign adapter: all four Fig. 3 reproductions.

    The scenario is fully deterministic (no seed axis): the fluid runs
    are closed-form and the chunk-level protocol simulation has no
    random component on the Fig. 3 topology.
    """
    return {
        key: result.as_dict()
        for key, result in run_fig3_all(duration=duration).items()
    }
