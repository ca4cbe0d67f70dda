#!/usr/bin/env python3
"""A flow-level simulation campaign: Poisson arrivals, three strategies.

Uses the event-driven flow-level simulator (rates recomputed at every
arrival/departure) on the Exodus map with Poisson flow arrivals and
exponential flow sizes, and compares SP / ECMP / INRP on network
throughput, mean flow completion time and path stretch — the dynamic
version of the paper's Fig. 4 snapshot experiment.

Run:  python examples/flow_level_campaign.py
"""

from repro import FlowLevelSimulator, make_strategy
from repro.analysis.reporting import ascii_table
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads import FlowWorkload, local_pairs


def main() -> None:
    topo = build_isp_topology("exodus", seed=0)
    workload = FlowWorkload(
        topo,
        arrival_rate=8.0,                # flows per second, network-wide
        mean_size_bits=20e6,             # 20 Mbit (2.5 MB) transfers
        demand_bps=mbps(10),             # access-limited senders
        seed=7,
        pair_sampler=local_pairs(topo, seed=7),
    )
    specs = workload.generate(horizon=25.0)
    print(f"topology: {topo}; {len(specs)} flows over 25s\n")

    rows = []
    for name in ("sp", "ecmp", "inrp"):
        strategy = make_strategy(name, topo)
        sim = FlowLevelSimulator(topo, strategy, specs, horizon=120.0)
        result = sim.run()
        fct = result.mean_fct()
        stretch = result.stretch_quantile(0.95)
        rows.append(
            [
                strategy.name,
                f"{result.network_throughput:.3f}",
                f"{fct:.2f}s" if fct else "-",
                f"{result.completion_ratio():.2%}",
                f"{stretch:.2f}" if stretch else "-",
                str(result.total_switches),
            ]
        )
    print(
        ascii_table(
            ["strategy", "throughput", "mean FCT", "completed", "p95 stretch", "switches"],
            rows,
            title="Flow-level campaign (Exodus, Poisson arrivals)",
        )
    )


if __name__ == "__main__":
    main()
