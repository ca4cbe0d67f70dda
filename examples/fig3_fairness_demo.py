#!/usr/bin/env python3
"""Fig. 3 at chunk level: AIMD baseline vs the INRPP protocol.

Runs the full discrete-event protocol simulation on the Fig. 3
topology: receiver-driven requests, sender push with anticipation,
watermark-driven detouring through node 3 and (if needed) custody +
back-pressure.  Prints goodputs, Jain's
index and the protocol event counters for both modes.

Run:  python examples/fig3_fairness_demo.py
"""

from repro import ChunkNetwork, fig3_topology


def run_mode(mode: str, label: str) -> None:
    topo = fig3_topology()
    net = ChunkNetwork(topo, mode=mode)
    flow_bottlenecked = net.add_flow(1, 4, num_chunks=10_000_000)
    flow_clear = net.add_flow(1, 5, num_chunks=10_000_000)
    report = net.run(duration=20.0, warmup=5.0)

    print(f"--- {label} ---")
    for flow_id, name in ((flow_bottlenecked, "1 -> 4"), (flow_clear, "1 -> 5")):
        flow = report.flow(flow_id)
        print(
            f"  flow {name}: {flow.goodput_bps / 1e6:.2f} Mbps"
            f"  (mean path {flow.mean_hops:.2f} hops,"
            f" {flow.detoured_chunks} detoured chunks)"
        )
    print(f"  Jain fairness: {report.jain():.3f}")
    print(
        f"  drops={report.drops} custody={report.custody_events}"
        f" backpressure={report.backpressure_signals}"
        f" detours={report.detour_events}"
    )
    print()


def main() -> None:
    print("Paper expectation: AIMD -> (2, 8) Mbps, Jain 0.73;")
    print("                   INRPP -> (5, 5) Mbps, Jain 1.00\n")
    run_mode("sp", "e2e flow control (AIMD)")
    run_mode("inrp", "INRPP")


if __name__ == "__main__":
    main()
