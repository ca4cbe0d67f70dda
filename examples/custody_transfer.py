#!/usr/bin/env python3
"""Store-and-forward custody in action (Section 3.3, back-pressure).

A sender pushes a bulk transfer into a path whose last hop is five
times slower than its feed, with no detour available.  The bottleneck
router takes the surplus into its custody store and back-pressures the
sender into the closed-loop mode; when the push resumes, custody fills
again — the 'temporary custodian' cycle of the paper.  The example
prints the custody occupancy over time and the protocol counters.

Run:  python examples/custody_transfer.py
"""

from repro import ChunkNetwork, ChunkSimConfig, Topology
from repro.units import format_size, mbps


def main() -> None:
    topo = Topology("custody-demo")
    topo.add_link("src", "mid", capacity=mbps(10))
    topo.add_link("mid", "dst", capacity=mbps(2))

    config = ChunkSimConfig(custody_bytes=500_000, resume_timeout=0.5)
    net = ChunkNetwork(topo, mode="inrp", config=config)
    flow = net.add_flow("src", "dst", num_chunks=10_000_000)

    # Sample custody occupancy at the bottleneck router every 250 ms.
    samples = []
    mid = net.routers["mid"]

    def _sample():
        samples.append((net.sim.now, mid.custody_used_bytes()))
        net.sim.call_after(0.25, _sample)

    net.sim.call_after(0.25, _sample)
    report = net.run(duration=12.0, warmup=2.0)

    print("custody occupancy at the bottleneck router:")
    for time, used in samples[:20]:
        bar = "#" * int(used / 10_000)
        print(f"  t={time:5.2f}s  {format_size(used):>9}  |{bar}")
    print()
    result = report.flow(flow)
    print(f"goodput: {result.goodput_bps / 1e6:.2f} Mbps (bottleneck is 2 Mbps)")
    print(
        f"custody events={report.custody_events}"
        f" drains={report.custody_drains}"
        f" peak={format_size(report.custody_peak_bytes)}"
    )
    print(
        f"backpressure signals={report.backpressure_signals}"
        f"  drops={report.drops} (INRPP never drops)"
    )


if __name__ == "__main__":
    main()
