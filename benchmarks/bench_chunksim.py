#!/usr/bin/env python
"""Chunk-level engine benchmark: modern vs reference event core.

Two measurements, both driving the seed-era :class:`ReferenceSimulator`
(``tests/oracles.py``) and the modern :class:`Simulator` through
identical workloads:

``engine-churn``
    The event core alone under the AIMD retransmission-timer shape:
    a large population of outstanding RTO timers where ~90 % are
    cancelled (delivery beat the timeout) and re-armed every round.
    This isolates what the engine modernization changed — C-speed
    heap entries, tombstone accounting and slack-triggered compaction
    — because the seed core pays a Python ``__lt__`` call per heap
    level and drags every tombstone to its expiry.  Measured speedups
    on the development machine: 3.5-4.3x at 20k outstanding timers,
    2.9-3.2x at 200k (both cores become memory-bound at very large
    heaps, which compresses the ratio); the CI floors below sit under
    those ranges to absorb runner noise.

``fig3-e2e``
    Full protocol simulations on the Fig. 3 topology (both INRPP and
    the AIMD baseline) at many times the seed flow count.  End-to-end
    runs also pay for protocol work both engines now share (the
    request-relay fast path and the per-class link dispatch live in the
    protocol modules, so the reference engine benefits from them too),
    which dilutes the engine-swap
    gap: expect ~1.6-2x for the timer-heavy AIMD mode and only
    ~1.1-1.4x for steady INRPP, whose event rate is throttled by
    back-pressure.  Every run is checked for *identical traced
    results* across engines: same event count, drops,
    custody/backpressure/detour counters, goodputs and per-flow chunk
    counts.  A deviation fails the benchmark.

Standalone script (same pattern as ``bench_flowsim.py``) so CI can
gate on it::

    python benchmarks/bench_chunksim.py --smoke
    python benchmarks/bench_chunksim.py                 # full sizes
    python benchmarks/bench_chunksim.py --out BENCH.json

Exit status is non-zero when cross-engine equivalence breaks or a
speedup floor (``--min-core-speedup``, ``--min-e2e-speedup``) is
missed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# The seed-era event loop is a test oracle; it lives in tests/oracles.py.
sys.path.insert(0, str(ROOT / "tests"))

from repro.analysis.fig3 import fig3_topology
from repro.chunksim import ChunkNetwork
from repro.chunksim import network as chunk_network
from repro.chunksim.engine import Simulator
from oracles import ReferenceSimulator

#: Engine name (the key in the JSON record) -> event-loop class.
EVENT_LOOPS = {"reference": ReferenceSimulator, "modern": Simulator}

#: Flow endpoints cycled to populate the Fig. 3 topology at scale.
PAIRS = ((1, 4), (1, 5), (4, 1), (5, 1), (3, 5), (2, 4))


# ----------------------------------------------------------------------
# Engine-core churn (the 3x claim)
# ----------------------------------------------------------------------
def run_churn(engine: str, outstanding: int, rounds: int = 10, rto: float = 0.5):
    """One churn run; returns (seconds, fired, events_processed)."""
    sim = EVENT_LOOPS[engine]()
    fired = [0]

    def fire(i):
        fired[0] += 1

    timers = [sim.call_after(rto, fire, i) for i in range(outstanding)]
    start = time.process_time()
    for _ in range(rounds):
        for i, timer in enumerate(timers):
            if i % 10 < 9:  # delivery wins the race: cancel + re-arm
                sim.cancel_entry(timer)
                timers[i] = sim.call_after(rto, fire, i)
        sim.run(until=sim.now + rto / rounds)
    sim.run(until=sim.now + 2 * rto)
    return time.process_time() - start, fired[0], sim.events_processed


def bench_churn(outstanding: int, repeat: int):
    record = {"outstanding": outstanding, "seconds": {}, "events": {}}
    for engine in ("reference", "modern"):
        runs = [run_churn(engine, outstanding) for _ in range(repeat)]
        record["seconds"][engine] = round(min(run[0] for run in runs), 4)
        record["events"][engine] = runs[0][2]
        print(
            f"  {engine:10s} core: {record['seconds'][engine]:8.3f}s "
            f"({record['events'][engine]} events)",
            flush=True,
        )
    if record["events"]["modern"] != record["events"]["reference"]:
        record["equivalent"] = False
    else:
        record["equivalent"] = True
    record["speedup"] = round(
        record["seconds"]["reference"] / max(record["seconds"]["modern"], 1e-9),
        3,
    )
    print(f"  core speedup {record['speedup']}x", flush=True)
    return record


# ----------------------------------------------------------------------
# Fig. 3-scale end-to-end (identical traced results)
# ----------------------------------------------------------------------
def run_fig3_scale(engine: str, mode: str, num_flows: int, duration: float):
    # ChunkNetwork always builds ``repro.chunksim.network.Simulator``;
    # the reference run substitutes the yardstick for the build.
    chunk_network.Simulator = EVENT_LOOPS[engine]
    try:
        network = ChunkNetwork(fig3_topology(), mode=mode)
    finally:
        chunk_network.Simulator = Simulator
    if type(network.sim) is not EVENT_LOOPS[engine]:
        raise RuntimeError(f"{engine} run built a {type(network.sim).__name__}")
    for index in range(num_flows):
        source, destination = PAIRS[index % len(PAIRS)]
        network.add_flow(
            source, destination, num_chunks=10_000_000, start_time=0.01 * index
        )
    start = time.process_time()
    report = network.run(duration=duration, warmup=0.25 * duration)
    seconds = time.process_time() - start
    observables = (
        report.events_processed,
        report.drops,
        report.custody_events,
        report.custody_drains,
        report.custody_peak_bytes,
        report.backpressure_signals,
        report.detour_events,
        round(report.jain(), 10),
        tuple(round(flow.goodput_bps, 6) for flow in report.flows),
        tuple(flow.received_chunks for flow in report.flows),
    )
    return seconds, observables


def bench_fig3(mode: str, num_flows: int, duration: float, repeat: int):
    record = {
        "mode": mode,
        "num_flows": num_flows,
        "duration": duration,
        "seconds": {},
    }
    traces = {}
    for engine in ("reference", "modern"):
        runs = [
            run_fig3_scale(engine, mode, num_flows, duration)
            for _ in range(repeat)
        ]
        record["seconds"][engine] = round(min(run[0] for run in runs), 4)
        traces[engine] = runs[0][1]
        print(
            f"  {engine:10s} engine: {record['seconds'][engine]:8.3f}s "
            f"({traces[engine][0]} events)",
            flush=True,
        )
    record["equivalent"] = traces["modern"] == traces["reference"]
    record["events_processed"] = traces["reference"][0]
    record["speedup"] = round(
        record["seconds"]["reference"] / max(record["seconds"]["modern"], 1e-9),
        3,
    )
    verdict = "identical" if record["equivalent"] else "DIVERGED"
    print(
        f"  e2e speedup {record['speedup']}x, traced results {verdict}",
        flush=True,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI (fewer flows, smaller timer population)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="timing repeats; the minimum is reported (default 3)",
    )
    parser.add_argument(
        "--min-core-speedup",
        type=float,
        default=None,
        help="fail below this engine-churn speedup "
        "(default: 2.5 full, 2.0 smoke; measured 2.9-4.3x)",
    )
    parser.add_argument(
        "--min-e2e-speedup",
        type=float,
        default=None,
        help="fail below this Fig. 3-scale end-to-end speedup, applied "
        "to the timer-heavy sp (AIMD) point (default: 1.2 full, 1.0 smoke; "
        "inrp is gated at 1.0 — back-pressure caps its event rate)",
    )
    parser.add_argument("--out", default=None, help="write the JSON record here")
    args = parser.parse_args(argv)

    if args.smoke:
        outstanding, num_flows, duration = 20_000, 96, 20.0
        min_core = args.min_core_speedup or 2.0
        min_e2e = {"inrp": 1.0, "sp": args.min_e2e_speedup or 1.0}
    else:
        outstanding, num_flows, duration = 200_000, 960, 30.0
        min_core = args.min_core_speedup or 2.5
        min_e2e = {"inrp": 1.0, "sp": args.min_e2e_speedup or 1.2}

    record = {"mode": "smoke" if args.smoke else "full", "points": {}}
    failures = []

    print(f"[engine-churn] {outstanding} outstanding timers", flush=True)
    churn = bench_churn(outstanding, args.repeat)
    record["points"]["engine-churn"] = churn
    if not churn["equivalent"]:
        failures.append("engine-churn: event counts diverged across engines")
    if churn["speedup"] < min_core:
        failures.append(
            f"engine-churn: speedup {churn['speedup']}x below the "
            f"{min_core}x floor"
        )

    for mode in ("inrp", "sp"):
        print(
            f"[fig3-e2e] mode={mode}, {num_flows} flows, {duration}s",
            flush=True,
        )
        point = bench_fig3(mode, num_flows, duration, args.repeat)
        record["points"][f"fig3-{mode}"] = point
        if not point["equivalent"]:
            failures.append(f"fig3-{mode}: traced results diverged")
        if point["speedup"] < min_e2e[mode]:
            failures.append(
                f"fig3-{mode}: speedup {point['speedup']}x below the "
                f"{min_e2e[mode]}x floor"
            )

    record["ok"] = not failures
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {args.out}", flush=True)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr, flush=True)
        return 1
    print("all engine benchmarks within bounds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
