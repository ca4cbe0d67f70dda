#!/usr/bin/env python
"""Flow-level simulator memory benchmark: the streaming pipeline's ceiling.

Runs the million-flow streaming point of the ``load-sweep-large``
scenario (sprint, SP, 0.25 Mbit mean flows so rho < 1, the active set
stays small and a million arrivals drain in minutes) once per result
sink, each in a fresh subprocess, and reports its RSS
growth (VmHWM peak minus the post-import baseline).  Sinks are thus
compared on identical terms and without tracemalloc's
order-of-magnitude slowdown.  The full mode pits a 1M-flow streaming
run against a 100k-flow materialized run: the streaming run must stay
under the fixed ceiling AND under the materialized run's footprint at
a tenth of the scale.

Timing of the production path is measured by ``perfbench/`` (run
``python3 perfbench/run.py --workload all``), which covers at most a
few thousand flows; this script covers the million-flow memory bound.
It is standalone so CI can run it and diff-check the JSON record
against the committed ``BENCH_flowsim.json``::

    python benchmarks/bench_flowsim.py --smoke --check-against BENCH_flowsim.json
    python benchmarks/bench_flowsim.py --merge-into BENCH_flowsim.json  # 1M flows

Exit status is non-zero when a memory check or the ``--check-against``
diff fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import FlowLevelSimulator, FlowWorkload, build_isp_topology, make_strategy
from repro.units import mbps
from repro.workloads import local_pairs

MEMORY_POINT = dict(
    isp="sprint",
    strategy="sp",
    arrival_rate=1500.0,
    mean_size_mbit=0.25,
    demand_mbps=10.0,
    max_hops=4,
    seed=1,
    flows=dict(
        full=dict(streaming=1_000_000, materialize=100_000),
        smoke=dict(streaming=60_000, materialize=60_000),
    ),
    #: Peak-RSS-growth ceiling for the streaming run, in MB.  The smoke
    #: run grows 8.4 MB when nothing is kept per path or pair, and grew
    #: 28.9 MB with per-path LRUs, so 24 catches one coming back.
    ceiling_mb=dict(full=192, smoke=24),
)


def _rss_kb(field):
    """Read a VmRSS/VmHWM field (kB) from /proc/self/status; 0 when
    the platform has no procfs (the benchmark then reports only what
    it can)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def memory_child(spec):
    """Run one sink measurement and print a JSON line (internal;
    invoked as ``--memory-child sink:num_flows`` in a fresh process)."""
    sink, _, num_flows = spec.partition(":")
    num_flows = int(num_flows)
    point = MEMORY_POINT
    topo = build_isp_topology(point["isp"], seed=0)
    workload = FlowWorkload(
        topo,
        arrival_rate=point["arrival_rate"],
        mean_size_bits=point["mean_size_mbit"] * 1e6,
        demand_bps=mbps(point["demand_mbps"]),
        seed=point["seed"],
        pair_sampler=local_pairs(
            topo, seed=point["seed"] + 1, max_hops=point["max_hops"]
        ),
    )
    baseline_kb = _rss_kb("VmRSS")
    start = time.perf_counter()
    if sink == "streaming":
        specs = workload.iter_specs(max_flows=num_flows)
    else:
        # The materialized schedule is part of that pipeline's
        # footprint, so it is generated inside the measured window.
        specs = workload.generate(max_flows=num_flows)
    result = FlowLevelSimulator(
        topo, make_strategy(point["strategy"], topo), specs, sink=sink
    ).run()
    seconds = time.perf_counter() - start
    peak_kb = _rss_kb("VmHWM")
    print(
        json.dumps(
            {
                "sink": sink,
                "num_flows": num_flows,
                "baseline_rss_kb": baseline_kb,
                "peak_rss_kb": peak_kb,
                "rss_growth_mb": round((peak_kb - baseline_kb) / 1024.0, 1),
                "seconds": round(seconds, 1),
                "completed": result.completed_count,
                "unfinished": result.unfinished,
                "network_throughput": result.network_throughput,
                "p99_fct": result.fct_quantile(0.99),
            }
        )
    )
    return 0


def run_memory(smoke):
    """Measure both sinks in fresh subprocesses and assert the
    streaming pipeline's bounded-memory contract."""
    mode = "smoke" if smoke else "full"
    sizes = MEMORY_POINT["flows"][mode]
    ceiling_mb = MEMORY_POINT["ceiling_mb"][mode]
    runs = {}
    for sink in ("streaming", "materialize"):
        num_flows = sizes[sink]
        print(
            f"[memory] {sink} sink, {num_flows} flows "
            f"({MEMORY_POINT['isp']}, {MEMORY_POINT['strategy']}) ...",
            flush=True,
        )
        child = subprocess.run(
            [sys.executable, __file__, "--memory-child", f"{sink}:{num_flows}"],
            capture_output=True,
            text=True,
        )
        if child.returncode != 0:
            raise RuntimeError(
                f"memory child ({sink}) failed:\n{child.stderr}"
            )
        runs[sink] = json.loads(child.stdout.strip().splitlines()[-1])
        measured = runs[sink]
        print(
            f"  peak RSS growth {measured['rss_growth_mb']:.1f} MB "
            f"in {measured['seconds']:.1f}s "
            f"({measured['completed']} completed)",
            flush=True,
        )
    streaming, materialized = runs["streaming"], runs["materialize"]
    scale = streaming["num_flows"] / materialized["num_flows"]
    checks = {
        # The headline contract: N-flow streaming peak under a fixed
        # ceiling, and no larger than materializing 1/scale as many.
        "streaming_under_ceiling": streaming["rss_growth_mb"] <= ceiling_mb,
        "streaming_below_materialized": (
            streaming["rss_growth_mb"] <= materialized["rss_growth_mb"] * 1.10
        ),
    }
    record = {
        "point": {
            key: MEMORY_POINT[key]
            for key in (
                "isp",
                "strategy",
                "arrival_rate",
                "mean_size_mbit",
                "demand_mbps",
                "max_hops",
                "seed",
            )
        },
        "ceiling_mb": ceiling_mb,
        "scale_ratio": scale,
        "streaming": streaming,
        "materialize": materialized,
        "checks": checks,
    }
    for name, passed in checks.items():
        print(f"  {name}: {'ok' if passed else 'FAIL'}", flush=True)
    return record


def check_against(mode, memory, committed_path):
    """Diff the fresh memory record against the committed one.

    Flow counts must agree exactly.  RSS itself is machine-dependent;
    the binding constraints are the fixed ceiling and the cross-sink
    comparison, asserted as checks on the fresh run.
    """
    path = Path(committed_path)
    if not path.exists():
        return [
            f"committed record not found: {committed_path} "
            f"(generate it with --merge-into)"
        ]
    baseline = json.loads(path.read_text()).get(mode, {}).get("memory")
    if baseline is None:
        return [f"committed file has no '{mode}' memory record"]
    failures = []
    for sink in ("streaming", "materialize"):
        for field in ("num_flows", "completed", "unfinished"):
            old, new = baseline[sink][field], memory[sink][field]
            if old != new:
                failures.append(f"{sink}: {field} changed {old} -> {new}")
    for name, passed in memory["checks"].items():
        if not passed:
            failures.append(f"check '{name}' failed")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run (60k flows per sink instead of 1M/100k)",
    )
    parser.add_argument("--memory-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, help="write the JSON record here")
    parser.add_argument(
        "--merge-into",
        default=None,
        help="insert this run under its mode key ('smoke'/'full') in a "
        "record file holding both sections — how the committed "
        "BENCH_flowsim.json is (re)generated",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        help="diff-check results against a committed BENCH_flowsim.json",
    )
    args = parser.parse_args(argv)

    if args.memory_child:
        return memory_child(args.memory_child)

    mode = "smoke" if args.smoke else "full"
    memory = run_memory(args.smoke)
    record = {"bench": "flowsim-memory", "mode": mode, "memory": memory}

    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}", flush=True)
    if args.merge_into:
        merged_path = Path(args.merge_into)
        merged = (
            json.loads(merged_path.read_text())
            if merged_path.exists()
            else {"bench": record["bench"]}
        )
        merged.setdefault(mode, {})["memory"] = memory
        merged_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        print(f"merged '{mode}' section into {args.merge_into}", flush=True)

    status = 0
    for name, passed in memory["checks"].items():
        if not passed:
            print(f"FAIL: memory check '{name}'", file=sys.stderr)
            status = 1
    if args.check_against:
        failures = check_against(mode, memory, args.check_against)
        for failure in failures:
            print(f"FAIL: memory record check: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(f"memory record check against {args.check_against}: ok", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
