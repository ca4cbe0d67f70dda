#!/usr/bin/env python3
"""Flowsim benchmark: end-to-end and per-layer figures of the
production simulation path on three workloads.

Run from the root of a checkout (nothing to build or install)::

    python3 perfbench/run.py --workload sp-stream --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload inrp-local --seed 3 --trace 1
    python3 perfbench/run.py --workload all --trace 1

``--trace 0`` reports the end-to-end metrics (``setup_s``,
``run_ref_s``, ``flows_per_ref_s``, ``peak_rss_mb``) from untraced
runs.  Times are in reference seconds: CPU seconds corrected for the
shared host's drifting speed by a fixed probe interleaved with the
work (see ``hostclock.py``).  ``--trace 1`` also times every layer
from outside (see ``tracing.py``) in separate traced runs and reports
the per-layer metrics, in plain wall seconds, plus the tracing
overhead.  Both print every figure by name and unit, then, as the
last line, one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

A run fails when it raises, when its result departs from the
committed fingerprint for the workload and seed (``fingerprints.json``;
without one, from the invocation's first run), when the
``verify_allocator`` run on a schedule prefix deviates more than 1e-9
from the from-scratch oracle, or when a traced run fails its
self-checks.  Any failure makes the exit status 1.

``--workload all`` measures each workload in a process of its own and
sums up.  ``--record`` runs the workload once and commits its
fingerprint for the seed instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _bootstrap() -> None:
    """Put the checkout's ``src`` and the benchmark on the path; the
    benchmark measures the source next to it, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {SRC / 'repro'}; run from a checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def _print_figures(title, values, units, notes=None):
    print(title)
    for name, unit in units:
        note = f"   <- {notes[name]}" if notes else ""
        print(f"  {name:30s} {values[name]:>16.6f} {unit:6s}{note}")


def _report_lines(report, traced):
    from perfbench.bench import END_TO_END
    from perfbench.tracing import LAYER_METRICS

    tally = report.tally
    print(
        f"[{report.workload}] seed {report.seed}: {report.flows} flows, "
        f"{report.repeats} timed repeats"
    )
    if report.end_to_end:
        _print_figures("  end to end (untraced):", report.end_to_end, END_TO_END)
    print(
        f"  {'failed_share':30s} {tally.failed_share:>16.6f} ratio   "
        f"({tally.failed} of {tally.attempted} runs failed)"
    )
    if traced and report.per_layer:
        _print_figures(
            "  per layer (traced):",
            report.per_layer,
            [(name, unit) for name, unit, _, _ in LAYER_METRICS],
            {name: moves for name, _, _, moves in LAYER_METRICS},
        )
    for problem in tally.problems:
        print(f"FAIL [{report.workload}] {problem}", file=sys.stderr)


def _measure_all(args, names) -> int:
    """Every workload in a process of its own: a process's peak RSS
    never resets, so each workload needs a fresh one to read its own."""
    attempted = failed = 0
    metrics = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            summary = json.loads(lines[-1])
        except (IndexError, ValueError):
            summary = {"attempted": 1, "failed": 1, "metrics": {}}
        attempted += summary["attempted"]
        failed += max(summary["failed"], int(child.returncode != 0))
        metrics.update({f"{name}/{metric}": value for metric, value in summary["metrics"].items()})
    return _summarize(attempted, failed, metrics)


def _summarize(attempted, failed, metrics) -> int:
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true", help="commit this seed's fingerprint instead of measuring"
    )
    args = parser.parse_args(argv)
    _bootstrap()

    from perfbench import bench, fingerprints
    from perfbench.tracing import LAYER_METRICS
    from perfbench.workloads import WORKLOADS, make_specs

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")

    if args.record:
        for name in names:
            run = bench.simulate(WORKLOADS[name], make_specs(WORKLOADS[name], args.seed))
            value = fingerprints.fingerprint(run.result)
            fingerprints.record(name, args.seed, value)
            print(f"[{name}] seed {args.seed}: {json.dumps(value)}")
        return 0
    if len(names) > 1:
        return _measure_all(args, names)

    name = names[0]
    traced = bool(args.trace)
    report = bench.measure(
        WORKLOADS[name],
        args.seed,
        args.seconds,
        traced,
        expected=fingerprints.committed_for(name, args.seed),
    )
    _report_lines(report, traced)
    if traced:
        units = {metric: unit for metric, unit, _, _ in LAYER_METRICS}
        figures = report.per_layer
    else:
        units = dict(bench.END_TO_END)
        figures = report.end_to_end
    return _summarize(
        report.tally.attempted,
        report.tally.failed,
        {metric: {"value": value, "unit": units[metric]} for metric, value in figures.items()},
    )


if __name__ == "__main__":
    sys.exit(main())
