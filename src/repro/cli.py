"""Command-line interface: regenerate every paper artifact.

Usage::

    python -m repro table1               # Table 1 with paper deltas
    python -m repro fig3 [--duration S]  # fluid + chunk-level Fig. 3
    python -m repro fig4 [--snapshots N] # Fig. 4a bars + Fig. 4b CDF
    python -m repro export-isp telstra out.json
    python -m repro validate [--scenarios NAMES]
    python -m repro campaign list
    python -m repro campaign run --scenarios table1,fig4 --grid seed=0,1,2
    python -m repro campaign report
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.errors import ReproError
from repro.analysis.fig3 import run_fig3_all
from repro.analysis.fig4 import run_fig4
from repro.analysis.reporting import ascii_table
from repro.analysis.table1 import run_table1
from repro.campaign.grid import parse_grid
from repro.campaign.runner import CampaignRunner, plan_runs
from repro.campaign.scenario import iter_scenarios
from repro.campaign.store import DEFAULT_RESULTS_DIR, ResultStore
from repro.topology.io import save_topology
from repro.topology.isp import ISP_NAMES, build_isp_topology
from repro.validation import run_all_validations

#: Per-command seed defaults, applied only when the user does not pass
#: an explicit ``--seed`` (fig4's calibrated operating point is seed 42).
#: ``campaign run`` is absent deliberately: there ``--seed`` is a base
#: seed mixed per scenario via :func:`repro.rng.derive_seed`, and
#: omitting it keeps each scenario's own calibrated default.
_SEED_DEFAULTS = {"table1": 0, "fig4": 42, "export-isp": 0}


def _split_names(text: Optional[str]) -> List[str]:
    """Split a comma-separated option value, dropping blanks/whitespace."""
    if not text:
        return []
    return [name.strip() for name in text.split(",") if name.strip()]


def _effective_seed(args: argparse.Namespace) -> int:
    """The user's explicit ``--seed`` if given, else the command default."""
    if args.seed is not None:
        return args.seed
    return _SEED_DEFAULTS.get(args.command, 0)


def _cmd_table1(args: argparse.Namespace) -> int:
    result = run_table1(seed=_effective_seed(args))
    print(result.render())
    print(f"\nmax deviation from the paper: {result.max_error:.4f} pp")
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    results = run_fig3_all(duration=args.duration)
    for result in results.values():
        print(result.comparisons().render())
        print()
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    result = run_fig4(seed=_effective_seed(args), num_snapshots=args.snapshots)
    print(result.render_fig4a())
    print()
    print(result.comparisons().render())
    print()
    print(result.render_fig4b())
    return 0


def _cmd_export_isp(args: argparse.Namespace) -> int:
    topo = build_isp_topology(args.isp, seed=_effective_seed(args))
    save_topology(topo, args.output)
    print(f"wrote {topo!r} to {args.output}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    names = _split_names(args.scenarios) or None
    reports = run_all_validations(names=names)
    for report in reports:
        print(report.render())
        print()
    failed = [report for report in reports if not report.passed]
    print(
        f"cross-fidelity: {len(reports) - len(failed)}/{len(reports)} "
        f"scenario(s) within tolerance"
    )
    return 1 if failed else 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    tags = _split_names(args.tags) or None
    rows = []
    for scenario in iter_scenarios(tags=tags):
        params = ", ".join(
            f"{name}={default!r}" for name, default in scenario.defaults.items()
        )
        rows.append(
            [scenario.name, ",".join(scenario.tags), scenario.summary, params]
        )
    print(
        ascii_table(
            ["scenario", "tags", "summary", "parameters (defaults)"],
            rows,
            title=f"registered scenarios ({len(rows)})",
        )
    )
    return 0


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    scenario_names = _split_names(args.scenarios)
    if not scenario_names:
        print("no scenarios selected", file=sys.stderr)
        return 2
    grid = parse_grid(args.grid or [])
    specs = plan_runs(scenario_names, grid, base_seed=args.seed)
    runner = CampaignRunner(
        store=ResultStore(args.results_dir),
        workers=args.workers,
        force=args.force,
    )
    report = runner.run(specs)
    for outcome in report.outcomes:
        status = "cached " if outcome.cached else "computed"
        print(f"[{status}] {outcome.spec.describe()} -> {outcome.path}")
    print(report.summary())
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.results_dir)
    scenario_names = _split_names(args.scenarios) or [None]
    rows = []
    for scenario in scenario_names:
        for record in store.iter_records(scenario):
            params = ", ".join(
                f"{k}={v!r}" for k, v in sorted(record["params"].items())
            )
            headline = ", ".join(
                f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in record["result"].items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            )
            rows.append([record["scenario"], record["run_key"], params, headline])
    if not rows:
        print(f"no records under {store.root}/ (run a campaign first)")
        return 0
    print(
        ascii_table(
            ["scenario", "run key", "parameters", "scalar results"],
            rows,
            title=f"{len(rows)} stored record(s) in {store.root}/",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Revisiting Resource Pooling' (HotNets 2014)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="experiment seed (default: 0, except fig4 which uses its "
        "calibrated seed 42); for 'campaign run' this is a base seed "
        "mixed per scenario, and omitting it keeps scenario defaults",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("table1", help="Table 1: detour availability")

    fig3 = commands.add_parser("fig3", help="Fig. 3: fairness worked example")
    fig3.add_argument(
        "--duration", type=float, default=20.0, help="chunk-sim seconds"
    )

    fig4 = commands.add_parser("fig4", help="Fig. 4: flow-level evaluation")
    fig4.add_argument(
        "--snapshots", type=int, default=8, help="snapshots per configuration"
    )

    export = commands.add_parser("export-isp", help="export an ISP map as JSON")
    export.add_argument("isp", choices=list(ISP_NAMES))
    export.add_argument("output", help="output JSON path")

    validate = commands.add_parser(
        "validate",
        help="cross-fidelity validation: chunksim vs flowsim agreement",
    )
    validate.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated calibrated scenario names (default: all)",
    )

    campaign = commands.add_parser(
        "campaign", help="orchestrate scenario campaigns (sweeps, caching)"
    )
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True
    )

    campaign_list = campaign_commands.add_parser(
        "list", help="list registered scenarios"
    )
    campaign_list.add_argument(
        "--tags", default=None, help="comma-separated tag filter"
    )

    campaign_run = campaign_commands.add_parser(
        "run", help="run scenarios over a parameter grid"
    )
    campaign_run.add_argument(
        "--scenarios",
        required=True,
        help="comma-separated scenario names (see 'campaign list')",
    )
    campaign_run.add_argument(
        "--grid",
        action="append",
        metavar="KEY=V1,V2,...",
        help="parameter axis to sweep; repeatable, applied to every "
        "selected scenario that accepts the parameter",
    )
    campaign_run.add_argument(
        "--workers", type=int, default=1, help="worker processes (default 1)"
    )
    campaign_run.add_argument(
        "--force",
        action="store_true",
        help="recompute runs even when a cached record exists",
    )
    campaign_run.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        help=f"result store directory (default {DEFAULT_RESULTS_DIR}/)",
    )

    campaign_report = campaign_commands.add_parser(
        "report", help="summarise stored campaign records"
    )
    campaign_report.add_argument(
        "--results-dir",
        default=DEFAULT_RESULTS_DIR,
        help=f"result store directory (default {DEFAULT_RESULTS_DIR}/)",
    )
    campaign_report.add_argument(
        "--scenarios", default=None, help="comma-separated scenario filter"
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "fig3": _cmd_fig3,
        "fig4": _cmd_fig4,
        "export-isp": _cmd_export_isp,
        "validate": _cmd_validate,
    }
    campaign_handlers = {
        "list": _cmd_campaign_list,
        "run": _cmd_campaign_run,
        "report": _cmd_campaign_report,
    }
    try:
        if args.command == "campaign":
            return campaign_handlers[args.campaign_command](args)
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
