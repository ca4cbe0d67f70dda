"""Tests of the benchmark itself, on workloads shrunk to a few dozen
flows.  Run with ``python -m pytest perfbench/tests``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import bench
from perfbench.fingerprints import FLOAT_FIELDS, fingerprint, mismatches
from perfbench.tracing import LAYER_METRICS, LayerTrace
from perfbench.workloads import WORKLOADS, make_specs

ROOT = Path(__file__).resolve().parents[2]


def tiny(name, flows=40):
    return replace(WORKLOADS[name], flows=flows, verify_flows=flows // 2)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request):
    workload = tiny(request.param)
    specs = make_specs(workload, seed=0)
    trace = LayerTrace()
    run = bench.simulate(workload, specs, trace=trace)
    return workload, specs, trace, run


def test_traced_run_passes_its_self_checks(traced_run):
    _, specs, trace, run = traced_run
    assert trace.check(run.run_s, run.result, len(specs)) == []
    assert trace.self_seconds(run.run_s) >= 0
    assert trace.seconds["tree"] <= trace.seconds["route"]
    assert trace.seconds["fill"] <= trace.seconds["recompute"]


def test_traced_recomputes_equal_result_allocations(traced_run):
    _, _, trace, run = traced_run
    metrics = trace.metrics(run.run_s, 0.0, run.build_s, run.init_s)
    assert metrics["simulator.recomputes"] == run.result.allocations
    assert metrics["allocation.recompute_calls"] == run.result.allocations
    assert metrics["kernel.switches"] == run.result.total_switches
    assert set(metrics) == {name for name, _, _, _ in LAYER_METRICS}


def test_tracing_changes_no_result(traced_run):
    workload, specs, _, run = traced_run
    untraced = bench.simulate(workload, specs)
    assert mismatches(fingerprint(untraced.result), fingerprint(run.result)) == []


def test_trace_check_reports_layers_longer_than_the_run(traced_run):
    _, specs, trace, run = traced_run
    problems = trace.check(trace.seconds["route"] / 2, run.result, len(specs))
    assert any("wrapped layers took" in problem for problem in problems)


def test_trace_check_reports_lost_recomputes(traced_run):
    _, specs, trace, run = traced_run
    trace.calls["recompute"] += 1
    try:
        problems = trace.check(run.run_s, run.result, len(specs))
    finally:
        trace.calls["recompute"] -= 1
    assert any("traced recomputes" in problem for problem in problems)


def test_mismatches_tolerates_float_noise_only():
    workload = tiny("inrp-overload")
    base = fingerprint(bench.simulate(workload, make_specs(workload, 0)).result)
    close = dict(base, network_throughput=base["network_throughput"] * (1 + 1e-12))
    assert mismatches(base, close) == []
    for field in FLOAT_FIELDS:
        far = dict(base, **{field: base[field] * (1 + 1e-6)})
        assert len(mismatches(base, far)) == 1
    assert mismatches(base, dict(base, allocations=base["allocations"] + 1))


def test_measure_passes_with_true_and_fails_with_perturbed_fingerprints():
    workload = tiny("inrp-overload")
    expected = fingerprint(bench.simulate(workload, make_specs(workload, seed=5)).result)
    report = bench.measure(workload, 5, seconds=0.0, traced=True, expected=expected)
    assert report.tally.failed == 0, report.tally.problems
    assert set(report.end_to_end) == {name for name, _ in bench.END_TO_END}
    # Not the first run of this process, so the peak may not grow.
    assert report.end_to_end["peak_rss_mb"] >= 0
    assert report.per_layer["routing.route_calls"] == workload.flows

    perturbed = dict(expected, completed=expected["completed"] - 1)
    report = bench.measure(workload, 5, seconds=0.0, traced=False, expected=perturbed)
    # Every full run fails: the warm-up and each repeat.
    assert report.tally.failed == 1 + bench.MIN_REPEATS
    assert any("completed" in problem for problem in report.tally.problems)


def test_peak_rss_grows_in_a_fresh_process():
    code = (
        "import json, dataclasses\n"
        "from perfbench import bench\n"
        "from perfbench.workloads import WORKLOADS\n"
        "workload = dataclasses.replace(WORKLOADS['inrp-local'], flows=40, verify_flows=20)\n"
        "print(json.dumps(bench.measure(workload, 0, 0.0, False).end_to_end))\n"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout.splitlines()[-1])["peak_rss_mb"] > 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {entry["name"]: entry["why"] for entry in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert [(entry["name"], entry["unit"]) for entry in spec["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [
        (entry["name"], entry["unit"], entry["better"]) for entry in spec["per_layer"]
    ] == [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]


def test_cli_refuses_to_run_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sp-stream", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert '"metrics"' not in child.stdout
