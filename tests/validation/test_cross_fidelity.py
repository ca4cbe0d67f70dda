"""End-to-end cross-fidelity agreement on the calibrated Fig. 3 set.

These tests are the contract the tolerances in
:mod:`repro.validation.harness` document: the chunk-level protocol
simulator and the flow-level fluid model must agree on rates,
fairness, stretch, completion times and custody behaviour within the
calibrated bounds.  A failure here means one of the simulators
drifted, not that the tolerances are wrong.
"""

import dataclasses

import pytest
from oracles import ReferenceSimulator, reference_chunk_engine

from repro.campaign.scenario import get_scenario
from repro.chunksim import ChunkSimConfig
from repro.cli import main
from repro.validation import (
    CALIBRATED_SCENARIOS,
    run_all_validations,
    run_chunk_fidelity,
    run_flow_fidelity,
    run_validation,
    scenario_by_name,
)


@pytest.mark.parametrize(
    "name", [scenario.name for scenario in CALIBRATED_SCENARIOS]
)
def test_calibrated_scenario_within_tolerance(name):
    report = run_validation(scenario_by_name(name))
    assert report.passed, report.render()


@pytest.mark.parametrize(
    "name", ["fig3-completion-sp", "fig3-custody-inrp", "isp-bidir-inrp"]
)
def test_both_engines_agree_on_observables(name):
    # The validation harness is engine-agnostic: the chunk engine and
    # its reference yardstick produce the same observables, so the
    # divergence report is about fidelity, never about the event loop.
    scenario = scenario_by_name(name)
    modern = run_chunk_fidelity(scenario)
    with reference_chunk_engine() as built:
        reference = run_chunk_fidelity(scenario)
    assert len(built) == 1 and isinstance(built[0], ReferenceSimulator)
    assert built[0].events_processed == reference.events_processed > 0
    assert modern.rates_bps == reference.rates_bps
    assert modern.drops == reference.drops
    assert modern.custody_peak_bytes == reference.custody_peak_bytes
    assert modern.custody_onset == reference.custody_onset
    assert modern.fct == reference.fct


def test_custody_scenario_exercises_custody():
    # Guard the calibration itself: the custody scenario must actually
    # produce custody and back-pressure, otherwise its checks are
    # vacuous.
    scenario = scenario_by_name("fig3-custody-inrp")
    chunk = run_chunk_fidelity(scenario)
    fluid = run_flow_fidelity(scenario)
    assert chunk.custody_peak_bytes > 0
    assert chunk.backpressure_signals > 0
    assert fluid.custody_expected
    assert chunk.custody_peak_bytes <= fluid.custody_bound_bytes


def test_paper_scenario_has_no_custody():
    chunk = run_chunk_fidelity(scenario_by_name("fig3-steady-inrp"))
    fluid = run_flow_fidelity(scenario_by_name("fig3-steady-inrp"))
    assert chunk.custody_peak_bytes == 0
    assert not fluid.custody_expected


def test_fluid_first_hop_demand_matches_paper_offered_load():
    fluid = run_flow_fidelity(scenario_by_name("fig3-steady-inrp"))
    assert fluid.demands_bps == {0: 10e6, 1: 10e6}


def test_tolerance_override_detects_divergence():
    # Squeezing a tolerance to zero must flip the verdict: proves the
    # harness actually gates on the tolerances instead of always
    # passing.
    scenario = dataclasses.replace(
        scenario_by_name("fig3-completion-sp"),
        name="fig3-completion-sp-strict",
        tolerances={"fct_rel": 1e-9},
    )
    report = run_validation(scenario)
    assert not report.passed
    assert any("fct" in check.name for check in report.failures)


def test_run_all_validations_subset_and_order():
    reports = run_all_validations(
        names=["fig3-completion-sp", "fig3-completion-inrp"]
    )
    assert [report.scenario for report in reports] == [
        "fig3-completion-sp",
        "fig3-completion-inrp",
    ]


def test_campaign_scenario_registered_and_runs():
    scenario = get_scenario("cross-fidelity")
    assert "validation" in scenario.tags
    payload = scenario.func(scenarios="fig3-completion-sp")
    assert set(payload) == {"fig3-completion-sp"}
    assert payload["fig3-completion-sp"]["passed"] is True


def test_validate_cli_exit_codes(capsys):
    assert main(["validate", "--scenarios", "fig3-completion-sp"]) == 0
    out = capsys.readouterr().out
    assert "1/1 scenario(s) within tolerance" in out
    with pytest.raises(SystemExit) as excinfo:
        main(["validate", "--engine", "reference"])
    assert excinfo.value.code == 2


def test_validation_respects_config_override():
    # A custom chunk config flows through to both fidelities (the
    # custody bound is derived from the same Ti / anticipation the
    # protocol runs with).
    config = ChunkSimConfig(anticipation=8)
    report = run_validation(
        scenario_by_name("fig3-steady-inrp"), config=config
    )
    assert report.passed, report.render()
    with pytest.raises(TypeError):  # the chunk engine is not an override
        run_validation(scenario_by_name("fig3-steady-inrp"), engine="reference")
