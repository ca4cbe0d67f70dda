"""Unit tests for the cross-fidelity harness machinery.

These cover the comparison mechanics (check kinds, tolerance
plumbing, report shape) and the custody predicate without running
full simulations; the end-to-end agreement runs live in
``test_cross_fidelity.py``.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.validation import (
    CALIBRATED_SCENARIOS,
    MetricCheck,
    ValidationFlow,
    ValidationReport,
    ValidationScenario,
    predict_custody,
    scenario_by_name,
)
from repro.validation.harness import DEFAULT_TOLERANCES, _Checker


# ----------------------------------------------------------------------
# Scenario definitions
# ----------------------------------------------------------------------
def test_calibrated_scenarios_are_well_formed():
    names = [scenario.name for scenario in CALIBRATED_SCENARIOS]
    assert len(names) == len(set(names))
    for scenario in CALIBRATED_SCENARIOS:
        assert scenario.chunk_mode in ("inrpp", "aimd")
        assert scenario.kind in ("steady", "completion")
        assert 0 <= scenario.effective_warmup < scenario.duration


def test_scenario_by_name_round_trip_and_unknown():
    scenario = scenario_by_name("fig3-custody-inrp")
    assert scenario.mode == "inrp"
    assert scenario.kind == "steady"
    with pytest.raises(ConfigurationError):
        scenario_by_name("no-such-scenario")


def test_scenario_rejects_unknown_mode_and_empty_flows():
    with pytest.raises(ConfigurationError):
        ValidationScenario(
            name="bad", mode="ecmp2", flows=(ValidationFlow(1, 2),)
        )
    with pytest.raises(ConfigurationError):
        ValidationScenario(name="bad", mode="inrp", flows=())


def test_mode_maps_to_chunk_protocol():
    inrp = scenario_by_name("fig3-steady-inrp")
    sp = scenario_by_name("fig3-steady-sp")
    assert inrp.chunk_mode == "inrpp"
    assert sp.chunk_mode == "aimd"


# ----------------------------------------------------------------------
# Custody predicate
# ----------------------------------------------------------------------
def test_predict_custody_sender_side_deficit_is_not_custody():
    # The paper's two-flow example: flow 0 detours via node 3 but no
    # other flow touches the detour links -> no transit custody.
    splits = {
        0: [((1, 2, 4), 2e6), ((1, 2, 3, 4), 3e6)],
        1: [((1, 2, 5), 5e6)],
    }
    primaries = {0: (1, 2, 4), 1: (1, 2, 5)}
    assert not predict_custody(splits, primaries)


def test_predict_custody_detour_primary_collision():
    # Flow 2's primary path rides link (2, 3), which flow 0's detour
    # also needs -> chunks committed to the detour must take custody.
    splits = {
        0: [((1, 2, 4), 2e6), ((1, 2, 3, 4), 0.5e6)],
        1: [((1, 2, 5), 5e6)],
        2: [((1, 2, 3), 2.5e6)],
    }
    primaries = {0: (1, 2, 4), 1: (1, 2, 5), 2: (1, 2, 3)}
    assert predict_custody(splits, primaries)


def test_predict_custody_ignores_zero_rate_splits():
    splits = {
        0: [((1, 2, 4), 2e6), ((1, 2, 3, 4), 0.0)],
        2: [((1, 2, 3), 2.5e6)],
    }
    primaries = {0: (1, 2, 4), 2: (1, 2, 3)}
    assert not predict_custody(splits, primaries)


# ----------------------------------------------------------------------
# Check kinds
# ----------------------------------------------------------------------
def test_checker_rel_and_abs_edges():
    checker = _Checker({"rate_rel": 0.25, "jain_abs": 0.05})
    checker.rel("in", 1.2, 1.0, "rate_rel")
    checker.rel("out", 1.3, 1.0, "rate_rel")
    checker.abs("in", 0.96, 1.0, "jain_abs")
    checker.abs("out", 0.90, 1.0, "jain_abs")
    assert [check.passed for check in checker.checks] == [
        True,
        False,
        True,
        False,
    ]


def test_checker_bound_and_window():
    checker = _Checker({"custody_slack": 1.0})
    checker.bound("under", 290_000.0, 995_000.0, "custody_slack")
    checker.bound("over", 1_000_001.0, 995_000.0, "custody_slack")
    checker.window("inside", 0.315, 0.02, 0.42)
    checker.window("missing", None, 0.02, 0.42)
    checker.window("too-early", 0.02, 0.02, 0.42)
    assert [check.passed for check in checker.checks] == [
        True,
        False,
        True,
        False,
        False,
    ]


def test_checker_boolean_disagreement_fails():
    checker = _Checker({})
    checker.boolean("agree", True, True)
    checker.boolean("disagree", True, False)
    assert checker.checks[0].passed
    assert not checker.checks[1].passed


# ----------------------------------------------------------------------
# Report shape
# ----------------------------------------------------------------------
def _toy_report(passed: bool) -> ValidationReport:
    return ValidationReport(
        scenario="toy",
        mode="inrp",
        kind="steady",
        checks=[
            MetricCheck("rate[0]", "rel", 4.9e6, 5e6, 0.25, True, "ok"),
            MetricCheck("jain", "abs", 0.99, 1.0, 0.05, passed, "edge"),
        ],
    )


def test_report_passed_and_failures():
    assert _toy_report(True).passed
    failing = _toy_report(False)
    assert not failing.passed
    assert [check.name for check in failing.failures] == ["jain"]


def test_report_as_dict_is_json_serialisable():
    payload = _toy_report(True).as_dict()
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["scenario"] == "toy"
    assert round_tripped["passed"] is True
    assert len(round_tripped["checks"]) == 2


def test_report_render_marks_verdict_and_failures():
    text = _toy_report(False).render()
    assert "FAIL" in text.splitlines()[0]
    assert any("jain" in line and "FAIL" in line for line in text.splitlines())
    assert "PASS" in _toy_report(True).render().splitlines()[0]


def test_default_tolerances_cover_all_check_keys():
    assert set(DEFAULT_TOLERANCES) == {
        "rate_rel",
        "jain_abs",
        "stretch_abs",
        "fct_rel",
        "custody_slack",
    }
