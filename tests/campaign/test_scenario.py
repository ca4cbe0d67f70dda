"""Scenario registry behaviour."""

import pytest

from repro.campaign.scenario import (
    get_scenario,
    iter_scenarios,
    load_builtin_scenarios,
    register_scenario,
)
from repro.errors import ConfigurationError


def test_builtin_scenarios_registered():
    load_builtin_scenarios()
    names = {scenario.name for scenario in iter_scenarios()}
    assert {"table1", "fig3", "fig4", "snapshot-sweep", "load-sweep-large"} <= names
    assert {"ablation-custody", "ablation-anticipation", "ablation-gossip"} <= names
    # One scenario per experiment: operating points that differ only in
    # their defaults are grid lines of the two sweeps.
    assert not {
        "load-sweep",
        "inrp-load-sweep-large",
        "load-sweep-xl",
        "ablation-detour-depth",
    } & names


def test_tag_filter():
    paper = iter_scenarios(tags=["paper"])
    assert {s.name for s in paper} == {"table1", "fig3", "fig4"}


def test_unknown_scenario_raises():
    with pytest.raises(ConfigurationError, match="unknown scenario"):
        get_scenario("does-not-exist")


def test_bind_rejects_unknown_param():
    scenario = get_scenario("table1")
    with pytest.raises(ConfigurationError, match="does not accept"):
        scenario.bind(bogus=1)


def test_bind_overlays_defaults():
    scenario = get_scenario("table1")
    bound = scenario.bind(seed=7)
    assert bound["seed"] == 7
    assert "isp" in bound  # default filled in


def test_register_requires_defaults():
    with pytest.raises(ConfigurationError, match="default"):

        @register_scenario("broken-test-scenario")
        def scenario_broken(seed):  # pragma: no cover - registration fails
            return {}


def test_scenario_result_must_be_mapping():
    @register_scenario("bad-return-test-scenario")
    def scenario_bad() -> list:
        return [1, 2, 3]

    with pytest.raises(ConfigurationError, match="mapping"):
        get_scenario("bad-return-test-scenario").run()


def test_table1_scenario_runs_single_isp():
    result = get_scenario("table1").run(isp="vsnl", seed=0)
    assert len(result["rows"]) == 1
    assert result["rows"][0]["isp"] == "vsnl"
    assert result["max_error"] < 0.5


@pytest.mark.parametrize(
    "scenario, params",
    [
        ("snapshot-sweep", {"isp": "vsnl", "num_snapshots": 1}),
        ("load-sweep-large", {"isp": "vsnl", "num_flows": 20, "max_hops": 2}),
    ],
)
@pytest.mark.parametrize("strategy", ["sp", "ecmp", "inrp"])
def test_sweeps_record_the_grid_strategy(scenario, params, strategy):
    """Both sweeps record ``strategy`` as the grid value they ran, so a
    report grouping records by strategy sees one name per system."""
    result = get_scenario(scenario).run(strategy=strategy, **params)
    assert result["strategy"] == strategy
