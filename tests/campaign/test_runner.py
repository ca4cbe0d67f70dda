"""Campaign planning, execution, caching and determinism."""

import pytest

from repro.campaign.runner import CampaignRunner, RunSpec, plan_runs
from repro.campaign.scenario import register_scenario
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError
from repro.rng import derive_seed

#: Incremented by the counting scenario; lets tests prove the cache
#: short-circuited a second run (workers=1 executes inline).
_CALLS = {"count": 0}


@register_scenario("counting-test-scenario", summary="test-only counter")
def scenario_counting(seed: int = 0) -> dict:
    _CALLS["count"] += 1
    return {"seed": seed, "value": seed * 2}


def test_plan_expands_grid_per_scenario():
    specs = plan_runs(["table1", "fig3"], {"seed": [0, 1]})
    # table1 accepts seed (2 points); fig3 does not (1 default point).
    by_scenario = {}
    for spec in specs:
        by_scenario.setdefault(spec.scenario, []).append(spec)
    assert len(by_scenario["table1"]) == 2
    assert len(by_scenario["fig3"]) == 1
    assert {spec.params["seed"] for spec in by_scenario["table1"]} == {0, 1}


def test_plan_run_keys_are_pinned():
    """Run keys of the strategy sweeps, recorded before the system
    names were unified: naming a system one way moved no cached
    record."""
    specs = plan_runs(["snapshot-sweep"], {"strategy": ["sp", "ecmp", "inrp"]})
    assert [spec.key for spec in specs] == [
        "4aee720cdad5019e",
        "528736e23dcd8c6b",
        "6dd3059daf8ac2ac",
    ]
    (default,) = plan_runs(["load-sweep-large"])
    assert default.key == "aa54990b51d1fdbb"


def test_int_grid_value_binds_as_its_float_default():
    """``arrival_rate=800`` and ``=800.0`` are one run: an int value of
    a float parameter binds as a float, in the key and the echo."""
    (as_int,) = plan_runs(["load-sweep-large"], {"arrival_rate": [800]})
    (as_float,) = plan_runs(["load-sweep-large"], {"arrival_rate": [800.0]})
    assert as_int.key == as_float.key == "7f3876208b38ff1b"
    assert repr(as_int.params["arrival_rate"]) == "800.0"
    # An int default keeps int values.
    (seeded,) = plan_runs(["load-sweep-large"], {"seed": [3]})
    assert type(seeded.params["seed"]) is int


def test_plan_rejects_axis_no_scenario_accepts():
    with pytest.raises(ConfigurationError, match="grid axis"):
        plan_runs(["table1"], {"bogus": [1, 2]})


def test_plan_base_seed_derives_per_scenario():
    specs = plan_runs(["table1", "fig4"], base_seed=7)
    seeds = {spec.scenario: spec.params["seed"] for spec in specs}
    assert seeds["table1"] == derive_seed(7, "table1")
    assert seeds["fig4"] == derive_seed(7, "fig4")
    assert seeds["table1"] != seeds["fig4"]


def test_plan_grid_seed_wins_over_base_seed():
    specs = plan_runs(["table1"], {"seed": [3]}, base_seed=7)
    assert [spec.params["seed"] for spec in specs] == [3]


def test_runner_requires_positive_workers():
    with pytest.raises(ConfigurationError):
        CampaignRunner(workers=0)


def test_cache_short_circuits_second_run(tmp_path):
    store = ResultStore(tmp_path)
    specs = plan_runs(["counting-test-scenario"], {"seed": [0, 1]})
    runner = CampaignRunner(store=store, workers=1)

    _CALLS["count"] = 0
    first = runner.run(specs)
    assert _CALLS["count"] == 2
    assert first.computed == 2 and first.cache_hits == 0

    second = runner.run(specs)
    assert _CALLS["count"] == 2  # cache hit: scenario never re-executed
    assert second.computed == 0 and second.cache_hits == 2
    assert [o.result for o in second.outcomes] == [
        o.result for o in first.outcomes
    ]

    forced = CampaignRunner(store=store, workers=1, force=True).run(specs)
    assert _CALLS["count"] == 4
    assert forced.computed == 2


def test_same_seed_produces_byte_identical_records(tmp_path):
    """Same scenario + seed -> byte-identical result JSON across runs."""
    spec = plan_runs(["table1"], {"seed": [0], "isp": ["vsnl"]})
    first_store = ResultStore(tmp_path / "first")
    second_store = ResultStore(tmp_path / "second")
    first = CampaignRunner(store=first_store).run(spec)
    second = CampaignRunner(store=second_store).run(spec)
    first_bytes = (tmp_path / "first" / "table1").glob("*.json")
    second_bytes = (tmp_path / "second" / "table1").glob("*.json")
    contents_first = sorted(p.read_bytes() for p in first_bytes)
    contents_second = sorted(p.read_bytes() for p in second_bytes)
    assert contents_first and contents_first == contents_second
    assert first.outcomes[0].run_key == second.outcomes[0].run_key


def test_parallel_workers_match_inline_results(tmp_path):
    specs = plan_runs(["table1"], {"seed": [0, 1], "isp": ["vsnl"]})
    inline = CampaignRunner(store=ResultStore(tmp_path / "inline")).run(specs)
    pooled = CampaignRunner(
        store=ResultStore(tmp_path / "pooled"), workers=2
    ).run(specs)
    assert [o.result for o in inline.outcomes] == [
        o.result for o in pooled.outcomes
    ]
    assert pooled.computed == 2


def test_outcomes_preserve_spec_order(tmp_path):
    store = ResultStore(tmp_path)
    specs = plan_runs(["counting-test-scenario"], {"seed": [5, 3, 4]})
    # Warm the cache for the middle spec only.
    CampaignRunner(store=store).run([specs[1]])
    report = CampaignRunner(store=store).run(specs)
    assert [o.spec.params["seed"] for o in report.outcomes] == [5, 3, 4]
    assert [o.cached for o in report.outcomes] == [False, True, False]


def test_runspec_describe_mentions_params():
    spec = RunSpec("table1", {"seed": 3})
    assert "table1" in spec.describe()
    assert "seed=3" in spec.describe()
