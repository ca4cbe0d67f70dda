"""Jain index and max-min certificate tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.metrics import jain_index, max_min_violations


def test_paper_fig3_values():
    # The paper reports 0.73 for (2, 8) and 1.0 for (5, 5).
    assert jain_index([2.0, 8.0]) == pytest.approx(0.735, abs=0.001)
    assert jain_index([5.0, 5.0]) == 1.0


def test_equal_rates_are_perfectly_fair():
    assert jain_index([3.0] * 7) == pytest.approx(1.0)


def test_lower_bound_one_over_n():
    # One flow hogs everything: index -> 1/n.
    assert jain_index([10.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


def test_input_validation():
    with pytest.raises(ConfigurationError):
        jain_index([])
    with pytest.raises(ConfigurationError):
        jain_index([1.0, -2.0])


def test_all_zero_is_degenerately_fair():
    assert jain_index([0.0, 0.0]) == 1.0


@given(st.lists(st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=30))
def test_jain_bounds(rates):
    value = jain_index(rates)
    assert 0.0 < value <= 1.0 + 1e-12


@given(
    st.floats(min_value=0.1, max_value=100.0),
    st.integers(min_value=1, max_value=20),
)
def test_jain_scale_invariant(rate, n):
    rates = [rate * (i + 1) for i in range(n)]
    scaled = [r * 7.5 for r in rates]
    assert jain_index(rates) == pytest.approx(jain_index(scaled))


# ----------------------------------------------------------------------
# Max-min certificate
# ----------------------------------------------------------------------
def test_certificate_accepts_fair_allocation():
    # Two flows share a 10 link; one is capped at 2 by a second link.
    capacities = {"shared": 10.0, "slow": 2.0}
    flow_links = {1: ["shared", "slow"], 2: ["shared"]}
    demands = {1: 10.0, 2: 10.0}
    rates = {1: 2.0, 2: 8.0}
    assert max_min_violations(rates, demands, flow_links, capacities) == []


def test_certificate_rejects_overload():
    capacities = {"l": 10.0}
    violations = max_min_violations(
        {1: 6.0, 2: 6.0}, {1: 10.0, 2: 10.0}, {1: ["l"], 2: ["l"]}, capacities
    )
    assert any("overloaded" in v for v in violations)


def test_certificate_rejects_unfairness():
    # 3/7 split of a saturated link: flow 1 has no bottleneck.
    capacities = {"l": 10.0}
    violations = max_min_violations(
        {1: 3.0, 2: 7.0}, {1: 10.0, 2: 10.0}, {1: ["l"], 2: ["l"]}, capacities
    )
    assert violations


def test_certificate_rejects_demand_overshoot():
    capacities = {"l": 10.0}
    violations = max_min_violations(
        {1: 5.0}, {1: 3.0}, {1: ["l"]}, capacities
    )
    assert any("exceeds demand" in v for v in violations)


def test_certificate_rejects_underuse():
    # Link half empty yet the flow is starved: not max-min.
    capacities = {"l": 10.0}
    violations = max_min_violations(
        {1: 1.0}, {1: 10.0}, {1: ["l"]}, capacities
    )
    assert any("no bottleneck" in v for v in violations)
