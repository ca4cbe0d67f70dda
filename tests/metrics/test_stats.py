"""CDF tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.metrics import Cdf


def test_simple_cdf():
    cdf = Cdf([1.0, 2.0, 3.0, 4.0])
    assert cdf(0.5) == 0.0
    assert cdf(1.0) == pytest.approx(0.25)
    assert cdf(2.5) == pytest.approx(0.5)
    assert cdf(4.0) == pytest.approx(1.0)
    assert cdf(99.0) == 1.0


def test_weighted_cdf_mass():
    # 90% of the weight at stretch 1.0, as in a Fig. 4b-like sample.
    cdf = Cdf([1.0, 1.4], [9.0, 1.0])
    assert cdf(1.0) == pytest.approx(0.9)
    assert cdf(1.4) == pytest.approx(1.0)


def test_quantile_inverse():
    cdf = Cdf([10.0, 20.0, 30.0, 40.0])
    assert cdf.quantile(0.25) == 10.0
    assert cdf.quantile(0.5) == 20.0
    assert cdf.quantile(1.0) == 40.0
    assert cdf.min == 10.0 and cdf.max == 40.0


def test_points_are_plot_ready():
    xs, ps = Cdf([3.0, 1.0, 2.0]).points()
    assert xs == sorted(xs)
    assert ps[-1] == pytest.approx(1.0)


def test_validation():
    with pytest.raises(ConfigurationError):
        Cdf([])
    with pytest.raises(ConfigurationError):
        Cdf([1.0], weights=[1.0, 2.0])
    with pytest.raises(ConfigurationError):
        Cdf([1.0], weights=[-1.0])
    with pytest.raises(ConfigurationError):
        Cdf([1.0], weights=[0.0])
    with pytest.raises(ConfigurationError):
        Cdf([1.0]).quantile(1.5)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
def test_cdf_monotone_and_bounded(values):
    cdf = Cdf(values)
    xs, ps = cdf.points()
    assert all(0.0 <= p <= 1.0 + 1e-9 for p in ps)
    assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))
    assert cdf(max(values)) == pytest.approx(1.0)
