"""Time-weighted mean tests."""

import pytest

from repro.errors import SimulationError
from repro.metrics import TimeWeightedMean


def test_time_weighted_mean_piecewise():
    meter = TimeWeightedMean()
    meter.observe(1.0, 10.0)  # 10 held over [0, 1)
    meter.observe(3.0, 4.0)   # 4 held over [1, 3)
    assert meter.mean == pytest.approx((10.0 * 1 + 4.0 * 2) / 3)
    assert meter.total == pytest.approx(18.0)
    assert meter.duration == pytest.approx(3.0)


def test_time_weighted_mean_before_time_passes():
    meter = TimeWeightedMean()
    assert meter.mean == 0.0


def test_time_cannot_go_backwards():
    meter = TimeWeightedMean()
    meter.observe(2.0, 1.0)
    with pytest.raises(SimulationError):
        meter.observe(1.0, 1.0)
