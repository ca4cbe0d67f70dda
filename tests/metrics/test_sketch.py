"""Greenwald-Khanna quantile sketch tests: rank-error bounds, weights,
degenerate inputs."""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.metrics import QuantileSketch


def _rank_error(values, weights, sketch, qs):
    """Worst |estimated rank - target rank| / total weight over *qs*."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    worst = 0.0
    for q in qs:
        answer = sketch.quantile(q)
        # Weighted rank band of the answered value.
        below = sum(w for v, w in pairs if v < answer)
        through = below + sum(w for v, w in pairs if v == answer)
        target = q * total
        if below <= target <= through:
            continue
        worst = max(worst, min(abs(below - target), abs(through - target)) / total)
    return worst


QS = [0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0]


def test_rank_error_within_epsilon_unweighted():
    rng = random.Random(7)
    values = [rng.lognormvariate(0.0, 1.5) for _ in range(20_000)]
    sketch = QuantileSketch(epsilon=0.01)
    for value in values:
        sketch.insert(value)
    error = _rank_error(values, [1.0] * len(values), sketch, QS)
    assert error <= 0.01 + 1e-12


def test_rank_error_within_epsilon_weighted():
    rng = random.Random(11)
    values = [rng.expovariate(1.0) for _ in range(10_000)]
    weights = [rng.expovariate(1.0) + 0.01 for _ in range(10_000)]
    sketch = QuantileSketch(epsilon=0.02)
    for value, weight in zip(values, weights):
        sketch.insert(value, weight)
    error = _rank_error(values, weights, sketch, QS)
    assert error <= 0.02 + 1e-12


def test_extremes_are_exact():
    sketch = QuantileSketch(epsilon=0.05)
    values = list(range(1000))
    random.Random(0).shuffle(values)
    for value in values:
        sketch.insert(float(value))
    assert sketch.quantile(0.0) == 0.0
    assert sketch.quantile(1.0) == 999.0
    assert sketch.min == 0.0
    assert sketch.max == 999.0


def test_bounded_size():
    sketch = QuantileSketch(epsilon=0.01)
    rng = random.Random(1)
    for _ in range(100_000):
        sketch.insert(rng.random())
    # O(1/eps * log(eps * n)) — far below the sample size.
    assert len(sketch) < 2_000


def test_zero_weight_ignored_and_validation():
    sketch = QuantileSketch(epsilon=0.1)
    sketch.insert(5.0, weight=0.0)
    assert sketch.count == 0
    with pytest.raises(ConfigurationError):
        sketch.insert(math.nan)
    with pytest.raises(ConfigurationError):
        sketch.insert(1.0, weight=-1.0)
    with pytest.raises(ConfigurationError):
        sketch.quantile(0.5)  # still empty
    with pytest.raises(ConfigurationError):
        QuantileSketch(epsilon=0.0)
    with pytest.raises(ConfigurationError):
        QuantileSketch(epsilon=0.5)


def test_single_value():
    sketch = QuantileSketch()
    sketch.insert(42.0, weight=3.0)
    for q in (0.0, 0.5, 1.0):
        assert sketch.quantile(q) == 42.0
    assert sketch.total_weight == 3.0
