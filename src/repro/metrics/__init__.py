"""Metrics: fairness indices, distribution statistics, time series."""

from repro.metrics.fairness import jain_index, max_min_violations
from repro.metrics.stats import Cdf, QuantileSketch
from repro.metrics.timeseries import TimeWeightedMean

__all__ = [
    "jain_index",
    "max_min_violations",
    "Cdf",
    "QuantileSketch",
    "TimeWeightedMean",
]
