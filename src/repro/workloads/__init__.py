"""Workload generation: arrival processes, flow sizes, traffic matrices."""

from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.sizes import ExponentialSize
from repro.workloads.traffic import (
    FlowSpec,
    FlowWorkload,
    local_pairs,
    uniform_pairs,
)

__all__ = [
    "PoissonArrivals",
    "ExponentialSize",
    "FlowSpec",
    "FlowWorkload",
    "uniform_pairs",
    "local_pairs",
]
