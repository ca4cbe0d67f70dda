"""Steady-state snapshot evaluation for the Fig. 4 experiments.

Instead of integrating a long arrival/departure history, a snapshot
experiment draws K independent populations of concurrent flows (the
stationary picture of a Poisson arrival process) and lets the strategy
allocate each one.  Network throughput is the delivered fraction of
the offered demand; the per-flow, bit-weighted stretch samples feed
Fig. 4b.  This matches what Fig. 4a reports while keeping the large
ISP maps tractable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, NoPathError
from repro.flowsim.flow import split_stretch
from repro.flowsim.strategies import RoutingStrategy
from repro.metrics.stats import Cdf
from repro.rng import derive_seed
from repro.topology.graph import Topology
from repro.workloads.traffic import PairSampler, uniform_pairs


@dataclass
class SnapshotResult:
    """Aggregated outcome of a snapshot experiment."""

    strategy: str
    topology: str
    throughputs: List[float] = field(default_factory=list)
    stretch_values: List[float] = field(default_factory=list)
    stretch_weights: List[float] = field(default_factory=list)
    switches: int = 0
    backpressured: int = 0

    @property
    def mean_throughput(self) -> float:
        return float(np.mean(self.throughputs)) if self.throughputs else 0.0

    @property
    def std_throughput(self) -> float:
        return float(np.std(self.throughputs)) if self.throughputs else 0.0

    def stretch_cdf(self) -> Cdf:
        """Traffic-weighted stretch CDF (the Fig. 4b curve)."""
        if not self.stretch_values:
            raise ConfigurationError("no stretch samples collected")
        return Cdf(self.stretch_values, self.stretch_weights)


def snapshot_experiment(
    topology: Topology,
    strategy: RoutingStrategy,
    num_flows: int,
    demand_bps: float,
    num_snapshots: int = 10,
    seed: int = 0,
    pair_sampler: Optional[PairSampler] = None,
) -> SnapshotResult:
    """Run *num_snapshots* independent allocation snapshots.

    Parameters
    ----------
    num_flows:
        Concurrent flows per snapshot (the stationary population).
    demand_bps:
        Access-rate cap per flow; senders push up to this ("if senders
        see extra available bandwidth they insert more data").
    """
    if num_flows < 1:
        raise ConfigurationError(f"need >= 1 flow, got {num_flows}")
    if num_snapshots < 1:
        raise ConfigurationError(f"need >= 1 snapshot, got {num_snapshots}")
    result = SnapshotResult(strategy=strategy.name, topology=topology.name)
    for snapshot in range(num_snapshots):
        sampler = pair_sampler or uniform_pairs(
            topology, derive_seed(seed, f"snapshot-{snapshot}")
        )
        flows = {}
        flow_id = snapshot * num_flows
        attempts = 0
        while len(flows) < num_flows and attempts < 20 * num_flows:
            attempts += 1
            source, destination = sampler()
            try:
                path = strategy.route(flow_id, source, destination)
            except NoPathError:
                continue  # disconnected pair; resample
            flows[flow_id] = (path, demand_bps)
            flow_id += 1
        if not flows:
            raise ConfigurationError("could not sample any connected flow pair")
        outcome = strategy.allocate(flows)
        offered = demand_bps * len(flows)
        delivered = sum(outcome.rates.values())
        result.throughputs.append(delivered / offered)
        result.switches += outcome.switches
        result.backpressured += len(outcome.backpressured)
        for fid, splits in outcome.splits.items():
            total = sum(rate for _, rate in splits)
            if total <= 0:
                continue
            result.stretch_values.append(
                split_stretch(splits, len(flows[fid][0]) - 1)
            )
            result.stretch_weights.append(total)
    return result
