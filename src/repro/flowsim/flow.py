"""Flow state for the flow-level simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.routing.paths import Path
from repro.workloads.traffic import FlowSpec


@dataclass
class ActiveFlow:
    """A flow currently in the network."""

    spec: FlowSpec
    primary_path: Path
    remaining_bits: float
    rate_bps: float = 0.0
    #: Current (path, rate) split as decided by the strategy.
    splits: List[Tuple[Path, float]] = field(default_factory=list)
    #: Bits delivered so far, keyed by the hop count of the sub-path
    #: that carried them (feeds the stretch metric).
    bits_by_hops: Dict[int, float] = field(default_factory=dict)

    def record_delivery(self, dt: float) -> float:
        """Account *dt* seconds of delivery at the current split.

        Returns the bits delivered (capped at the remaining size).
        """
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        delivered = min(self.rate_bps * dt, self.remaining_bits)
        if delivered <= 0:
            return 0.0
        if len(self.splits) == 1 and self.splits[0][1] > 0:
            # Single-path flows (the vast majority) skip the share
            # arithmetic: everything rides one sub-path.
            hops = len(self.splits[0][0]) - 1
            self.bits_by_hops[hops] = self.bits_by_hops.get(hops, 0.0) + delivered
            self.remaining_bits -= delivered
            return delivered
        total_rate = sum(rate for _, rate in self.splits)
        if total_rate <= 0:
            raise SimulationError(
                f"flow {self.spec.flow_id} has rate {self.rate_bps} bit/s "
                f"but no positive split: {self.splits!r}"
            )
        for path, rate in self.splits:
            if rate <= 0:
                continue
            share = delivered * rate / total_rate
            hops = len(path) - 1
            self.bits_by_hops[hops] = self.bits_by_hops.get(hops, 0.0) + share
        self.remaining_bits -= delivered
        return delivered

    @property
    def done(self) -> bool:
        return self.remaining_bits <= 1e-6


@dataclass(frozen=True)
class FlowRecord:
    """Immutable record of a finished (or abandoned) flow."""

    flow_id: int
    source: object
    destination: object
    size_bits: float
    arrival_time: float
    completion_time: Optional[float]
    delivered_bits: float
    #: Bit-weighted path stretch (1.0 when everything used the primary).
    stretch: float

    @property
    def completed(self) -> bool:
        return self.completion_time is not None

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time in seconds (None when unfinished)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.arrival_time


def stretch_of(flow: ActiveFlow) -> float:
    """Bit-weighted stretch of *flow* against its primary path."""
    primary_hops = max(len(flow.primary_path) - 1, 1)
    total = sum(flow.bits_by_hops.values())
    if total <= 0:
        return 1.0
    weighted = sum(hops * bits for hops, bits in flow.bits_by_hops.items())
    return weighted / (total * primary_hops)


def split_stretch(splits: List[Tuple[Path, float]], primary_hops: int) -> float:
    """Rate-weighted stretch of a flow's ``(path, rate)`` splits against
    a *primary_hops*-hop primary path (the Fig. 4b metric); 1.0 when
    the splits carry no rate or the primary has no hops."""
    total = sum(rate for _, rate in splits)
    if total <= 0 or primary_hops <= 0:
        return 1.0
    weighted = sum(rate * (len(path) - 1) for path, rate in splits)
    return weighted / (total * primary_hops)
