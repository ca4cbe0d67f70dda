"""Arrival process.

The paper's flow-level evaluation uses Poisson flow arrivals
("flows arrive Poisson distributed").  The process yields absolute
arrival times and can be capped by time horizon or count.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import WorkloadError
from repro.rng import SeedLike, make_rng


class PoissonArrivals:
    """Homogeneous Poisson process with rate *rate_per_second*."""

    def __init__(self, rate_per_second: float, seed: SeedLike = None):
        if rate_per_second <= 0:
            raise WorkloadError(f"rate must be positive, got {rate_per_second}")
        self.rate = float(rate_per_second)
        self._rng = make_rng(seed, "poisson-arrivals")

    def next_interarrival(self) -> float:
        """Draw one exponential inter-arrival gap (seconds)."""
        return float(self._rng.exponential(1.0 / self.rate))

    def times(
        self,
        horizon: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Iterator[float]:
        """Yield absolute arrival times from t=0.

        At least one of *horizon* / *max_events* must be given so the
        iterator terminates.
        """
        if horizon is None and max_events is None:
            raise WorkloadError("need a horizon or a max_events bound")
        now = 0.0
        count = 0
        while True:
            now += self.next_interarrival()
            if horizon is not None and now > horizon:
                return
            if max_events is not None and count >= max_events:
                return
            count += 1
            yield now
