"""Flow-size distribution (bits).

Bulk content transfers (the paper's "ftp" case) are modelled with
exponential sizes.
"""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.rng import SeedLike, make_rng


class ExponentialSize:
    """Exponentially distributed sizes with the given mean."""

    def __init__(self, mean_bits: float, seed: SeedLike = None):
        if mean_bits <= 0:
            raise WorkloadError(f"mean must be positive, got {mean_bits}")
        self._mean = float(mean_bits)
        self._rng = make_rng(seed, "exp-sizes")

    def sample(self) -> float:
        # Clamp away from zero so transfers always carry data.
        return max(float(self._rng.exponential(self._mean)), 1.0)

    @property
    def mean(self) -> float:
        return self._mean
