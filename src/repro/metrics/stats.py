"""Distribution statistics: CDFs and quantile sketches.

:class:`Cdf` backs the Fig. 4b path-stretch plot: an empirical,
optionally weighted, cumulative distribution with exact evaluation at
arbitrary points.  :class:`QuantileSketch` is its streaming
counterpart: a Greenwald–Khanna summary with bounded rank error, used
by the flow simulator's streaming result sink where materialising
every sample would defeat the point of streaming.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


class Cdf:
    """Empirical (weighted) cumulative distribution function.

    ``cdf(x)`` returns ``P[X <= x]``.  Weights model, e.g., bits
    carried per flow so that the stretch CDF is traffic-weighted as in
    the paper's Fig. 4b.
    """

    def __init__(self, values: Sequence[float], weights: Optional[Sequence[float]] = None):
        if len(values) == 0:
            raise ConfigurationError("cannot build a CDF from no values")
        values = np.asarray(values, dtype=float)
        if weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != values.shape:
                raise ConfigurationError("weights must match values in length")
            if np.any(weights < 0):
                raise ConfigurationError("weights must be non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ConfigurationError("total weight must be positive")
        order = np.argsort(values, kind="stable")
        self._xs = values[order]
        self._ps = np.cumsum(weights[order]) / total

    def __call__(self, x: float) -> float:
        """``P[X <= x]``."""
        index = np.searchsorted(self._xs, x, side="right")
        if index == 0:
            return 0.0
        return float(self._ps[index - 1])

    def quantile(self, q: float) -> float:
        """Smallest x with ``P[X <= x] >= q``."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        index = np.searchsorted(self._ps, q, side="left")
        index = min(index, len(self._xs) - 1)
        return float(self._xs[index])

    def points(self) -> Tuple[List[float], List[float]]:
        """Step points ``(xs, ps)`` suitable for plotting."""
        return list(map(float, self._xs)), list(map(float, self._ps))

    @property
    def min(self) -> float:
        return float(self._xs[0])

    @property
    def max(self) -> float:
        return float(self._xs[-1])


class QuantileSketch:
    """Greenwald–Khanna epsilon-approximate quantile sketch.

    Maintains a bounded summary of a (weighted) sample supporting
    rank-error-bounded quantile queries: for ``quantile(q)`` the
    returned value's true weighted rank lies within
    ``epsilon * total_weight`` of ``q * total_weight``, provided no
    single observation carries more than ``2 * epsilon`` of the total
    weight (a heavier atom is kept as an exact entry and the query
    lands inside its own rank span, so point masses degrade the answer
    no further than the distribution's own jump).

    The summary is the GK tuple list ``(value, g, delta)``: ``g`` is
    the weight gap to the preceding entry and ``delta`` the rank
    uncertainty of the entry itself; the invariant
    ``g + delta <= 2 * epsilon * W`` is restored by compression after
    every buffered batch of inserts.  Size is O(1/epsilon * log(eps*W))
    regardless of how many samples stream through.
    """

    def __init__(self, epsilon: float = 0.01):
        if not 0.0 < epsilon < 0.5:
            raise ConfigurationError(
                f"epsilon must be in (0, 0.5), got {epsilon}"
            )
        self.epsilon = float(epsilon)
        #: GK summary entries ``[value, g, delta]``, sorted by value.
        self._entries: List[List[float]] = []
        self._buffer: List[Tuple[float, float]] = []
        self._buffer_limit = max(32, int(math.ceil(1.0 / (2.0 * epsilon))))
        self._total_weight = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        """Number of observations inserted."""
        return self._count

    @property
    def total_weight(self) -> float:
        return self._total_weight

    @property
    def min(self) -> float:
        if self._count == 0:
            raise ConfigurationError("empty sketch has no minimum")
        return self._min

    @property
    def max(self) -> float:
        if self._count == 0:
            raise ConfigurationError("empty sketch has no maximum")
        return self._max

    def __len__(self) -> int:
        return len(self._entries) + len(self._buffer)

    def insert(self, value: float, weight: float = 1.0) -> None:
        """Add one observation with non-negative *weight*."""
        value = float(value)
        weight = float(weight)
        if not math.isfinite(value):
            raise ConfigurationError(f"value must be finite, got {value}")
        if not math.isfinite(weight) or weight < 0.0:
            raise ConfigurationError(
                f"weight must be finite and >= 0, got {weight}"
            )
        if weight == 0.0:
            return
        self._buffer.append((value, weight))
        self._total_weight += weight
        self._count += 1
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if len(self._buffer) >= self._buffer_limit:
            self._flush()

    def _flush(self) -> None:
        if not self._buffer:
            return
        self._buffer.sort()
        threshold = 2.0 * self.epsilon * self._total_weight
        merged: List[List[float]] = []
        entries = self._entries
        i = 0
        for value, weight in self._buffer:
            while i < len(entries) and entries[i][0] <= value:
                merged.append(entries[i])
                i += 1
            # Interior inserts inherit the local rank uncertainty; the
            # extremes stay exact so min/max quantiles are sharp.
            if not merged or i >= len(entries):
                delta = 0.0
            else:
                delta = max(threshold - weight, 0.0)
            merged.append([value, weight, delta])
        merged.extend(entries[i:])
        self._buffer.clear()
        self._entries = merged
        self._compress()

    def _compress(self) -> None:
        entries = self._entries
        if len(entries) < 3:
            return
        threshold = 2.0 * self.epsilon * self._total_weight
        # Backward pass merging an entry into its successor while the
        # combined uncertainty stays within the invariant.  First and
        # last entries are never absorbed (exact extremes).
        out = [entries[-1]]
        for entry in reversed(entries[:-1]):
            nxt = out[-1]
            if entry is not entries[0] and (
                entry[1] + nxt[1] + nxt[2] <= threshold
            ):
                nxt[1] += entry[1]
            else:
                out.append(entry)
        out.reverse()
        self._entries = out

    def quantile(self, q: float) -> float:
        """Value whose weighted rank is within ``epsilon * W`` of ``q * W``."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self._count == 0:
            raise ConfigurationError("cannot query an empty sketch")
        self._flush()
        target = q * self._total_weight
        allowance = self.epsilon * self._total_weight
        rmin = 0.0
        previous = self._entries[0][0]
        for value, g, delta in self._entries:
            rmin += g
            if rmin + delta > target + allowance:
                return previous
            previous = value
        return self._entries[-1][0]
