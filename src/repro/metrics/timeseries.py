"""Time-series accumulators used by the simulators.

- :class:`TimeWeightedMean` integrates a piecewise-constant signal
  (e.g. aggregate throughput between simulator events);
- :class:`RateEstimator` is the windowed counter behind the INRPP
  router's anticipated-rate estimation (Eq. 1 of the paper): events
  (forwarded requests) are counted per interval ``Ti`` and exposed as
  a rate for the *next* interval.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.errors import ConfigurationError, SimulationError


class TimeWeightedMean:
    """Integrates ``value * dt`` over observation intervals."""

    def __init__(self):
        self._last_time = 0.0
        self._area = 0.0
        self._duration = 0.0

    def observe(self, now: float, value: float) -> None:
        """Record that the signal held *value* since the last call."""
        if now < self._last_time - 1e-12:
            raise SimulationError(
                f"time went backwards: {now} < {self._last_time}"
            )
        dt = max(0.0, now - self._last_time)
        self._area += value * dt
        self._duration += dt
        self._last_time = now

    @property
    def mean(self) -> float:
        """Time-weighted mean so far (0.0 before any time passes)."""
        if self._duration == 0.0:
            return 0.0
        return self._area / self._duration

    @property
    def total(self) -> float:
        """Raw integral (e.g. bits delivered if the signal was bps)."""
        return self._area

    @property
    def duration(self) -> float:
        return self._duration


class RateEstimator:
    """Sliding-window event-rate estimator.

    ``record(now, amount)`` logs *amount* units (e.g. anticipated data
    bits implied by one forwarded request); ``rate(now)`` returns the
    units/second observed over the trailing *window* seconds.  This is
    the measurement behind the paper's anticipated rate ``r_a(i)``,
    with ``window`` playing the role of ``Ti ≈ avgRTT``.
    """

    def __init__(self, window: float):
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self.window = float(window)
        self._events: Deque[Tuple[float, float]] = deque()
        self._sum = 0.0

    def record(self, now: float, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"amount must be >= 0, got {amount}")
        self._events.append((float(now), float(amount)))
        self._sum += amount
        self._expire(now)

    def rate(self, now: float) -> float:
        """Observed rate (units/s) over the trailing window."""
        self._expire(now)
        return self._sum / self.window

    def total(self, now: float) -> float:
        """Units observed within the trailing window."""
        self._expire(now)
        return self._sum

    def _expire(self, now: float) -> None:
        horizon = now - self.window
        while self._events and self._events[0][0] <= horizon:
            _, amount = self._events.popleft()
            self._sum -= amount
        if not self._events:
            # An empty window means exactly zero: the repeated add/
            # subtract cycle leaves float residue of either sign.
            self._sum = 0.0
