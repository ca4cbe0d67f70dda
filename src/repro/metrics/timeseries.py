"""Time-series accumulator used by the simulators.

:class:`TimeWeightedMean` integrates a piecewise-constant signal
(e.g. aggregate throughput between simulator events).
"""

from __future__ import annotations

from repro.errors import SimulationError


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
