"""Protocol-event counters for the chunk simulator."""

from __future__ import annotations

from collections import Counter
from typing import Dict


class Trace:
    """Counts protocol events and notes when each type first appeared.

    Long runs emit millions of events, so only the counters are kept
    (reports and tests read them).
    """

    def __init__(self):
        self.counters: Counter = Counter()
        #: First simulated time each event type was recorded (onset
        #: detection: e.g. when did back-pressure/custody first appear).
        self.first_seen: Dict[str, float] = {}

    def record(self, event: str, time: float) -> None:
        self.counters[event] += 1
        if event not in self.first_seen:
            self.first_seen[event] = time

    def count(self, event: str) -> int:
        return self.counters.get(event, 0)
