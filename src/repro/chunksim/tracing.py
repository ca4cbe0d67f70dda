"""Lightweight tracing/counters for the chunk simulator."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class TraceRecord:
    time: float
    node: Any
    event: str
    detail: Dict[str, Any] = field(default_factory=dict)


class Trace:
    """Counts protocol events; optionally keeps full records.

    Counting is always on (cheap, used by reports and tests); record
    keeping is opt-in via ``keep_records=True`` because long runs emit
    millions of events.
    """

    def __init__(self, keep_records: bool = False, max_records: int = 100_000):
        self.counters: Counter = Counter()
        self.keep_records = keep_records
        self.max_records = max_records
        self.records: List[TraceRecord] = []
        #: First simulated time each event type was recorded (onset
        #: detection: e.g. when did back-pressure/custody first appear).
        self.first_seen: Dict[str, float] = {}

    def record(self, time: float, node: Any, event: str, **detail: Any) -> None:
        self.counters[event] += 1
        if event not in self.first_seen:
            self.first_seen[event] = time
        if self.keep_records and len(self.records) < self.max_records:
            self.records.append(TraceRecord(time, node, event, detail))

    def count(self, event: str) -> int:
        return self.counters.get(event, 0)
