"""Discrete-event engine.

Two engines share one API (``schedule`` / ``call_after`` /
``schedule_at`` / ``call_at`` / ``run``) and process events in an
identical order — ``(time, schedule-sequence)`` with FIFO tie-breaking
— so every component of the chunk simulator runs unchanged on either:

- :class:`Simulator` — the modern core.  Heap entries are plain
  ``[time, seq, fn, args]`` lists, so heap sifts compare floats and
  ints at C speed instead of dispatching into a Python ``__lt__``;
  callbacks carry their arguments in the entry instead of a per-event
  closure; cancellation tombstones a live entry in place and is
  *accounted*: once dead entries exceed a slack fraction of the heap
  it is compacted in O(live), which bounds the heap under
  cancel-heavy load (AIMD retransmission timers).  All events due at
  one instant are processed as a batch without re-testing the run
  bound between them.
- :class:`ReferenceSimulator` — the seed implementation (object
  entries with a Python ``__lt__``, one bound-check per event, no
  compaction), kept as the semantic yardstick: the equivalence tests
  and ``benchmarks/bench_chunksim.py`` drive both engines through the
  same scenario and assert identical traces while timing the gap.
  :class:`~repro.chunksim.network.ChunkNetwork` always builds a
  :class:`Simulator`; to run a whole network on the yardstick,
  substitute ``repro.chunksim.network.Simulator`` with this class.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional

from repro.errors import ConfigurationError, SimulationError

#: Negative delays within this tolerance of zero (relative to the
#: clock's magnitude) are float-rounding artefacts of computing an
#: absolute time from ``now``; they are clamped rather than rejected.
#: Kept within a few orders of magnitude of double-precision ulp so a
#: genuinely-past schedule time still fails loudly.
_SCHEDULE_CLAMP = 1e-12

# Heap-entry slots: [_TIME, _SEQ, _FN, _ARGS].  A tombstoned entry has
# _FN set to None (and _ARGS cleared so cancelled closures release
# their references immediately, not at pop time).
_TIME, _SEQ, _FN, _ARGS = 0, 1, 2, 3


class Event:
    """Cancellation handle for a scheduled callback.

    Returned by :meth:`Simulator.schedule`; hot paths that never
    cancel use :meth:`Simulator.call_after`, which skips the handle.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: "Simulator", entry: list):
        self._sim = sim
        self._entry = entry

    @property
    def time(self) -> float:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_FN] is None

    def cancel(self) -> None:
        entry = self._entry
        if entry[_FN] is not None:
            entry[_FN] = None
            entry[_ARGS] = ()
            self._sim._note_dead()


class Simulator:
    """Event loop with a monotonically advancing clock.

    ``compact_slack`` and ``min_compact_size`` bound the tombstone
    population: once more than ``compact_slack`` of at least
    ``min_compact_size`` heap entries are dead, the heap is rebuilt
    from the live entries (O(live), amortised O(1) per cancel).  The
    live heap size is therefore never exceeded by more than the slack
    fraction plus the compaction floor, no matter how cancel-heavy the
    workload.
    """

    def __init__(self, compact_slack: float = 0.5, min_compact_size: int = 512):
        if not 0.0 < compact_slack:
            raise ConfigurationError(
                f"compact_slack must be positive, got {compact_slack}"
            )
        if min_compact_size < 1:
            raise ConfigurationError(
                f"min_compact_size must be >= 1, got {min_compact_size}"
            )
        self.now = 0.0
        self._heap: List[list] = []
        self._seq = 0
        self._dead = 0
        self.compact_slack = compact_slack
        self.min_compact_size = min_compact_size
        self.events_processed = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args) -> Event:
        """Run ``fn(*args)`` after *delay* seconds; returns a handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return Event(self, entry)

    def call_after(self, delay: float, fn: Callable, *args) -> None:
        """:meth:`schedule` without the cancellation handle (hot path)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)

    def schedule_entry(self, delay: float, fn: Callable, *args) -> list:
        """:meth:`schedule` returning the raw heap entry (hot path).

        The entry is opaque; pass it to :meth:`cancel_entry`.  Skips
        the :class:`Event` handle allocation for timer-dense callers
        (AIMD retransmission timers).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def cancel_entry(self, entry: list) -> None:
        """Cancel an entry from :meth:`schedule_entry`.

        Idempotent, and a no-op once the callback has fired (fired
        entries are marked consumed by the event loop).
        """
        if entry[_FN] is not None:
            entry[_FN] = None
            entry[_ARGS] = ()
            self._dead += 1
            if (
                self._dead >= self.min_compact_size
                and self._dead > self.compact_slack * len(self._heap)
            ):
                self._compact()

    def _clamped_delay(self, time: float) -> float:
        """Delay to absolute *time*, clamping float-rounding residue.

        A *time* a sub-epsilon hair before ``now`` — the typical result
        of re-deriving an absolute instant through float arithmetic —
        schedules immediately instead of raising.
        """
        delay = time - self.now
        if -_SCHEDULE_CLAMP * (1.0 + abs(self.now)) <= delay < 0.0:
            delay = 0.0
        return delay

    def schedule_at(self, time: float, fn: Callable, *args) -> Event:
        """Run ``fn(*args)`` at absolute simulated *time* (>= now)."""
        return self.schedule(self._clamped_delay(time), fn, *args)

    def call_at(self, time: float, fn: Callable, *args) -> None:
        """:meth:`schedule_at` without the cancellation handle."""
        self.call_after(self._clamped_delay(time), fn, *args)

    # ------------------------------------------------------------------
    # Tombstone accounting
    # ------------------------------------------------------------------
    def _note_dead(self) -> None:
        self._dead += 1
        if (
            self._dead >= self.min_compact_size
            and self._dead > self.compact_slack * len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones and restore the heap invariant in O(live)."""
        self._heap = [entry for entry in self._heap if entry[_FN] is not None]
        heapq.heapify(self._heap)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, until: float, max_events: Optional[int] = None) -> None:
        """Process events until the clock passes *until*.

        ``max_events`` is a safety valve for tests: it bounds the
        number of events processed; attempting one more raises
        :class:`SimulationError` (runaway event loops fail loudly).
        """
        if until < self.now:
            raise SimulationError(f"cannot run backwards to {until}")
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            # Batches: everything due at one instant runs back to back,
            # including same-instant events scheduled by the batch
            # itself (their sequence numbers are higher, so FIFO order
            # is preserved exactly as in a one-at-a-time loop).
            if max_events is None:
                while heap and heap[0][0] <= until:
                    batch_time = heap[0][0]
                    # The clock is batch-constant: advance it once,
                    # not per event.
                    self.now = batch_time
                    while heap and heap[0][0] == batch_time:
                        entry = pop(heap)
                        fn = entry[2]
                        if fn is None:
                            self._dead -= 1
                            continue
                        # Mark the entry consumed *before* the call: a
                        # late cancel (after the callback fired) must
                        # be a no-op, not a tombstone-accounting skew.
                        entry[2] = None
                        fn(*entry[3])
                        processed += 1
            else:
                while heap and heap[0][0] <= until:
                    batch_time = heap[0][0]
                    while heap and heap[0][0] == batch_time:
                        entry = pop(heap)
                        fn = entry[2]
                        if fn is None:
                            self._dead -= 1
                            continue
                        if processed >= max_events:
                            raise SimulationError(
                                f"exceeded {max_events} events"
                            )
                        self.now = batch_time
                        entry[2] = None
                        fn(*entry[3])
                        processed += 1
        finally:
            self.events_processed += processed
        self.now = until

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of events still queued (including tombstones)."""
        return len(self._heap)

    @property
    def dead(self) -> int:
        """Tombstoned entries currently in the heap."""
        return self._dead

    @property
    def live_pending(self) -> int:
        """Events still queued, excluding tombstones."""
        return len(self._heap) - self._dead


class _ReferenceEvent:
    """Seed-era heap entry: an object whose ``__lt__`` is Python code."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __lt__(self, other: "_ReferenceEvent") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceSimulator:
    """The seed event loop, kept as the semantic/performance baseline.

    Same API and identical event ordering as :class:`Simulator`, but
    with the seed's cost profile: per-entry objects compared via a
    Python ``__lt__``, one run-bound test per event, and tombstones
    that stay in the heap until their scheduled time is popped.
    """

    def __init__(self):
        self.now = 0.0
        self._heap: List[_ReferenceEvent] = []
        self._seq = 0
        self.events_processed = 0
        self.compactions = 0

    def schedule(self, delay: float, fn: Callable, *args) -> _ReferenceEvent:
        """Run ``fn(*args)`` after *delay* seconds of simulated time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        event = _ReferenceEvent(self.now + delay, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    call_after = schedule
    schedule_entry = schedule

    @staticmethod
    def cancel_entry(entry: _ReferenceEvent) -> None:
        entry.cancelled = True

    def schedule_at(self, time: float, fn: Callable, *args) -> _ReferenceEvent:
        """Run ``fn(*args)`` at absolute simulated *time* (>= now)."""
        delay = time - self.now
        if -_SCHEDULE_CLAMP * (1.0 + abs(self.now)) <= delay < 0.0:
            delay = 0.0
        return self.schedule(delay, fn, *args)

    call_at = schedule_at

    def run(self, until: float, max_events: Optional[int] = None) -> None:
        """Process events until the clock passes *until*."""
        if until < self.now:
            raise SimulationError(f"cannot run backwards to {until}")
        processed = 0
        while self._heap and self._heap[0].time <= until:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if max_events is not None and processed >= max_events:
                raise SimulationError(f"exceeded {max_events} events")
            self.now = event.time
            event.fn(*event.args)
            processed += 1
            self.events_processed += 1
        self.now = until

    @property
    def pending(self) -> int:
        """Number of events still queued (including tombstones)."""
        return len(self._heap)

    @property
    def dead(self) -> int:
        """Tombstoned entries currently in the heap (O(pending) scan)."""
        return sum(1 for event in self._heap if event.cancelled)

    @property
    def live_pending(self) -> int:
        return len(self._heap) - self.dead
