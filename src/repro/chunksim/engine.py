"""Discrete-event engine.

:class:`Simulator` runs every chunk-level component through one API
(``call_after`` / ``call_at`` / ``cancel_entry`` / ``run``) and
processes events in ``(time, schedule-sequence)`` order
with FIFO tie-breaking.  Heap entries are plain
``[time, seq, fn, args]`` lists, so heap sifts compare floats and ints
at C speed instead of dispatching into a Python ``__lt__``; callbacks
carry their arguments in the entry instead of a per-event closure;
cancellation tombstones a live entry in place and is *accounted*: once
dead entries exceed a slack fraction of the heap it is compacted in
O(live), which bounds the heap under cancel-heavy load (AIMD
retransmission timers).  All events due at one instant are processed
as a batch without re-testing the run bound between them.
"""

from __future__ import annotations

import heapq
from typing import Callable, List

from repro.errors import SimulationError

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

    def __init__(self):
        self.now = 0.0
        self._heap: List[list] = []
        self._seq = 0
        self._dead = 0
        self.compact_slack = 0.5
        self.min_compact_size = 512
        self.events_processed = 0
        self.compactions = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_after(self, delay: float, fn: Callable, *args) -> list:
        """Run ``fn(*args)`` after *delay* seconds.

        Returns the heap entry, which is opaque: pass it to
        :meth:`cancel_entry` to cancel the callback.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        heapq.heappush(self._heap, entry)
        return entry

    def call_at(self, time: float, fn: Callable, *args) -> list:
        """Run ``fn(*args)`` at absolute simulated *time* (>= now).

        A *time* a sub-epsilon hair before ``now`` — the typical result
        of re-deriving an absolute instant through float arithmetic —
        schedules immediately instead of raising.
        """
        delay = time - self.now
        if -_SCHEDULE_CLAMP * (1.0 + abs(self.now)) <= delay < 0.0:
            delay = 0.0
        return self.call_after(delay, fn, *args)

    def cancel_entry(self, entry: list) -> None:
        """Cancel an entry returned by :meth:`call_after` / :meth:`call_at`.

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

    def _compact(self) -> None:
        """Drop tombstones and restore the heap invariant in O(live).

        In place: a cancel inside a callback can compact mid-run, and
        the run loop keeps popping the same list object.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[_FN] is not None]
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def run(self, until: float) -> None:
        """Process events until the clock passes *until*."""
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
            while heap and heap[0][0] <= until:
                batch_time = heap[0][0]
                # The clock is batch-constant: advance it once, not per
                # event.
                self.now = batch_time
                while heap and heap[0][0] == batch_time:
                    entry = pop(heap)
                    fn = entry[2]
                    if fn is None:
                        self._dead -= 1
                        continue
                    # Mark the entry consumed *before* the call: a late
                    # cancel (after the callback fired) must be a no-op,
                    # not a tombstone-accounting skew.
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
