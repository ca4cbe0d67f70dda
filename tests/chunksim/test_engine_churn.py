"""Engine stress tests: cancel-heavy churn and tombstone bounds.

The modern :class:`Simulator` tombstones cancelled entries and
compacts the heap once the dead fraction crosses the slack threshold.
These tests pin two properties:

- **order equivalence under churn** — a randomized interleaving of
  schedule / cancel / run produces the exact same firing sequence on
  the modern engine, the reference engine and a naive sorted-list
  model (the executable specification);
- **bounded memory** — under a cancel-heavy timer workload (the AIMD
  retransmission pattern) the heap stays within a constant factor of
  the live event population, while the reference engine's heap grows
  with the total number of cancellations.
"""

from hypothesis import given, settings, strategies as st
from oracles import ReferenceSimulator

from repro.chunksim.engine import Simulator


class NaiveSimulator:
    """Sorted-list reference model: the executable specification.

    Keeps every scheduled callback in a flat list and, on ``run``,
    repeatedly executes the earliest live ``(time, seq)`` entry.  No
    heap, no tombstones — obviously correct and obviously slow.
    """

    def __init__(self):
        self.now = 0.0
        self._entries = []
        self._seq = 0

    def call_after(self, delay, fn, *args):
        entry = [self.now + delay, self._seq, fn, args]
        self._seq += 1
        self._entries.append(entry)
        return entry

    @staticmethod
    def cancel_entry(entry):
        entry[2] = None

    def run(self, until):
        while True:
            live = [e for e in self._entries if e[2] is not None]
            if not live:
                break
            entry = min(live, key=lambda e: (e[0], e[1]))
            if entry[0] > until:
                break
            self._entries.remove(entry)
            self.now = entry[0]
            entry[2](*entry[3])
        self.now = until

    @property
    def live_pending(self):
        return sum(1 for e in self._entries if e[2] is not None)


#: Delays drawn from a small set so that same-instant ties (the FIFO
#: tie-break) occur constantly.
_DELAYS = (0.0, 0.1, 0.25, 0.5, 1.0, 2.0)


def _drive(sim, actions):
    """Apply a churn script to *sim*; returns the firing log."""
    log = []
    handles = {}
    next_tag = 0

    def fire(tag):
        log.append((sim.now, tag))

    for op, arg in actions:
        if op <= 4:  # schedule (weighted: churn is mostly scheduling)
            delay = _DELAYS[arg % len(_DELAYS)]
            handles[next_tag] = sim.call_after(delay, fire, next_tag)
            next_tag += 1
        elif op <= 7 and handles:  # cancel an arbitrary live handle
            tags = sorted(handles)
            tag = tags[arg % len(tags)]
            sim.cancel_entry(handles.pop(tag))
        else:  # advance the clock
            sim.run(sim.now + _DELAYS[arg % len(_DELAYS)])
    sim.run(sim.now + 10.0 * max(_DELAYS))
    return log


@settings(deadline=None, max_examples=40)
@given(
    actions=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=1_000_000),
        ),
        min_size=5,
        max_size=120,
    )
)
def test_engines_match_naive_model_under_churn(actions):
    """Property: modern == reference == sorted-list model, exactly."""
    naive_log = _drive(NaiveSimulator(), actions)
    # A tiny compaction floor so the churn script actually crosses it.
    modern = Simulator()
    modern.min_compact_size = 4
    modern_log = _drive(modern, actions)
    reference_log = _drive(ReferenceSimulator(), actions)
    assert modern_log == naive_log
    assert reference_log == naive_log


@settings(deadline=None, max_examples=20)
@given(
    actions=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=1_000_000),
        ),
        min_size=5,
        max_size=120,
    )
)
def test_dead_accounting_is_consistent_under_churn(actions):
    """``dead`` + ``live_pending`` always partition ``pending``."""
    sim = Simulator()
    sim.min_compact_size = 8
    handles = {}
    next_tag = 0
    for op, arg in actions:
        if op <= 4:
            handles[next_tag] = sim.call_after(
                _DELAYS[arg % len(_DELAYS)], lambda: None
            )
            next_tag += 1
        elif op <= 6 and handles:
            tags = sorted(handles)
            sim.cancel_entry(handles.pop(tags[arg % len(tags)]))
        elif op == 7 and handles:
            # Double-cancel must be idempotent (no double counting).
            tags = sorted(handles)
            entry = handles[tags[arg % len(tags)]]
            sim.cancel_entry(entry)
            sim.cancel_entry(entry)
        else:
            sim.run(sim.now + _DELAYS[arg % len(_DELAYS)])
        assert 0 <= sim.dead <= sim.pending
        assert sim.live_pending == sim.pending - sim.dead
    sim.run(sim.now + 100.0)
    assert sim.dead == 0


def _timer_churn(sim, rounds=40, per_round=500, cancel_fraction=0.95):
    """AIMD-shaped load: dense timers, nearly all cancelled early.

    Returns the peak heap length observed across the churn.
    """
    peak = 0
    for _ in range(rounds):
        entries = [
            sim.call_after(0.5, lambda: None) for _ in range(per_round)
        ]
        cutoff = int(len(entries) * cancel_fraction)
        for entry in entries[:cutoff]:
            sim.cancel_entry(entry)
        peak = max(peak, sim.pending)
        sim.run(sim.now + 0.01)
    return peak


def test_heap_stays_bounded_under_cancel_heavy_load():
    sim = Simulator()
    sim.min_compact_size = 64
    peak = _timer_churn(sim)
    total_scheduled = 40 * 500
    # Compaction must actually have run, and the heap must stay within
    # a constant factor of the live population instead of accumulating
    # the ~19k tombstones this load produces.
    assert sim.compactions > 0
    live_peak = 0.05 * total_scheduled + sim.min_compact_size
    assert peak <= 4 * live_peak
    assert sim.dead <= max(
        sim.min_compact_size, sim.compact_slack * sim.pending + 1
    )


def test_reference_engine_accumulates_tombstones():
    # The contrast that motivated the fix: the seed engine keeps every
    # cancelled timer in its heap until the scheduled time is popped.
    reference = ReferenceSimulator()
    modern = Simulator()
    modern.min_compact_size = 64
    reference_peak = _timer_churn(reference)
    modern_peak = _timer_churn(modern)
    assert reference_peak > 5 * modern_peak


def _cancel_storm(sim):
    """A callback cancels most timers, crossing the compaction floor
    mid-run, then schedules one more event; returns the firing log."""
    log = []
    timers = [sim.call_after(5.0, log.append, ("timer", i)) for i in range(2000)]

    def storm():
        for entry in timers[:1900]:
            sim.cancel_entry(entry)
        sim.call_after(1.0, log.append, ("after-storm", sim.now))

    sim.call_after(1.0, storm)
    sim.run(10.0)
    return log


def test_compaction_inside_a_callback_loses_no_event():
    # The run loop holds the heap list across callbacks, so compaction
    # must rebuild that same list rather than bind a new one.
    sim = Simulator()
    log = _cancel_storm(sim)
    assert sim.compactions > 0
    assert sim.dead >= 0
    assert ("after-storm", 1.0) in log
    assert log == _cancel_storm(ReferenceSimulator())
    assert log == _cancel_storm(NaiveSimulator())
