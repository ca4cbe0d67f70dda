"""Discrete-event engine tests."""

import pytest

from repro.chunksim import Simulator
from repro.errors import SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.call_after(3.0, lambda: fired.append("c"))
    sim.call_after(1.0, lambda: fired.append("a"))
    sim.call_after(2.0, lambda: fired.append("b"))
    sim.run(until=10.0)
    assert fired == ["a", "b", "c"]
    assert sim.now == 10.0


def test_simultaneous_events_fifo():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.call_after(1.0, lambda l=label: fired.append(l))
    sim.run(until=2.0)
    assert fired == ["first", "second", "third"]


def test_cancellation():
    sim = Simulator()
    fired = []
    entry = sim.call_after(1.0, lambda: fired.append("x"))
    sim.cancel_entry(entry)
    sim.run(until=2.0)
    assert fired == []


def test_nested_scheduling_from_callback():
    sim = Simulator()
    fired = []

    def outer():
        fired.append(("outer", sim.now))
        sim.call_after(0.5, lambda: fired.append(("inner", sim.now)))

    sim.call_after(1.0, outer)
    sim.run(until=2.0)
    assert fired == [("outer", 1.0), ("inner", 1.5)]


def test_run_until_boundary_inclusive():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, lambda: fired.append("at-boundary"))
    sim.run(until=1.0)
    assert fired == ["at-boundary"]


def test_partial_run_then_resume():
    sim = Simulator()
    fired = []
    sim.call_after(1.0, lambda: fired.append("early"))
    sim.call_after(5.0, lambda: fired.append("late"))
    sim.run(until=2.0)
    assert fired == ["early"]
    sim.run(until=6.0)
    assert fired == ["early", "late"]


def test_errors():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_after(-1.0, lambda: None)
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_schedule_at_clamps_float_rounding():
    # Re-deriving an absolute time through float arithmetic can land a
    # sub-epsilon hair before now; that must schedule, not raise.
    sim = Simulator()
    fired = []
    sim.call_after(0.3, lambda: None)
    sim.run(until=0.3)
    behind = sim.now - 1e-13
    assert behind < sim.now
    sim.call_at(behind, lambda: fired.append(sim.now))
    sim.run(until=1.0)
    assert fired == [pytest.approx(0.3)]


def test_schedule_at_still_rejects_real_past_times():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run(until=1.0)
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)
