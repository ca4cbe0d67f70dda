"""Per-layer timing of one simulator run, from outside the program.

Every layer entry point the simulator reaches is looked up at call
time, so a :class:`LayerTrace` times them by wrapping, with no source
change:

- ``route`` on the strategy instance and ``consume`` on the sink
  instance;
- ``incremental_allocator`` on the strategy instance, so the allocator
  it returns has ``add_flow``, ``remove_flow``, ``recompute`` and
  ``dirty_component_size`` wrapped;
- the module attributes ``repro.flowsim.kernel.maxmin_fill`` /
  ``inrp_fill``, ``repro.flowsim.strategies.dijkstra`` and
  ``repro.flowsim.allocation.detour_closure``, swapped only while
  :meth:`LayerTrace.patched` is active.

The simulator's direct children are route, add, remove, recompute,
probe and consume; tree builds nest in route, closure builds in add
and kernel fills in recompute.  What the children leave of the run is
the event loop's own time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, List

from repro.flowsim import allocation as _allocation
from repro.flowsim import kernel as _kernel
from repro.flowsim import strategies as _strategies

#: Wrapped entry points the simulator calls directly.
CHILDREN = ("route", "add", "remove", "recompute", "probe", "consume")
#: (inner, outer): inner spans run only inside their outer span.
NESTED = (("tree", "route"), ("closure", "add"), ("fill", "recompute"))

#: Per-layer metrics: (name, unit, better, what it should move).
LAYER_METRICS = (
    ("topology.build_s", "s", "lower", "setup_s, most on inrp-local"),
    ("strategy.init_s", "s", "lower", "setup_s, most on inrp-local (DetourTable build)"),
    ("routing.route_calls", "count", "lower", "run_ref_s on sp-stream; no change on inrp-overload"),
    ("routing.route_s", "s", "lower", "run_ref_s on sp-stream, some on inrp-local; no change on inrp-overload"),
    ("routing.tree_builds", "count", "lower", "run_ref_s on sp-stream; no change on inrp-overload"),
    ("routing.tree_s", "s", "lower", "run_ref_s on sp-stream, some on inrp-local; no change on inrp-overload"),
    ("routing.tree_hit_ratio", "ratio", "higher", "run_ref_s on sp-stream; no change on inrp-overload"),
    ("allocation.add_s", "s", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.remove_s", "s", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.closure_builds", "count", "lower", "run_ref_s on inrp-local and inrp-overload; none on sp-stream"),
    ("allocation.closure_s", "s", "lower", "run_ref_s on inrp-local and inrp-overload; none on sp-stream"),
    ("allocation.recompute_calls", "count", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.recompute_s", "s", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.recompute_p50_us", "us", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.recompute_p99_us", "us", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.select_s", "s", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.probe_s", "s", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.refilled_flows", "count", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.changed_flows", "count", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.useful_ratio", "ratio", "higher", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("allocation.full_refills", "count", "lower", "run_ref_s on inrp-overload and inrp-local; no change on sp-stream"),
    ("kernel.fill_calls", "count", "lower", "run_ref_s on inrp-local and inrp-overload; no change on sp-stream"),
    ("kernel.fill_flows", "count", "lower", "run_ref_s on inrp-local and inrp-overload; no change on sp-stream"),
    ("kernel.fill_s", "s", "lower", "run_ref_s on inrp-local and inrp-overload; no change on sp-stream"),
    ("kernel.fill_us_per_flow", "us", "lower", "run_ref_s on inrp-local and inrp-overload; no change on sp-stream"),
    ("kernel.switches", "count", "lower", "run_ref_s on inrp-local and inrp-overload; none on sp-stream"),
    ("simulator.recomputes", "count", "lower", "run_ref_s and flows_per_ref_s on sp-stream"),
    ("simulator.self_s", "s", "lower", "run_ref_s and flows_per_ref_s on sp-stream"),
    ("simulator.self_us_per_event", "us", "lower", "run_ref_s and flows_per_ref_s on sp-stream"),
    ("sinks.records", "count", "higher", "peak_rss_mb on sp-stream (streaming) vs inrp-local (materializing)"),
    ("sinks.consume_s", "s", "lower", "peak_rss_mb on sp-stream (streaming) vs inrp-local (materializing)"),
    ("trace.overhead", "ratio", "lower", "none: traced over untraced CPU time of the run, minus 1"),
)


class LayerTrace:
    """Call counts, busy seconds and per-call samples of one run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.seconds: Dict[str, float] = defaultdict(float)
        self.recompute_us: List[float] = []
        self.fill_flows = 0
        self.switches = 0
        self.changed_flows = 0
        self.full_refills = 0

    def _timed(self, key, function):
        calls, seconds, clock = self.calls, self.seconds, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                seconds[key] += clock() - start
                calls[key] += 1

        return timed

    def instrument(self, strategy, sink) -> None:
        """Wrap the strategy's and sink's entry points in place."""
        strategy.route = self._timed("route", strategy.route)
        sink.consume = self._timed("consume", sink.consume)
        make_allocator = strategy.incremental_allocator

        def incremental_allocator(*args, **kwargs):
            allocator = make_allocator(*args, **kwargs)
            if allocator is not None:
                self._instrument_allocator(allocator)
            return allocator

        strategy.incremental_allocator = incremental_allocator

    def _instrument_allocator(self, allocator) -> None:
        allocator.add_flow = self._timed("add", allocator.add_flow)
        allocator.remove_flow = self._timed("remove", allocator.remove_flow)
        allocator.dirty_component_size = self._timed(
            "probe", allocator.dirty_component_size
        )
        recompute = allocator.recompute
        clock = time.perf_counter

        def timed_recompute(full=False):
            start = clock()
            out = recompute(full=full)
            elapsed = clock() - start
            self.seconds["recompute"] += elapsed
            self.calls["recompute"] += 1
            self.recompute_us.append(elapsed * 1e6)
            # Max-min allocators return the changed rates; INRP
            # allocators return (rates, splits, switches).
            rates = out[0] if isinstance(out, tuple) else out
            self.changed_flows += len(rates)
            self.full_refills += bool(full)
            return out

        allocator.recompute = timed_recompute

    @contextlib.contextmanager
    def patched(self):
        """Swap the module-level layer functions for timed ones."""
        clock = time.perf_counter
        maxmin_fill, inrp_fill = _kernel.maxmin_fill, _kernel.inrp_fill

        def timed_maxmin_fill(space, cols, row_lengths, demands):
            start = clock()
            rates = maxmin_fill(space, cols, row_lengths, demands)
            self._fill_done(clock() - start, len(row_lengths), 0)
            return rates

        def timed_inrp_fill(space, flow_ids, *args, **kwargs):
            start = clock()
            result = inrp_fill(space, flow_ids, *args, **kwargs)
            self._fill_done(clock() - start, len(flow_ids), result.switches)
            return result

        swaps = (
            (_kernel, "maxmin_fill", timed_maxmin_fill),
            (_kernel, "inrp_fill", timed_inrp_fill),
            (_strategies, "dijkstra", self._timed("tree", _strategies.dijkstra)),
            (
                _allocation,
                "detour_closure",
                self._timed("closure", _allocation.detour_closure),
            ),
        )
        originals = [(module, name, getattr(module, name)) for module, name, _ in swaps]
        try:
            for module, name, timed in swaps:
                setattr(module, name, timed)
            yield self
        finally:
            for module, name, original in originals:
                setattr(module, name, original)

    def _fill_done(self, elapsed: float, rows: int, switches: int) -> None:
        self.seconds["fill"] += elapsed
        self.calls["fill"] += 1
        self.fill_flows += rows
        self.switches += switches

    def self_seconds(self, run_s: float) -> float:
        """The event loop's own time: the run minus its wrapped children."""
        return run_s - sum(self.seconds[key] for key in CHILDREN)

    def metrics(self, run_s: float, overhead: float, build_s: float, init_s: float) -> Dict[str, float]:
        """Every :data:`LAYER_METRICS` value for this traced run of
        *run_s* seconds; *overhead* is ``trace.overhead``."""
        calls, seconds = self.calls, self.seconds
        samples = sorted(self.recompute_us) or [0.0]
        events = calls["route"] + calls["remove"]
        self_s = self.self_seconds(run_s)
        return {
            "topology.build_s": build_s,
            "strategy.init_s": init_s,
            "routing.route_calls": calls["route"],
            "routing.route_s": seconds["route"],
            "routing.tree_builds": calls["tree"],
            "routing.tree_s": seconds["tree"],
            "routing.tree_hit_ratio": 1.0 - calls["tree"] / max(calls["route"], 1),
            "allocation.add_s": seconds["add"],
            "allocation.remove_s": seconds["remove"],
            "allocation.closure_builds": calls["closure"],
            "allocation.closure_s": seconds["closure"],
            "allocation.recompute_calls": calls["recompute"],
            "allocation.recompute_s": seconds["recompute"],
            "allocation.recompute_p50_us": _quantile(samples, 0.50),
            "allocation.recompute_p99_us": _quantile(samples, 0.99),
            "allocation.select_s": seconds["recompute"] - seconds["fill"],
            "allocation.probe_s": seconds["probe"],
            "allocation.refilled_flows": self.fill_flows,
            "allocation.changed_flows": self.changed_flows,
            "allocation.useful_ratio": self.changed_flows / max(self.fill_flows, 1),
            "allocation.full_refills": self.full_refills,
            "kernel.fill_calls": calls["fill"],
            "kernel.fill_flows": self.fill_flows,
            "kernel.fill_s": seconds["fill"],
            "kernel.fill_us_per_flow": seconds["fill"] * 1e6 / max(self.fill_flows, 1),
            "kernel.switches": self.switches,
            "simulator.recomputes": calls["recompute"],
            "simulator.self_s": self_s,
            "simulator.self_us_per_event": self_s * 1e6 / max(events, 1),
            "sinks.records": calls["consume"],
            "sinks.consume_s": seconds["consume"],
            "trace.overhead": overhead,
        }

    def check(self, run_s: float, result, num_flows: int) -> List[str]:
        """Self-checks of a traced run; returns the failures."""
        problems = []
        self_s = self.self_seconds(run_s)
        if self_s < 0:
            problems.append(
                f"wrapped layers took {run_s - self_s:.6f}s of a {run_s:.6f}s run"
            )
        for inner, outer in NESTED:
            if self.seconds[inner] > self.seconds[outer]:
                problems.append(
                    f"{inner} spans ({self.seconds[inner]:.6f}s) exceed the "
                    f"{outer} spans holding them ({self.seconds[outer]:.6f}s)"
                )
        if self.calls["recompute"] != result.allocations:
            problems.append(
                f"{self.calls['recompute']} traced recomputes, "
                f"{result.allocations} allocations in the result"
            )
        for key in ("route", "consume"):
            if self.calls[key] != num_flows:
                problems.append(f"{self.calls[key]} {key} calls for {num_flows} flows")
        return problems


def _quantile(ordered: List[float], q: float) -> float:
    return ordered[min(int(q * len(ordered)), len(ordered) - 1)]
