"""Measuring one workload: correctness checks, peak memory, timed
repeats and traced repeats.

Every simulation is the production path,
``FlowLevelSimulator(topo, strategy, specs, sink=...)``, on a topology
and strategy built fresh for that run, so cold routing trees stay in
the run time as they do in every campaign cell.  The schedule is
generated from the seed before anything is timed; the simulator only
receives the finished list.

Timed figures are in reference seconds (see ``hostclock.py``): CPU
time corrected for how fast the shared host ran a fixed probe
interleaved with the work, so two runs of the same code agree although
the host's speed drifts by up to 2x between them.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import FlowLevelSimulator
from repro.flowsim.sinks import make_sink

from perfbench.fingerprints import fingerprint, mismatches
from perfbench.hostclock import HostClock
from perfbench.tracing import LayerTrace
from perfbench.workloads import Workload, make_specs, set_up

#: Incremental-vs-scratch bar of the ``verify_allocator`` run.
VERIFY_BAR = 1e-9
#: Timed repeats per invocation, at least (more while time remains);
#: the figures are medians over repeats.
MIN_REPEATS = 2
MIN_TRACED_REPEATS = 2
#: Set-ups timed per repeat, apart from the runs.
SETUPS_PER_REPEAT = 2

END_TO_END = (
    ("setup_s", "s"),
    ("run_ref_s", "s"),
    ("flows_per_ref_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Run:
    result: object
    #: Wall time of ``sim.run()`` (host-clock probes included).
    run_s: float
    #: CPU time of ``sim.run()`` (host-clock probes left out).
    cpu_s: float
    build_s: float
    init_s: float
    #: ``sim.run()`` in reference seconds (only with ``clocked``).
    run_ref_s: Optional[float] = None
    #: VmHWM after the run minus VmRSS before it (only with ``track_rss``).
    rss_growth_mb: Optional[float] = None


def simulate(
    workload: Workload,
    specs,
    trace: Optional[LayerTrace] = None,
    verify: bool = False,
    track_rss: bool = False,
    clocked: bool = False,
) -> Run:
    """One run on a fresh topology and strategy; only ``sim.run()`` is
    inside the timer.  *clocked* times it in reference seconds too."""
    topo, strategy, build_s, init_s = set_up(workload)
    sink = workload.sink
    if trace is not None or clocked:
        sink = make_sink(sink)
    if trace is not None:
        trace.instrument(strategy, sink)
    clock = HostClock() if clocked else None
    if clock is not None:
        clock.hook(strategy, "route")
        clock.hook(sink, "consume")
    options = {"verify_allocator": True} if verify else {}
    sim = FlowLevelSimulator(topo, strategy, specs, sink=sink, **options)
    gc.collect()
    baseline_kb = rss_kb("VmRSS") if track_rss else None
    with trace.patched() if trace is not None else contextlib.nullcontext():
        if clock is not None:
            clock.start()
        start, cpu_start = time.perf_counter(), time.process_time()
        result = sim.run()
        run_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start
        if clock is not None:
            clock.stop()
    run = Run(result, run_s, cpu_s, build_s, init_s)
    if clock is not None:
        run.cpu_s = clock.cpu_seconds()
        run.run_ref_s = clock.reference_seconds()
    if track_rss:
        run.rss_growth_mb = (rss_kb("VmHWM") - baseline_kb) / 1024.0
    return run


def rss_kb(field_name: str) -> int:
    """A VmRSS/VmHWM field (kB) of this process, from procfs."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith(field_name + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field_name} missing from /proc/self/status")


@dataclass
class Tally:
    """Runs attempted and failed; a run fails when it raises or when
    any of its checks reports a problem."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def attempt(self, label: str, action: Callable, check: Callable):
        self.attempted += 1
        try:
            out = action()
        except Exception:  # a failed run is counted and reported, not fatal
            self.failed += 1
            self.problems.append(f"{label}: raised\n{traceback.format_exc()}")
            return None
        found = check(out)
        if found:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in found)
        return out

    @property
    def failed_share(self) -> float:
        return self.failed / max(self.attempted, 1)


class FingerprintCheck:
    """Checks every full run's fingerprint against *expected* (the
    committed one); without one, against the first full run seen."""

    def __init__(self, expected: Optional[dict]):
        self.expected = expected

    def __call__(self, run: Run) -> List[str]:
        actual = fingerprint(run.result)
        if self.expected is None:
            self.expected = actual
            return []
        return mismatches(self.expected, actual)


@dataclass
class Report:
    workload: str
    seed: int
    flows: int
    repeats: int
    tally: Tally
    end_to_end: Dict[str, float]
    per_layer: Dict[str, float]


def measure(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    expected: Optional[dict] = None,
) -> Report:
    """Measure *workload* on *seed*'s schedule for about *seconds*.

    Order: the first run in the process, untimed, doubles as the
    warm-up and the peak-memory reading (VmHWM never resets, so only a
    process's first run measures its own peak); then the
    ``verify_allocator`` run on a prefix of the schedule; then repeats
    while time remains (at least :data:`MIN_REPEATS`, or
    :data:`MIN_TRACED_REPEATS` when traced).  Each repeat is a clocked
    run and :data:`SETUPS_PER_REPEAT` clocked set-ups, followed in a
    traced invocation by a traced run.  ``setup_s`` and ``run_ref_s``
    are medians in reference seconds; ``trace.overhead`` compares the
    fastest traced run's CPU time with the fastest untraced one's.
    """
    specs = make_specs(workload, seed)
    tally = Tally()
    check = FingerprintCheck(expected)

    def check_verified(run: Run) -> List[str]:
        deviation = run.result.max_verify_deviation
        if deviation is None or deviation > VERIFY_BAR:
            return [f"allocator deviates {deviation} from scratch (bar {VERIFY_BAR})"]
        return []

    first = tally.attempt(
        "warm-up", lambda: simulate(workload, specs, track_rss=True), check
    )
    tally.attempt(
        "verify",
        lambda: simulate(workload, specs[: workload.verify_flows], verify=True),
        check_verified,
    )

    run_times: List[float] = []
    cpu_times: List[float] = []
    setup_times: List[float] = []
    fastest_traced: Optional[Tuple[LayerTrace, Run]] = None
    min_repeats = MIN_TRACED_REPEATS if traced else MIN_REPEATS
    repeats = 0
    start = time.perf_counter()
    while repeats < min_repeats or (time.perf_counter() - start) * (repeats + 1) / repeats <= seconds:
        repeats += 1
        run = tally.attempt(
            f"repeat {repeats}", lambda: simulate(workload, specs, clocked=True), check
        )
        if run is not None:
            run_times.append(run.run_ref_s)
            cpu_times.append(run.cpu_s)
        for _ in range(SETUPS_PER_REPEAT):
            setup_times.append(HostClock.time_call(set_up, workload)[1])
        if traced:
            trace = LayerTrace()

            def check_traced(out: Run) -> List[str]:
                return check(out) + trace.check(out.run_s, out.result, len(specs))

            run = tally.attempt(
                f"repeat {repeats} traced",
                lambda: simulate(workload, specs, trace=trace),
                check_traced,
            )
            if run is not None and (
                fastest_traced is None or run.run_s < fastest_traced[1].run_s
            ):
                fastest_traced = (trace, run)

    end_to_end: Dict[str, float] = {}
    if run_times and first is not None:
        run_ref_s = statistics.median(run_times)
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "run_ref_s": run_ref_s,
            "flows_per_ref_s": len(specs) / run_ref_s,
            "peak_rss_mb": first.rss_growth_mb,
        }
    per_layer: Dict[str, float] = {}
    if run_times and fastest_traced is not None:
        trace, run = fastest_traced
        overhead = run.cpu_s / min(cpu_times) - 1.0
        per_layer = trace.metrics(run.run_s, overhead, run.build_s, run.init_s)
    return Report(
        workload=workload.name,
        seed=seed,
        flows=len(specs),
        repeats=repeats,
        tally=tally,
        end_to_end=end_to_end,
        per_layer=per_layer,
    )
