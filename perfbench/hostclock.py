"""Host-speed-corrected timing: reference seconds.

On a shared host the speed of the benchmark's CPU drifts, often by 2x
for seconds or minutes at a time, when a neighbour on the same physical
core wakes up.  The guest cannot see this: CPU time slows down exactly
as much as wall time.  So the benchmark times the simulator against a
fixed probe computation interleaved with it:

- a :class:`HostClock` runs the probe when a timed section starts, again
  every :data:`PROBE_EVERY_S` of CPU time inside it (from hooks on the
  strategy's ``route`` and the sink's ``consume``, i.e. between events),
  and once more when the section ends;
- each stretch of simulator CPU time between two probes is divided by
  the mean of those two probes' CPU times and multiplied by
  :data:`PROBE_NOMINAL_S`.

The sum is the section's time in *reference seconds*: its CPU time on a
host that runs the probe in :data:`PROBE_NOMINAL_S` (about what an idle
core of a 2-vCPU Xeon VM takes).  Probe time itself is left out.  The
probe is plain interpreter work plus small numpy reductions, the same
mix the simulator runs, and it allocates no garbage-collected
containers, so it does not shift the simulator's collections.
"""

from __future__ import annotations

import random
import time
from typing import List

import numpy as np

#: The probe's CPU time on the nominal host (the unit of reference seconds).
PROBE_NOMINAL_S = 1.2e-3
#: Simulator CPU time between two probes.
PROBE_EVERY_S = 0.03

_clock = time.process_time


def _probe_inputs():
    rng = random.Random(7)
    nodes = 200
    edges = []
    for u in range(nodes):
        for v in rng.sample(range(nodes), 3):
            weight = rng.uniform(1.0, 9.0)
            edges += [(u, v, weight), (v, u, weight)]
    np_rng = np.random.default_rng(7)
    cols = np_rng.integers(0, 300, size=1200)
    caps = np_rng.uniform(1.0, 9.0, size=300)
    return nodes, edges, cols, caps


_NODES, _EDGES, _COLS, _CAPS = _probe_inputs()


def probe() -> float:
    """Fixed work: Bellman-Ford passes over a small graph, then a
    water-filling loop of numpy reductions.  Returns a checksum."""
    dist = [float("inf")] * _NODES
    dist[0] = 0.0
    for _ in range(12):
        for u, v, weight in _EDGES:
            candidate = dist[u] + weight
            if candidate < dist[v]:
                dist[v] = candidate
    headroom = _CAPS.copy()
    for _ in range(60):
        counts = np.bincount(_COLS, minlength=len(_CAPS))
        share = headroom / np.maximum(counts, 1)
        headroom -= share.min() * counts
    return dist[-1] + float(headroom.sum())


class HostClock:
    """Times one section in reference seconds; see the module docstring."""

    def __init__(self) -> None:
        #: Section CPU time between consecutive probes.
        self.stretches: List[float] = []
        #: CPU time of each probe, one more than :attr:`stretches`.
        self.probes: List[float] = []
        #: Wall time of all probes together.
        self.probe_wall_s = 0.0
        self._mark = 0.0

    def _probe(self) -> float:
        wall = time.perf_counter()
        start = _clock()
        probe()
        end = _clock()
        self.probe_wall_s += time.perf_counter() - wall
        self.probes.append(end - start)
        return end

    def start(self) -> None:
        self._mark = self._probe()

    def tick(self) -> None:
        """Probe when the section has run :data:`PROBE_EVERY_S` since the last."""
        now = _clock()
        if now - self._mark >= PROBE_EVERY_S:
            self.stretches.append(now - self._mark)
            self._mark = self._probe()

    def stop(self) -> None:
        self.stretches.append(_clock() - self._mark)
        self._probe()

    def cpu_seconds(self) -> float:
        """The section's own CPU time, probes left out."""
        return sum(self.stretches)

    def reference_seconds(self) -> float:
        probes = self.probes
        return PROBE_NOMINAL_S * sum(
            stretch * 2.0 / (probes[i] + probes[i + 1])
            for i, stretch in enumerate(self.stretches)
        )

    def hook(self, obj, name: str) -> None:
        """Make ``obj.name`` tick the clock before each call."""
        inner, tick = getattr(obj, name), self.tick

        def ticking(*args, **kwargs):
            tick()
            return inner(*args, **kwargs)

        setattr(obj, name, ticking)

    @classmethod
    def time_call(cls, function, *args):
        """Run ``function(*args)`` between two probes; returns
        ``(result, reference_seconds)``."""
        clock = cls()
        clock.start()
        out = function(*args)
        clock.stop()
        return out, clock.reference_seconds()
