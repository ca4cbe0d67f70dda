"""The benchmark's workloads and the two steps every run shares:
generating the flow schedule from a seed, and setting up the
topology and strategy the simulator runs on.

Each workload is the operating point of a campaign cell or bench
point, sized so that the layer the workload exists for leads its run
time: cold routing trees on ``sp-stream``, the kernel fill on both
INRP workloads.  The seed picks the traffic (arrivals, sizes, endpoint
pairs); the ISP map itself is always built with seed 0, as the
campaigns do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro import FlowWorkload, build_isp_topology, make_strategy
from repro.units import mbps
from repro.workloads import FlowSpec, local_pairs, uniform_pairs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    isp: str
    strategy: str
    #: ``"local"`` (core pairs within ``max_hops``) or ``"uniform"``.
    pairs: str
    max_hops: Optional[int]
    arrival_rate: float
    mean_size_mbit: float
    #: Result sink passed to the simulator (None: materializing default).
    sink: Optional[str]
    #: Flows per simulated run.
    flows: int
    #: Flows of the schedule's prefix re-checked with ``verify_allocator``.
    verify_flows: int
    demand_mbps: float = 10.0


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="sp-stream",
            why=(
                "load-sweep-xl cell: SP on sprint, local pairs, streaming "
                "sink; cold routing trees dominate, the INRP walk never runs"
            ),
            isp="sprint",
            strategy="sp",
            pairs="local",
            max_hops=4,
            arrival_rate=1500.0,
            mean_size_mbit=0.25,
            sink="streaming",
            flows=3_000,
            verify_flows=400,
        ),
        Workload(
            name="inrp-local",
            why=(
                "inrp-load-sweep-large cell: INRP below saturation on "
                "sprint; kernel fill and detour walk lead, DetourTable set-up"
            ),
            isp="sprint",
            strategy="inrp",
            pairs="local",
            max_hops=3,
            arrival_rate=800.0,
            mean_size_mbit=2.5,
            sink=None,
            flows=1_000,
            verify_flows=150,
        ),
        Workload(
            name="inrp-overload",
            why=(
                "INRP deep overload on exodus, uniform pairs: spanning "
                "components and full refills; routing should not matter"
            ),
            isp="exodus",
            strategy="inrp",
            pairs="uniform",
            max_hops=None,
            arrival_rate=400.0,
            mean_size_mbit=4.0,
            sink=None,
            flows=350,
            verify_flows=80,
        ),
    )
}


def make_specs(workload: Workload, seed: int) -> List[FlowSpec]:
    """The flow schedule of *seed*.  Same seed, same list."""
    topo = build_isp_topology(workload.isp, seed=0)
    if workload.pairs == "local":
        sampler = local_pairs(topo, seed=seed + 1, max_hops=workload.max_hops)
    else:
        sampler = uniform_pairs(topo, seed=seed + 1)
    generator = FlowWorkload(
        topo,
        arrival_rate=workload.arrival_rate,
        mean_size_bits=workload.mean_size_mbit * 1e6,
        demand_bps=mbps(workload.demand_mbps),
        seed=seed,
        pair_sampler=sampler,
    )
    return generator.generate(max_flows=workload.flows)


def set_up(workload: Workload):
    """A fresh topology and strategy, as every campaign cell builds
    them; returns ``(topology, strategy, build_s, init_s)``."""
    start = time.perf_counter()
    topo = build_isp_topology(workload.isp, seed=0)
    built = time.perf_counter()
    strategy = make_strategy(workload.strategy, topo)
    done = time.perf_counter()
    return topo, strategy, built - start, done - built
