"""Flow workloads: endpoint selection and full flow schedules.

A :class:`FlowWorkload` combines an arrival process, a size
distribution and an endpoint sampler into the schedule of
:class:`FlowSpec` records consumed by the flow-level simulator —
either lazily, one spec at a time in arrival order
(:meth:`FlowWorkload.iter_specs`, the streaming contract that keeps
million-flow runs out of memory), or materialised as a list
(:meth:`FlowWorkload.generate`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.rng import SeedLike, make_rng
from repro.topology.graph import Node, Topology
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.sizes import ExponentialSize

PairSampler = Callable[[], Tuple[Node, Node]]


@dataclass(frozen=True)
class FlowSpec:
    """One flow to inject into a simulator."""

    flow_id: int
    source: Node
    destination: Node
    arrival_time: float
    size_bits: float
    #: Access-rate cap in bits/s (the sender cannot exceed this).
    demand_bps: float

    def __post_init__(self):
        # A NaN time or size never compares past the event clock, so
        # the simulator would spin on it: reject it here, once per spec.
        # An infinite demand stays legal (an uncapped sender).
        if not (math.isfinite(self.arrival_time) and self.arrival_time >= 0):
            self._reject("arrival_time", "a finite time >= 0")
        if not (math.isfinite(self.size_bits) and self.size_bits > 0):
            self._reject("size_bits", "finite and positive")
        if not self.demand_bps >= 0:  # False for NaN too
            self._reject("demand_bps", "a number >= 0")

    def _reject(self, field_name: str, requirement: str) -> None:
        raise WorkloadError(
            f"flow {self.flow_id!r}: {field_name} must be {requirement}, "
            f"got {getattr(self, field_name)!r}"
        )


def uniform_pairs(topo: Topology, seed: SeedLike = None) -> PairSampler:
    """Sampler drawing distinct (source, destination) uniformly."""
    nodes = topo.nodes()
    if len(nodes) < 2:
        raise WorkloadError("need at least two nodes to build flows")
    rng = make_rng(seed, "uniform-pairs")

    def _sample() -> Tuple[Node, Node]:
        i = int(rng.integers(0, len(nodes)))
        j = int(rng.integers(0, len(nodes) - 1))
        if j >= i:
            j += 1
        return nodes[i], nodes[j]

    return _sample


def local_pairs(
    topo: Topology,
    seed: SeedLike = None,
    max_hops: int = 5,
    min_degree: int = 2,
) -> PairSampler:
    """Sampler for locality-weighted core-to-core demands.

    Draws a source uniformly among nodes with degree >= *min_degree*
    and a destination uniformly among core nodes within 2..*max_hops*
    hops — the intra-domain traffic-engineering picture of the paper
    (leaf/pendant nodes are access tails, not transit endpoints).
    Each source's candidate set is searched once and kept for the
    sampler's lifetime: it depends on the source alone, and the draws
    from *seed* are the same with or without the cache.
    """
    if max_hops < 2:
        raise WorkloadError(f"max_hops must be >= 2, got {max_hops}")
    adjacency = {node: topo.neighbors(node) for node in topo.nodes()}
    core = [node for node, nbrs in adjacency.items() if len(nbrs) >= min_degree]
    if len(core) < 2:
        raise WorkloadError("not enough core nodes for local pair sampling")
    core_set = set(core)
    rng = make_rng(seed, "local-pairs")

    @lru_cache(maxsize=None)
    def _candidates(source: Node) -> List[Node]:
        seen = {source: 0}
        queue = deque([source])
        found: List[Node] = []
        while queue:
            node = queue.popleft()
            hops = seen[node] + 1
            if hops > max_hops:
                continue
            for neighbour in adjacency[node]:
                if neighbour in seen:
                    continue
                seen[neighbour] = hops
                queue.append(neighbour)
                if hops >= 2 and neighbour in core_set:
                    found.append(neighbour)
        return found

    def _sample() -> Tuple[Node, Node]:
        for _ in range(100):
            source = core[int(rng.integers(0, len(core)))]
            candidates = _candidates(source)
            if candidates:
                return source, candidates[int(rng.integers(0, len(candidates)))]
        raise WorkloadError("could not find a local pair; topology too sparse")

    return _sample


class FlowWorkload:
    """Generates a reproducible schedule of flows for a topology.

    Parameters
    ----------
    arrival_rate:
        Poisson flow-arrival rate (flows/second) over the whole
        network.
    mean_size_bits:
        Mean of the exponential flow sizes.
    demand_bps:
        Per-flow access-rate cap ("senders insert more data if they
        see extra available bandwidth" — the cap is what their access
        link permits).
    """

    def __init__(
        self,
        topo: Topology,
        arrival_rate: float,
        mean_size_bits: float,
        demand_bps: float,
        seed: SeedLike = 0,
        pair_sampler: Optional[PairSampler] = None,
    ):
        if demand_bps <= 0:
            raise WorkloadError(f"demand must be positive, got {demand_bps}")
        self.topology = topo
        base = make_rng(seed, "flow-workload")
        self._arrivals = PoissonArrivals(arrival_rate, base)
        self._sizes = ExponentialSize(mean_size_bits, base)
        self._pairs = pair_sampler or uniform_pairs(topo, base)
        self.demand_bps = float(demand_bps)

    def iter_specs(
        self,
        horizon: Optional[float] = None,
        max_flows: Optional[int] = None,
    ) -> Iterator[FlowSpec]:
        """Yield the flow schedule lazily, in arrival order.

        This is the streaming contract: one :class:`FlowSpec` exists
        at a time, so the schedule's memory footprint is O(1) no
        matter how many flows the horizon or *max_flows* admits.  The
        sequence is fully determined by the workload's seed — two
        iterators from identically-constructed workloads yield
        identical specs.
        """
        for flow_id, arrival in enumerate(
            self._arrivals.times(horizon=horizon, max_events=max_flows)
        ):
            source, destination = self._pairs()
            yield FlowSpec(
                flow_id=flow_id,
                source=source,
                destination=destination,
                arrival_time=arrival,
                size_bits=self._sizes.sample(),
                demand_bps=self.demand_bps,
            )

    def generate(
        self,
        horizon: Optional[float] = None,
        max_flows: Optional[int] = None,
    ) -> List[FlowSpec]:
        """Materialise the flow schedule (sorted by arrival time)."""
        return list(self.iter_specs(horizon=horizon, max_flows=max_flows))
