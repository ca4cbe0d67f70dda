"""Routing/allocation strategies: SP, ECMP and INRP.

These are the three systems compared in the paper's Fig. 4a, named
``sp``, ``ecmp`` and ``inrp`` at every entry point (the paper's legend
calls INRP "URP").  A strategy decides (a) the primary path of each
flow and (b) how bandwidth is shared among the active flows:

- **SP** — single deterministic shortest path, e2e max-min sharing;
- **ECMP** — per-flow hash over the equal-cost shortest paths, e2e
  max-min sharing;
- **INRP** — shortest primary path, INRP fluid allocation
  (:func:`repro.flowsim.kernel.inrp_fill`): growth blocked at a
  saturated link detours around it instead of freezing.

Every strategy allocates through its incremental allocator, the one
the simulator runs: :meth:`RoutingStrategy.allocate` adds the flows to
a fresh one and unpacks the ``(rates, splits | None, switches)`` of a
single recompute.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from array import array
from collections import OrderedDict
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, NoPathError, RoutingError
from repro.flowsim.allocation import IncrementalInrp, IncrementalMaxMin
from repro.flowsim.multipath import _rel_tol
from repro.routing.detour import DetourTable
from repro.routing.ecmp import all_shortest_paths, ecmp_hash
from repro.routing.paths import Path
# Named dijkstra because perfbench's tracer times tree builds via this global.
from repro.routing.shortest import hop_tree as dijkstra
from repro.routing.shortest import tree_typecode
from repro.topology.graph import Node, Topology

FlowId = Hashable


@dataclass
class AllocationOutcome:
    """Rates and per-path splits decided by a strategy."""

    rates: Dict[FlowId, float]
    splits: Dict[FlowId, List[Tuple[Path, float]]]
    #: Number of detour switches (0 for single-path strategies).
    switches: int = 0
    #: Flows that stopped growing without a detour (INRP only): those
    #: left short of their demand by more than ``_rel_tol(rate)``.
    #: That is exactly the fill's ``"no-detour"`` set: each round of
    #: :func:`~repro.flowsim.kernel.inrp_fill` first freezes every flow
    #: whose demand is within that tolerance of the level, so only
    #: flows still above it can freeze for want of a detour.
    backpressured: List[FlowId] = field(default_factory=list)


class RoutingStrategy(abc.ABC):
    """Base class caching topology-derived routing state."""

    name: str = "abstract"
    #: ``None`` on strategies that never detour (SP, ECMP).
    detour_depth: Optional[int] = None

    #: Byte budget for cached shortest-path trees, one predecessor-index
    #: array per source (2 bytes/node as int16 on maps of at most 32,768
    #: nodes, 4 as int32 beyond, instead of the ~60 bytes/node of a
    #: ``(distances, predecessors)`` dict pair).
    #: A cached tree may be searched only to the level of the farthest
    #: destination routed from its source so far; it is still one
    #: full-length array.  Unbounded dict trees used to saturate at
    #: >100 MB on ISP maps once a workload had sampled most sources;
    #: packed and under this budget, every source of the shipped ISP
    #: maps fits in a few MB, and on maps too large for that the LRU
    #: evicts — an eviction only costs a new search, never changes a
    #: path.
    _TREE_CACHE_BUDGET_BYTES = 16 << 20

    def __init__(self, topology: Topology):
        self.topology = topology
        #: Directed (u, v) -> capacity map: forward and reverse traffic
        #: over one physical link draw from separate budgets.
        self.capacities = topology.directed_capacities()
        self._nodes = topology.nodes()
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
        self._sp_trees: "OrderedDict[Node, array]" = OrderedDict()
        itemsize = array(tree_typecode(len(self._nodes))).itemsize
        self._tree_cache_size = max(
            64,
            self._TREE_CACHE_BUDGET_BYTES // (itemsize * max(len(self._nodes), 1)),
        )

    def _packed_tree(self, source: Node, target: int) -> array:
        """Predecessor indices of the hop-count tree from *source*,
        searched at least to the level of node index *target* (-1 marks
        *source* and the nodes not reached), cached per source.

        A cached tree that has not reached *target* is searched again,
        this time to *target*'s level, and replaces the entry.
        """
        trees = self._sp_trees
        packed = trees.get(source)
        if packed is None or packed[target] < 0:
            packed = dijkstra(self.topology, source, self._nodes[target])
            trees[source] = packed
            if len(trees) > self._tree_cache_size:
                trees.popitem(last=False)
        trees.move_to_end(source)
        return packed

    def route(self, flow_id: FlowId, source: Node, destination: Node) -> Path:
        """Primary path for a flow (deterministic), walked back from
        *destination* through the source's tree on every call.

        No path is cached; one shortest-path tree is cached per source
        and amortised over every destination routed from it.  It is
        searched only as far as the deepest of those destinations needs
        (see :func:`~repro.routing.shortest.hop_tree`), so a
        locality-bounded workload pays for each source's neighbourhood,
        not the whole map.  Per the tie-break argument in
        :mod:`repro.routing.shortest` the paths are identical to
        per-pair :func:`~repro.routing.shortest.shortest_path` calls.
        """
        index = self._node_index
        for node in (destination, source):
            if node not in index:
                raise RoutingError(f"unknown node: {node!r}")
        nodes = self._nodes
        cursor = index[destination]
        origin = index[source]
        reverse = [destination]
        if cursor != origin:
            packed = self._packed_tree(source, cursor)
            if packed[cursor] < 0:
                raise NoPathError(source, destination)
            while cursor != origin:
                cursor = packed[cursor]
                reverse.append(nodes[cursor])
        reverse.reverse()
        return tuple(reverse)

    def allocate(
        self, flows: Mapping[FlowId, Tuple[Path, float]]
    ) -> AllocationOutcome:
        """Allocate bandwidth to flows given ``{id: (path, demand)}``.

        One fill of a fresh :meth:`incremental_allocator`, the fill the
        simulator runs.  Flows are added in the mapping's order (INRP
        fills depend on it), and the outcome is keyed in that order.
        A first recompute reports every flow: a max-min recompute
        reports each flow whose rate differs from its last one, and a
        flow new to the allocator has none; a fresh INRP component
        covers the whole population.
        """
        allocator = self.incremental_allocator()
        for fid, (path, demand) in flows.items():
            allocator.add_flow(fid, path, demand)
        rates, splits, switches = allocator.recompute()
        rates = {fid: rates[fid] for fid in flows}
        if splits is None:  # single path: SP and ECMP
            return AllocationOutcome(
                rates=rates,
                splits={fid: [(flows[fid][0], rates[fid])] for fid in flows},
            )
        return AllocationOutcome(
            rates=rates,
            splits={fid: splits[fid] for fid in flows},
            switches=switches,
            backpressured=[
                fid
                for fid, (_, demand) in flows.items()
                if demand - rates[fid] > _rel_tol(rates[fid])
            ],
        )

    @abc.abstractmethod
    def incremental_allocator(self, verify: bool = False):
        """Fresh incremental allocator for the event-driven simulator.

        Strategies whose allocation is plain e2e max-min over a single
        path per flow (SP, ECMP) return an
        :class:`~repro.flowsim.allocation.IncrementalMaxMin`; INRP
        returns an :class:`~repro.flowsim.allocation.IncrementalInrp`
        over its detour-closure components.  The simulator then
        recomputes only the component dirtied by each
        arrival/departure.  ``verify=True`` re-checks every recompute
        against the from-scratch solver.
        """


class ShortestPathStrategy(RoutingStrategy):
    """Single shortest path with e2e max-min fair sharing."""

    name = "SP"

    def incremental_allocator(self, verify: bool = False) -> IncrementalMaxMin:
        return IncrementalMaxMin(self.capacities, verify=verify)


class EcmpStrategy(ShortestPathStrategy):
    """Per-flow ECMP over equal-cost shortest paths, then max-min."""

    name = "ECMP"

    #: Pair -> path-set LRU bound.  A path set costs a search per pair,
    #: so it is cached (an SP path is one tree walk, and is not); the
    #: bound keeps a uniform-pair stream's state flat in the flow count.
    _PATH_CACHE_SIZE = 65536

    def __init__(self, topology: Topology):
        super().__init__(topology)
        self._ecmp_cache: "OrderedDict[Tuple[Node, Node], List[Path]]" = (
            OrderedDict()
        )

    def route(self, flow_id: FlowId, source: Node, destination: Node) -> Path:
        key = (source, destination)
        paths = self._ecmp_cache.get(key)
        if paths is None:
            paths = all_shortest_paths(self.topology, source, destination)
            self._ecmp_cache[key] = paths
            if len(self._ecmp_cache) > self._PATH_CACHE_SIZE:
                self._ecmp_cache.popitem(last=False)
        else:
            self._ecmp_cache.move_to_end(key)
        return paths[ecmp_hash(flow_id, len(paths))]


class InrpStrategy(RoutingStrategy):
    """The paper's INRP abstraction (push + detour at the flow level).

    Parameters
    ----------
    detour_depth:
        ``max_intermediate`` of the detour table.  The default 2
        matches the paper's simulator: "routers exploit up to 1-hop
        detours and nodes on the detour path can further detour, but
        for one extra hop only" — i.e. composite detours through up to
        two intermediate nodes.  At depth 0 no link may be replaced,
        so INRP degenerates to SP, the zero-pooling end of one model.
    """

    name = "INRP"
    detour_depth: int = 2

    #: How many links of a sub-path may independently be replaced by
    #: detours before the flow gives up (enters back-pressure).
    _MAX_REPLACEMENTS = 2

    def __init__(self, topology: Topology, detour_depth: int = detour_depth):
        super().__init__(topology)
        if detour_depth < 0:
            raise ConfigurationError(f"detour_depth must be >= 0, got {detour_depth}")
        self.detour_depth = detour_depth
        self.max_replacements = self._MAX_REPLACEMENTS if detour_depth > 0 else 0
        # depth 0 still needs a table object; it simply never offers paths.
        self.detour_table = DetourTable(topology, max(detour_depth, 1))

    def incremental_allocator(self, verify: bool = False) -> IncrementalInrp:
        return IncrementalInrp(
            self.capacities,
            self.detour_table,
            max_replacements=self.max_replacements,
            verify=verify,
        )


_STRATEGIES = {
    "sp": ShortestPathStrategy,
    "ecmp": EcmpStrategy,
    "inrp": InrpStrategy,
}


def make_strategy(
    name: str, topology: Topology, detour_depth: Optional[int] = None
) -> RoutingStrategy:
    """Build ``sp``, ``ecmp`` or ``inrp`` (no other spelling).  Only a
    strategy that detours takes *detour_depth* (``None``: its default)."""
    cls = _STRATEGIES.get(name)
    if cls is None:
        known = ", ".join(sorted(_STRATEGIES))
        raise ConfigurationError(f"unknown strategy {name!r}; known: {known}")
    if cls.detour_depth is None or detour_depth is None:
        return cls(topology)
    return cls(topology, detour_depth)
