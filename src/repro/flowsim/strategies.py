"""Routing/allocation strategies: SP, ECMP and INRP.

These are the three systems compared in the paper's Fig. 4a ("SP",
"ECMP", "URP" — the INRP abstraction).  A strategy decides (a) the
primary path of each flow and (b) how bandwidth is shared among the
active flows:

- **SP** — single deterministic shortest path, e2e max-min sharing;
- **ECMP** — per-flow hash over the equal-cost shortest paths, e2e
  max-min sharing;
- **INRP** — shortest primary path, INRP fluid allocation
  (:func:`repro.flowsim.multipath.inrp_allocation`): growth blocked at
  a saturated link detours around it instead of freezing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from array import array
from collections import OrderedDict
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, NoPathError, RoutingError
from repro.flowsim.allocation import (
    IncrementalInrp,
    IncrementalMaxMin,
    max_min_allocation,
)
from repro.flowsim.multipath import inrp_allocation
from repro.routing.detour import DetourTable
from repro.routing.ecmp import all_shortest_paths, ecmp_hash
from repro.routing.paths import Path, cached_path_links
# Named dijkstra because perfbench's tracer times tree builds via this global.
from repro.routing.shortest import hop_tree as dijkstra
from repro.topology.graph import Node, Topology

FlowId = Hashable


@dataclass
class AllocationOutcome:
    """Rates and per-path splits decided by a strategy."""

    rates: Dict[FlowId, float]
    splits: Dict[FlowId, List[Tuple[Path, float]]]
    #: Number of detour switches (0 for single-path strategies).
    switches: int = 0
    #: Flows that stopped growing without a detour (INRP only).
    backpressured: List[FlowId] = field(default_factory=list)


class RoutingStrategy(abc.ABC):
    """Base class caching topology-derived routing state."""

    name: str = "abstract"

    #: Byte budget for cached shortest-path trees, one int32
    #: predecessor-index array per source (~4 bytes/node instead of the
    #: ~60 bytes/node of a ``(distances, predecessors)`` dict pair).
    #: Unbounded dict trees used to saturate at >100 MB on ISP
    #: maps once a workload had sampled most sources; packed and under
    #: this budget, every source of the shipped ISP maps fits in a few
    #: MB, and on maps too large for that the LRU evicts — an eviction
    #: only costs a recompute, never changes a path.
    _TREE_CACHE_BUDGET_BYTES = 16 << 20
    #: Per-pair caches (paths, ECMP path sets) are LRU-bounded too:
    #: a uniform-pair million-flow stream touches ~every pair once, and
    #: streaming runs must not grow resident state with the flow count.
    _PATH_CACHE_SIZE = 65536

    def __init__(self, topology: Topology):
        self.topology = topology
        #: Directed (u, v) -> capacity map: forward and reverse traffic
        #: over one physical link draw from separate budgets.
        self.capacities = topology.directed_capacities()
        self._nodes = topology.nodes()
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
        self._path_cache: "OrderedDict[Tuple[Node, Node], Path]" = OrderedDict()
        self._sp_trees: "OrderedDict[Node, array]" = OrderedDict()
        self._tree_cache_size = max(
            64, self._TREE_CACHE_BUDGET_BYTES // (4 * max(len(self._nodes), 1))
        )

    def _packed_tree(self, source: Node) -> array:
        """Predecessor indices of the hop-count tree from *source*
        (-1 marks unreachable), cached per source."""
        packed = self._sp_trees.get(source)
        if packed is None:
            packed = dijkstra(self.topology, source)
            self._sp_trees[source] = packed
            if len(self._sp_trees) > self._tree_cache_size:
                self._sp_trees.popitem(last=False)
        else:
            self._sp_trees.move_to_end(source)
        return packed

    def route(self, flow_id: FlowId, source: Node, destination: Node) -> Path:
        """Primary path for a flow (deterministic, cached).

        One full shortest-path tree is cached per source and amortised
        over every destination routed from it; per the tie-break
        argument in :mod:`repro.routing.shortest` the paths are
        identical to per-pair
        :func:`~repro.routing.shortest.shortest_path` calls.
        """
        key = (source, destination)
        path = self._path_cache.get(key)
        if path is None:
            if destination not in self._node_index:
                raise RoutingError(f"unknown node: {destination!r}")
            packed = self._packed_tree(source)
            nodes = self._nodes
            cursor = self._node_index[destination]
            origin = self._node_index[source]
            if cursor != origin and packed[cursor] < 0:
                raise NoPathError(source, destination)
            reverse = [destination]
            while cursor != origin:
                cursor = packed[cursor]
                reverse.append(nodes[cursor])
            reverse.reverse()
            path = tuple(reverse)
            self._path_cache[key] = path
            if len(self._path_cache) > self._PATH_CACHE_SIZE:
                self._path_cache.popitem(last=False)
        else:
            self._path_cache.move_to_end(key)
        return path

    @abc.abstractmethod
    def allocate(
        self, flows: Mapping[FlowId, Tuple[Path, float]]
    ) -> AllocationOutcome:
        """Allocate bandwidth to flows given ``{id: (path, demand)}``."""

    def incremental_allocator(
        self, verify: bool = False, kernel: str = "scalar"
    ):
        """Fresh incremental allocator, when the sharing model admits one.

        Strategies whose allocation is plain e2e max-min over a single
        path per flow (SP, ECMP) return an
        :class:`~repro.flowsim.allocation.IncrementalMaxMin`; INRP
        returns an :class:`~repro.flowsim.allocation.IncrementalInrp`
        over its detour-closure components.  The simulator then
        recomputes only the component dirtied by each
        arrival/departure.  ``kernel="vectorized"`` selects the CSR
        filling kernel (:mod:`repro.flowsim.kernel`) inside those
        allocators.  Strategies whose coupling really is global return
        ``None`` and are recomputed in full.
        """
        return None


class ShortestPathStrategy(RoutingStrategy):
    """Single shortest path with e2e max-min fair sharing."""

    name = "SP"

    def allocate(
        self, flows: Mapping[FlowId, Tuple[Path, float]]
    ) -> AllocationOutcome:
        flow_links = {
            fid: cached_path_links(tuple(path)) for fid, (path, _) in flows.items()
        }
        demands = {fid: demand for fid, (_, demand) in flows.items()}
        rates = max_min_allocation(self.capacities, flow_links, demands)
        splits = {
            fid: [(flows[fid][0], rates[fid])] if rates[fid] > 0 else [(flows[fid][0], 0.0)]
            for fid in flows
        }
        return AllocationOutcome(rates=rates, splits=splits)

    def incremental_allocator(
        self, verify: bool = False, kernel: str = "scalar"
    ) -> Optional[IncrementalMaxMin]:
        return IncrementalMaxMin(self.capacities, verify=verify, kernel=kernel)


class EcmpStrategy(ShortestPathStrategy):
    """Per-flow ECMP over equal-cost shortest paths, then max-min."""

    name = "ECMP"

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
        two intermediate nodes.
    max_replacements:
        How many links of a sub-path may independently be replaced by
        detours before the flow gives up (enters back-pressure).
    pooling_fraction:
        Fraction of a link's directional capacity that detour traffic
        may borrow (partial resource pooling).  1.0 (default) is full
        pooling — today's behaviour; lower values reserve
        ``(1 - pooling_fraction) * capacity`` for primary-path traffic.
    """

    name = "INRP"

    def __init__(
        self,
        topology: Topology,
        detour_depth: int = 2,
        max_replacements: int = 2,
        pooling_fraction: float = 1.0,
    ):
        super().__init__(topology)
        if detour_depth < 0:
            raise ConfigurationError(f"detour_depth must be >= 0, got {detour_depth}")
        if not 0.0 <= pooling_fraction <= 1.0:
            raise ConfigurationError(
                f"pooling_fraction must be in [0, 1], got {pooling_fraction}"
            )
        self.detour_depth = detour_depth
        self.max_replacements = max_replacements if detour_depth > 0 else 0
        self.pooling_fraction = pooling_fraction
        # depth 0 still needs a table object; it simply never offers paths.
        self.detour_table = DetourTable(topology, max(detour_depth, 1))

    def allocate(
        self, flows: Mapping[FlowId, Tuple[Path, float]]
    ) -> AllocationOutcome:
        flow_paths = {fid: path for fid, (path, _) in flows.items()}
        demands = {fid: demand for fid, (_, demand) in flows.items()}
        result = inrp_allocation(
            self.capacities,
            flow_paths,
            demands,
            self.detour_table,
            max_replacements=self.max_replacements,
            pooling_fraction=self.pooling_fraction,
        )
        backpressured = [
            fid
            for fid, reason in result.freeze_reasons.items()
            if reason == "no-detour"
        ]
        return AllocationOutcome(
            rates=result.rates,
            splits=result.splits,
            switches=result.switches,
            backpressured=backpressured,
        )

    def incremental_allocator(
        self, verify: bool = False, kernel: str = "scalar"
    ) -> IncrementalInrp:
        if self.pooling_fraction < 1.0 and kernel != "scalar":
            # The CSR kernel implements full pooling only; partial
            # pooling runs on the scalar recompute path.
            kernel = "scalar"
        return IncrementalInrp(
            self.capacities,
            self.detour_table,
            max_replacements=self.max_replacements,
            verify=verify,
            kernel=kernel,
            pooling_fraction=self.pooling_fraction,
        )


_STRATEGIES = {
    "sp": ShortestPathStrategy,
    "ecmp": EcmpStrategy,
    "inrp": InrpStrategy,
    "urp": InrpStrategy,  # the label used in the paper's Fig. 4a legend
}


def make_strategy(name: str, topology: Topology, **kwargs) -> RoutingStrategy:
    """Build a strategy by name (``sp``, ``ecmp``, ``inrp``/``urp``)."""
    cls = _STRATEGIES.get(name.lower())
    if cls is None:
        known = ", ".join(sorted(_STRATEGIES))
        raise ConfigurationError(f"unknown strategy {name!r}; known: {known}")
    return cls(topology, **kwargs)
