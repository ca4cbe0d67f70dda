"""Rates maintained incrementally under flow churn, for both sharing
models.

E2e max-min fairness (SP, ECMP) is the classic fluid model of fair
sharing used by flow-level simulators: all unsatisfied flows grow at
the same rate; a flow stops growing when its demand is met or any
link of its (single) path saturates.  The e2e behaviour the paper
criticises falls out naturally: a flow's rate is dictated by the
*slowest link of its whole path*, and a flow bottlenecked downstream
leaves its upstream share to more fortunate flows (Fig. 3 left: rates
(2, 8) on the shared 10 Mbps link).  INRP's fill instead detours a
blocked flow's growth (:mod:`repro.flowsim.multipath`).

:class:`IncrementalMaxMin` and :class:`IncrementalInrp` re-fill only
the dirty component with the CSR kernel
(:mod:`repro.flowsim.kernel`).  Their one from-scratch oracle is
:func:`~repro.flowsim.multipath.inrp_allocation`, which with no detour
table is e2e max-min.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import SimulationError
from repro.flowsim import kernel as _kernel
from repro.flowsim.multipath import MultipathAllocation, inrp_allocation
from repro.routing.detour import DetourTable
from repro.routing.paths import Path, path_links

FlowId = Hashable
LinkId = Hashable

#: Relative bar on incremental-vs-scratch rate deviation for
#: ``verify=True``; both incremental allocators raise above it.
_VERIFY_TOL = 1e-9


class _ComponentTracker:
    """Amortized connectivity over the link-sharing relation.

    An exact search for the dirty component costs O(component
    incidence) on *every* event.  The incremental allocators instead
    select the component from a union-find over live flows (the exact
    search runs only inside the simulator's full-refill probe, over
    the class this tracker selects): an arriving flow
    unions with one representative per column it touches (all flows
    that ever shared a link are provably in one class), a departing
    flow is merely unlinked from its class's member set, and the whole
    structure is rebuilt from the live population once departures
    since the last rebuild exceed ``slack`` (a quarter) of it.  Links
    are the allocator's column ids, ``0 .. num_links - 1``.

    Between rebuilds a class may *over*-approximate the true component
    (a departed bridge flow leaves its neighbours merged).  A class is
    always a union of whole true components, and flows that share no
    link allocate independently, so re-filling a disconnected superset
    gives every member its rate to within the verify bar (relative
    1e-9), at the cost of some redundant work.  Not bit for bit: the
    fill's level and step arithmetic runs over every class filled
    together, so the last bits of a rate depend on which classes are
    filled with it.  This schedule of unions and rebuilds is therefore
    part of the output.
    """

    __slots__ = (
        "_parent",
        "_size",
        "_members",
        "_link_rep",
        "_flow_links",
        "_removed",
        "_num_links",
        "slack",
        "rebuilds",
    )

    def __init__(self, num_links: int):
        self._num_links = num_links
        self.slack = 0.25
        #: Number of full rebuilds performed (observable for tests).
        self.rebuilds = 0
        self._reset()

    def _reset(self) -> None:
        self._parent: Dict[FlowId, FlowId] = {}
        self._size: Dict[FlowId, int] = {}
        self._members: Dict[FlowId, Set[FlowId]] = {}
        # Column -> the first flow that touched it (None: no flow yet).
        self._link_rep: List[Optional[FlowId]] = [None] * self._num_links
        self._flow_links: Dict[FlowId, Iterable[int]] = {}
        self._removed = 0

    def _find(self, flow: FlowId) -> FlowId:
        parent = self._parent
        root = flow
        while parent[root] != root:
            root = parent[root]
        while parent[flow] != root:
            parent[flow], flow = root, parent[flow]
        return root

    def _union(self, a: FlowId, b: FlowId) -> None:
        root_a, root_b = self._find(a), self._find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._members[root_a].update(self._members.pop(root_b))

    def add(self, flow: FlowId, links: Iterable[int]) -> None:
        """Register an arriving flow touching column ids *links* (kept
        by reference; the caller must not mutate them afterwards)."""
        self._flow_links[flow] = links
        self._parent[flow] = flow
        self._size[flow] = 1
        self._members[flow] = {flow}
        link_rep = self._link_rep
        for link in links:
            rep = link_rep[link]
            if rep is None:
                link_rep[link] = flow
            else:
                self._union(flow, rep)

    def remove(self, flow: FlowId) -> None:
        """Unlink a departing flow; rebuild once staleness dominates."""
        del self._flow_links[flow]
        self._members[self._find(flow)].discard(flow)
        self._removed += 1
        if self._removed > max(32, int(self.slack * len(self._flow_links))):
            self._rebuild()

    def _rebuild(self) -> None:
        flow_links = self._flow_links
        self._reset()
        for flow, links in flow_links.items():
            self.add(flow, links)
        self.rebuilds += 1

    def component(self, links: Iterable[int]) -> Set[FlowId]:
        """Union of the classes reachable from *links* (a superset of
        the true dirty component, closed under live connectivity)."""
        out: Set[FlowId] = set()
        seen_roots: Set[FlowId] = set()
        link_rep = self._link_rep
        parent = self._parent
        for link in links:
            rep = link_rep[link]
            if rep is None:
                continue
            # A representative one step below its root has no path to
            # compress: read the root without the call.
            root = parent[rep]
            if parent[root] != root:
                root = self._find(rep)
            if root not in seen_roots:
                seen_roots.add(root)
                out |= self._members[root]
        return out


class _IncrementalAllocator:
    """Rates maintained incrementally under flow churn, over the
    connected components of the flow-link *reach* graph.

    Both sharing models decompose over those components: flows whose
    reaches share no link (even transitively) cannot influence each
    other's rate.  :meth:`add_flow` / :meth:`remove_flow` therefore only
    mark the flow's reach dirty, and a subclass's ``recompute(full=)``
    re-fills the dirty component alone, returning ``(rates, splits,
    switches)`` for the flows whose allocation may have changed
    (``splits`` is None for single-path sharing).

    A flow enters on its node path.  What it *reaches* is the one
    difference between the models (:meth:`_reach_of`): its path links
    under max-min, its detour closure under INRP.  Past
    :meth:`add_flow`, every link is its column id in the allocator's
    :class:`~repro.flowsim.kernel.LinkSpace`: reaches (tuples of
    distinct column ids), the dirty set and the component tracker all
    hold ints.  No link -> flows map is kept: :meth:`_dirty_component`
    sweeps the tracker's class of the dirty links instead.
    """

    #: Detour table and replacement budget of the fill; max-min has
    #: neither, so a blocked flow freezes.
    _table: Optional[DetourTable] = None
    _max_replacements = 0

    def __init__(self, capacities: Mapping[LinkId, float], verify: bool = False):
        #: Gates only the from-scratch comparison after each recompute.
        self._verify = verify
        # The one copy of the capacities.
        self._space = _kernel.LinkSpace(capacities)
        # Each flow's (deduplicated) path columns, computed once on
        # arrival for the kernel fills; component selection goes
        # through the amortized union-find tracker over reaches.
        self._cols: Dict[FlowId, np.ndarray] = {}
        self._tracker = _ComponentTracker(self._space.num_links)
        self._paths: Dict[FlowId, Path] = {}
        self._demands: Dict[FlowId, float] = {}
        #: Flow -> distinct column ids of the links it reaches (one
        #: tuple, shared with the tracker; only ever iterated).
        self._reach: Dict[FlowId, Tuple[int, ...]] = {}
        self._rates: Dict[FlowId, float] = {}
        self._dirty_links: Set[int] = set()
        self._dirty_flows: Set[FlowId] = set()
        #: Worst relative incremental-vs-scratch rate deviation seen by
        #: ``verify=True`` (0.0 until the first verified recompute).
        self.max_verify_deviation = 0.0

    def __len__(self) -> int:
        return len(self._paths)

    def __contains__(self, flow: FlowId) -> bool:
        return flow in self._paths

    @property
    def rates(self) -> Dict[FlowId, float]:
        """Current rate vector (a copy; call after ``recompute``)."""
        return dict(self._rates)

    def _reach_of(self, path: Path, cols: List[int]) -> Tuple[int, ...]:
        """Column ids of the links whose load can move the rate of a
        flow on *path* (*cols* are its distinct links' columns)."""
        raise NotImplementedError

    def add_flow(self, flow: FlowId, path: Path, demand: float) -> None:
        """Register an arriving flow on node *path*; its component
        becomes dirty."""
        if flow in self._paths:
            raise SimulationError(f"flow {flow!r} already present")
        if not demand >= 0:
            raise SimulationError(
                f"flow {flow!r} has demand {demand!r}; a demand must be a "
                "number >= 0"
            )
        path = tuple(path)
        index = self._space.index
        cols: List[int] = []
        for link in path_links(path):
            col = index.get(link)
            if col is None:
                raise SimulationError(f"flow {flow!r} uses unknown link {link!r}")
            cols.append(col)
        # The kernels count row entries, so a repeated link is dropped
        # (the scratch solver collapses it through its sets).
        if len(cols) != len(set(cols)):
            cols = list(dict.fromkeys(cols))
        reach = self._reach_of(path, cols)
        self._paths[flow] = path
        self._demands[flow] = float(demand)
        self._reach[flow] = reach
        self._dirty_links.update(reach)
        if not reach:
            # Source == destination: unconstrained, never shares a link.
            self._dirty_flows.add(flow)
        self._cols[flow] = np.array(cols, dtype=np.int64)
        if reach:
            self._tracker.add(flow, reach)

    def remove_flow(self, flow: FlowId) -> None:
        """Deregister a departing flow; its component becomes dirty."""
        if self._paths.pop(flow, None) is None:
            raise SimulationError(f"flow {flow!r} is not present")
        del self._demands[flow]
        self._rates.pop(flow, None)
        self._dirty_flows.discard(flow)
        reach = self._reach.pop(flow)
        self._dirty_links.update(reach)
        del self._cols[flow]
        if reach:
            self._tracker.remove(flow)

    def _gather(
        self, flows: Sequence[FlowId]
    ) -> Tuple[np.ndarray, List[int], List[float]]:
        """The kernel fills' ``(cols, row_lengths, demands)`` for
        *flows*, in order."""
        arrays = [self._cols[flow] for flow in flows]
        demands = self._demands
        return (
            _kernel._joined(arrays),
            [len(array) for array in arrays],
            [demands[flow] for flow in flows],
        )

    def _dirty_component(self) -> Set[FlowId]:
        """Flows transitively reachable from the dirty links via shared
        reach.

        Sweeps the tracker's class of the dirty links: a flow whose
        reach meets the links found so far joins the component and adds
        its reach to them, until a sweep adds no flow.  The class is a
        superset of the dirty component and closed under shared reach,
        so the sweeps stop at exactly that component, with no link ->
        flows map kept or built.  A sweep costs one C-level
        ``isdisjoint`` per remaining flow, and there are at most the
        component's depth plus one of them: a few on the spanning
        components where the simulator probes."""
        reaches = self._reach
        links = set(self._dirty_links)
        component: Set[FlowId] = set()
        pending = list(self._tracker.component(self._dirty_links))
        while pending:
            rest = []
            for flow in pending:
                reach = reaches[flow]
                if links.isdisjoint(reach):
                    rest.append(flow)
                else:
                    component.add(flow)
                    links.update(reach)
            if len(rest) == len(pending):
                break
            pending = rest
        return component

    def dirty_component_size(self) -> int:
        """Flows the next ``recompute`` would re-fill, without filling —
        the simulator's probe while in full-refill mode (a component
        search is far cheaper than a wasted spanning re-fill)."""
        return len(self._dirty_component()) + len(self._dirty_flows)

    def _check_against_scratch(self) -> None:
        """Re-fill the whole population from scratch with
        :func:`~repro.flowsim.multipath.inrp_allocation` (this
        allocator's detour table and budget: None and 0 under max-min)
        and fold the worst relative deviation of the current rates into
        :attr:`max_verify_deviation`; raises :class:`SimulationError`
        above :data:`_VERIFY_TOL`."""
        space = self._space
        scratch = inrp_allocation(
            dict(zip(space.links, space.capacity.tolist())),
            self._paths,
            self._demands,
            self._table,
            max_replacements=self._max_replacements,
        ).rates
        rates = self._rates
        worst = 0.0
        diverged: Optional[FlowId] = None
        for flow, rate in scratch.items():
            current = rates.get(flow)
            if current is None:
                raise SimulationError(f"flow {flow!r} missing from incremental state")
            deviation = abs(current - rate) / (1.0 + abs(rate))
            if deviation > worst:
                worst = deviation
                diverged = flow
        if worst > _VERIFY_TOL:
            raise SimulationError(
                f"incremental {type(self).__name__} rate for flow "
                f"{diverged!r} diverged: {rates[diverged]} != "
                f"{scratch[diverged]} (relative deviation {worst:.3e})"
            )
        self.max_verify_deviation = max(self.max_verify_deviation, worst)


class IncrementalMaxMin(_IncrementalAllocator):
    """Max-min fair rates maintained incrementally under flow churn.

    A flow reaches its path links.  :meth:`recompute` re-runs
    progressive filling (:func:`repro.flowsim.kernel.maxmin_fill`, the
    kernel's one round loop with no detour) on the *dirty component
    closure alone*, leaving every other flow's rate untouched.  On an
    event-driven simulation this turns the per-event cost from
    O(all flows) into O(affected component).  It stays a class of its
    own while the simulator's ``full=`` refill needs it and the
    benchmark's tracer times ``kernel.maxmin_fill`` by name.

    The returned rates are those of
    :func:`~repro.flowsim.multipath.inrp_allocation` with no detour
    table, from scratch (the test suite asserts equality on randomized
    churn sequences; ``verify=True`` re-checks after every recompute,
    for benchmarks and debugging).
    """

    def _reach_of(self, path: Path, cols: List[int]) -> Tuple[int, ...]:
        return tuple(cols)

    def recompute(
        self, full: bool = False
    ) -> Tuple[Dict[FlowId, float], None, int]:
        """Re-fill the dirty components; return ``(rates, None, 0)``.

        ``rates`` covers the flows whose rate changed since the previous
        call; flows outside it keep their previous rates.  It is empty
        when nothing is dirty.  The component comes from the union-find
        tracker and may be a superset of the true dirty component,
        which re-fills to the same rates (components allocate
        independently).  Single-path sharing has no splits and no
        detour switches.

        With ``full=True`` the whole population is re-filled in one
        pass, skipping the dirty-component search entirely, and every
        flow's rate is returned.  The simulator's adaptive fallback uses
        this when the dirty component keeps spanning the active set
        (deep overload), where the component search and subset copies
        are pure overhead.
        """
        if full:
            # Arrival order, as the paths were added.
            flows: List[FlowId] = list(self._paths)
            changed: Dict[FlowId, float] = {}
        else:
            if not self._dirty_links and not self._dirty_flows:
                return {}, None, 0
            flows = list(self._tracker.component(self._dirty_links))
            changed = (
                {flow: self._demands[flow] for flow in self._dirty_flows}
                if self._dirty_flows
                else {}
            )
        if flows:
            rates = _kernel.maxmin_fill(self._space, *self._gather(flows))
            if full:
                changed.update(zip(flows, rates))
            else:
                # Only the flows the fill actually moved: the simulator
                # loops over this mapping per event, and a dirty
                # component is mostly flows whose rate came out the
                # same as last time.  ``_rates`` holds every filled
                # flow's last rate; a new or re-added flow has none.
                last = self._rates
                for flow, rate in zip(flows, rates):
                    if last.get(flow) != rate:
                        changed[flow] = rate
        if full:
            self._rates = dict(changed)
        else:
            self._rates.update(changed)
        self._dirty_links.clear()
        self._dirty_flows.clear()
        if self._verify:
            self._check_against_scratch()
        return changed, None, 0


def detour_closure(
    path: Path, detour_table: DetourTable, rounds: int
) -> FrozenSet[LinkId]:
    """Links reachable by INRP rerouting of a flow on *path*.

    Round 0 is the primary path's links; each further round adds the
    links of every detour option around the links found so far.  With
    ``rounds = max_replacements`` this covers every link the fluid
    filling (:func:`repro.flowsim.multipath.inrp_allocation`) can ever
    *carry traffic on or read the residual of* for this flow: a link
    introduced by the k-th replacement can only be detoured while the
    replacement budget lasts, so its options are examined no deeper
    than round ``max_replacements``.

    Two flows whose closures share no link can therefore never
    influence each other's INRP allocation — the decomposition
    :class:`IncrementalInrp` is built on.  Every link is read off its
    path (the primary's and each detour option's) at the call; nothing
    is cached per path.  :class:`IncrementalInrp` keeps the result as a
    tuple of column ids.
    """
    links: Set[LinkId] = set(path_links(path))
    frontier = links
    for _ in range(max(rounds, 0)):
        grown: Set[LinkId] = set()
        for u, v in frontier:
            for option in detour_table.options(u, v):
                for link in zip(option, option[1:]):
                    if link not in links:
                        grown.add(link)
        if not grown:
            break
        links |= grown
        frontier = grown
    return frozenset(links)


class IncrementalInrp(_IncrementalAllocator):
    """INRP fluid allocation maintained incrementally under flow churn.

    Detour coupling is local, not global: a flow can only ever touch
    its primary links plus the detour options around them, so its reach
    is its *detour closure* (see :func:`detour_closure`).  INRP
    allocation therefore decomposes over connected components of the
    closure flow-link graph exactly like max-min decomposes over path
    components.  Each flow's closure is built once, on arrival, and
    kept as a tuple of distinct column ids for as long as the flow is
    live (nothing tests membership in it; it is only iterated).
    :meth:`recompute` re-runs the fluid filling over
    the dirty component alone — every other flow keeps its rate *and*
    its per-path splits.  The fill is the CSR kernel's
    :func:`~repro.flowsim.kernel.inrp_fill`.

    The rates returned are exactly those of a from-scratch
    ``inrp_allocation`` over the whole population.  ``verify=True``
    runs the same fill as production and only adds that from-scratch
    comparison after every recompute, recording the worst observed
    deviation in :attr:`max_verify_deviation`; a verified run's
    rates, splits and switch counts are those of an unverified one.

    Parameters mirror :func:`~repro.flowsim.multipath.inrp_allocation`;
    ``max_replacements`` additionally bounds the closure depth.
    """

    def __init__(
        self,
        capacities: Mapping[LinkId, float],
        detour_table: DetourTable,
        max_replacements: int = 2,
        verify: bool = False,
    ):
        super().__init__(capacities, verify)
        self._table = detour_table
        self._max_replacements = max_replacements
        #: Detour options per saturated link, shared across fills
        #: (keyed by the link's column, so the map bounds it).
        self._option_cache: Dict = {}
        #: The detour walk's per-path entries, shared across the fills
        #: of one tracker epoch (see :meth:`remove_flow`).
        self._path_cols_cache: Dict = {}
        self._order: Dict[FlowId, int] = {}
        self._next_order = 0
        #: Per-flow detour switches of the flow's latest fill.
        self._switches: Dict[FlowId, int] = {}

    def _reach_of(self, path: Path, cols: List[int]) -> Tuple[int, ...]:
        closure = detour_closure(path, self._table, self._max_replacements)
        index = self._space.index
        return tuple([index[link] for link in closure])

    def add_flow(self, flow: FlowId, path: Path, demand: float) -> None:
        super().add_flow(flow, path, demand)
        self._order[flow] = self._next_order
        self._next_order += 1

    def remove_flow(self, flow: FlowId) -> None:
        """Deregister a departing flow; a tracker rebuild it triggers
        also drops the detour walk's path entries.

        A fill makes entries only for the paths it walks: its flows'
        primaries and their splices.  The flows of one epoch between
        two rebuilds are its largest live set plus its departures, and
        more than a quarter of the live set (at least 33) departing
        ends it, so the live set bounds the entries, not the run's
        history.  Entries hold no results: dropping them changes no
        fill."""
        rebuilds = self._tracker.rebuilds
        super().remove_flow(flow)
        del self._order[flow]
        self._switches.pop(flow, None)
        if self._tracker.rebuilds != rebuilds:
            self._path_cols_cache.clear()

    def recompute(
        self, full: bool = False
    ) -> Tuple[
        Dict[FlowId, float], Dict[FlowId, List[Tuple[Path, float]]], int
    ]:
        """Re-fill the dirty component; return ``(rates, splits, switches)``.

        The two mappings cover exactly the flows whose allocation *may*
        have changed since the previous call; flows outside them keep
        their previous rates and splits.  ``switches`` counts the
        detour switches performed by this re-fill.

        ``full=True`` (the simulator's mode for spanning components)
        fills the same dirty component and returns the same mappings;
        only ``switches`` differs: it is the sum of every active flow's
        switch count from that flow's latest fill.
        INRP fills decompose over closure components, so that sum is
        exactly what a re-fill of the whole population would count.
        """
        if not self._dirty_links and not self._dirty_flows:
            return {}, {}, sum(self._switches.values()) if full else 0
        changed_rates: Dict[FlowId, float] = {}
        changed_splits: Dict[FlowId, List[Tuple[Path, float]]] = {}
        for flow in self._dirty_flows:
            changed_rates[flow] = self._demands[flow]
            # Unconstrained: it gets its demand, on its one path.
            changed_splits[flow] = [(self._paths[flow], self._demands[flow])]
        result = self._fill_kernel()
        switches = 0
        if result is not None:
            switches = result.switches
            self._switches.update(result.flow_switches)
            changed_rates.update(result.rates)
            changed_splits.update(result.splits)
        self._rates.update(changed_rates)
        self._dirty_links.clear()
        self._dirty_flows.clear()
        if self._verify:
            self._check_against_scratch()
        if full:
            switches = sum(self._switches.values())
        return changed_rates, changed_splits, switches

    def _fill_kernel(self) -> Optional[MultipathAllocation]:
        """Fill the dirty component with the CSR kernel
        (:func:`repro.flowsim.kernel.inrp_fill`); None when the
        component is empty.  The component comes from the union-find
        tracker, whose classes are unions of whole closure components
        and so fill to the same allocation (to <= 1e-9) as the exact
        component."""
        component = self._tracker.component(self._dirty_links)
        if not component:
            return None
        flows = sorted(component, key=self._order.__getitem__)
        return _kernel.inrp_fill(
            self._space,
            flows,
            [self._paths[flow] for flow in flows],
            *self._gather(flows),
            self._table,
            max_replacements=self._max_replacements,
            option_cache=self._option_cache,
            path_cols_cache=self._path_cols_cache,
        )

