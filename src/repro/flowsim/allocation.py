"""Exact max-min fair allocation by progressive filling.

This is the classic fluid model of fair sharing used by flow-level
simulators: all unsatisfied flows grow at the same rate; a flow stops
growing when its demand is met or any link of its (single) path
saturates.  The implementation is event-driven (piecewise-linear in
the common fill level), so it is exact rather than epsilon-stepped.

The e2e behaviour the paper criticises falls out naturally: a flow's
rate is dictated by the *slowest link of its whole path*, and a flow
bottlenecked downstream leaves its upstream share to more fortunate
flows (Fig. 3 left: rates (2, 8) on the shared 10 Mbps link).
"""

from __future__ import annotations

import math
from typing import (
    Collection,
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

from repro.errors import SimulationError
from repro.flowsim import kernel as _kernel
from repro.flowsim.multipath import MultipathAllocation, _rel_tol, inrp_allocation
from repro.routing.detour import DetourTable
from repro.routing.paths import Path, cached_path_links

FlowId = Hashable
LinkId = Hashable

_EPS = 1e-9

#: Relative bar on incremental-vs-scratch rate deviation for
#: ``verify=True``; both incremental allocators raise above it.
_VERIFY_TOL = 1e-9


def max_min_allocation(
    capacities: Mapping[LinkId, float],
    flow_links: Mapping[FlowId, Sequence[LinkId]],
    demands: Mapping[FlowId, float],
) -> Dict[FlowId, float]:
    """Max-min fair rates for single-path flows with demand caps.

    The from-scratch oracle: ``verify=True`` and the tests; production
    fills run :mod:`repro.flowsim.kernel`.

    Parameters
    ----------
    capacities:
        Link capacity in bits/s per link id.
    flow_links:
        For every flow, the links its path traverses.  A flow with an
        empty link list (source == destination) gets its full demand.
    demands:
        Per-flow rate cap in bits/s (access-link limit).

    Returns
    -------
    rates:
        Max-min fair allocation; verified in the test suite with
        :func:`repro.metrics.fairness.max_min_violations`.
    """
    for flow in flow_links:
        if flow not in demands:
            raise SimulationError(f"flow {flow!r} has no demand")
        if demands[flow] < 0:
            raise SimulationError(f"flow {flow!r} has negative demand")

    rates: Dict[FlowId, float] = {}
    unfrozen: Set[FlowId] = set()
    for flow, links in flow_links.items():
        if not links or demands[flow] <= _EPS:
            rates[flow] = demands[flow]
        else:
            unfrozen.add(flow)

    link_members: Dict[LinkId, Set[FlowId]] = {}
    for flow in unfrozen:
        for link in flow_links[flow]:
            if link not in capacities:
                raise SimulationError(f"flow {flow!r} uses unknown link {link!r}")
            link_members.setdefault(link, set()).add(flow)

    residual: Dict[LinkId, float] = {
        link: float(capacities[link]) for link in link_members
    }
    level = 0.0  # common rate of all unfrozen flows

    while unfrozen:
        # Next demand event: the smallest unmet demand among growers.
        demand_step = min(demands[flow] - level for flow in unfrozen)
        # Next saturation event over links still carrying growers.  The
        # links attaining the minimum are recorded and frozen explicitly,
        # which keeps the algorithm robust at bits/s magnitudes where
        # absolute epsilons are meaningless.
        saturation_step = math.inf
        saturating: List[LinkId] = []
        for link, members in link_members.items():
            growers = len(members)
            if growers == 0:
                continue
            step = residual[link] / growers
            if step < saturation_step - _rel_tol(saturation_step):
                saturation_step = step
                saturating = [link]
            elif step <= saturation_step + _rel_tol(saturation_step):
                saturating.append(link)
        step = min(demand_step, saturation_step)
        if step < -_rel_tol(level):
            raise SimulationError("negative fill step; inconsistent state")
        step = max(step, 0.0)
        level += step
        for link, members in link_members.items():
            residual[link] -= step * len(members)

        frozen_now: List[FlowId] = []
        for flow in unfrozen:
            if demands[flow] - level <= _rel_tol(level):
                frozen_now.append(flow)
        if saturation_step <= demand_step + _rel_tol(demand_step):
            for link in saturating:
                residual[link] = 0.0
                frozen_now.extend(link_members[link])
        if not frozen_now:
            raise SimulationError("progressive filling made no progress")
        for flow in set(frozen_now):
            rates[flow] = min(level, demands[flow])
            unfrozen.discard(flow)
            for link in flow_links[flow]:
                members = link_members.get(link)
                if members is not None:
                    members.discard(flow)
    return rates


class _ComponentTracker:
    """Amortized connectivity over the link-sharing relation.

    A per-event BFS over the link-membership dicts finds the exact dirty
    component, but costs O(component incidence) of Python dict traffic
    on *every* event.  The incremental allocators instead select the
    component from a union-find over live flows: an arriving flow
    unions with one representative per link it touches (all flows that
    ever shared a link are provably in one class), a departing flow is
    merely unlinked from its class's member set, and the whole structure
    is rebuilt from the live population once departures since the last
    rebuild exceed ``slack`` (a quarter) of it.

    Between rebuilds a class may *over*-approximate the true component
    (a departed bridge flow leaves its neighbours merged).  That is
    exact by construction: a class is always a union of whole true
    components, and progressive filling decomposes over components —
    flows that share no link allocate independently, so re-filling a
    disconnected superset reproduces every member's rate bit-for-bit,
    at the cost of some redundant (never wrong) work.
    """

    __slots__ = (
        "_parent",
        "_size",
        "_members",
        "_link_rep",
        "_flow_links",
        "_removed",
        "slack",
        "rebuilds",
    )

    def __init__(self):
        self.slack = 0.25
        #: Number of full rebuilds performed (observable for tests).
        self.rebuilds = 0
        self._reset()

    def _reset(self) -> None:
        self._parent: Dict[FlowId, FlowId] = {}
        self._size: Dict[FlowId, int] = {}
        self._members: Dict[FlowId, Set[FlowId]] = {}
        self._link_rep: Dict[LinkId, FlowId] = {}
        self._flow_links: Dict[FlowId, Iterable[LinkId]] = {}
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

    def add(self, flow: FlowId, links: Iterable[LinkId]) -> None:
        """Register an arriving flow touching *links* (kept by
        reference; the caller must not mutate them afterwards)."""
        self._flow_links[flow] = links
        self._parent[flow] = flow
        self._size[flow] = 1
        self._members[flow] = {flow}
        link_rep = self._link_rep
        for link in links:
            rep = link_rep.get(link)
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

    def component(self, links: Iterable[LinkId]) -> Set[FlowId]:
        """Union of the classes reachable from *links* (a superset of
        the true dirty component, closed under live connectivity)."""
        out: Set[FlowId] = set()
        seen_roots: Set[FlowId] = set()
        link_rep = self._link_rep
        for link in links:
            rep = link_rep.get(link)
            if rep is None:
                continue
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
    under max-min, its detour closure under INRP.
    """

    def __init__(self, capacities: Mapping[LinkId, float], verify: bool = False):
        self._capacities: Dict[LinkId, float] = {
            link: float(capacity) for link, capacity in capacities.items()
        }
        #: Gates only the from-scratch comparison after each recompute.
        self._verify = verify
        self._space = _kernel.LinkSpace(self._capacities)
        # Each flow's (deduplicated) path columns and demand, for the
        # kernel fill's bulk gather; component selection goes through
        # the amortized union-find tracker over reaches.
        self._store = _kernel.IncidenceStore(self._space)
        self._tracker = _ComponentTracker()
        self._paths: Dict[FlowId, Path] = {}
        self._demands: Dict[FlowId, float] = {}
        self._reach: Dict[FlowId, Collection[LinkId]] = {}
        #: Link -> flows reaching it; only the simulator's full-refill
        #: :meth:`dirty_component_size` probe reads it.
        self._members: Dict[LinkId, Set[FlowId]] = {}
        self._rates: Dict[FlowId, float] = {}
        self._dirty_links: Set[LinkId] = set()
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

    def _reach_of(
        self, path: Path, links: Tuple[LinkId, ...]
    ) -> Collection[LinkId]:
        """Links whose load can move the rate of a flow on *path*
        (*links* are its distinct directed links)."""
        raise NotImplementedError

    def add_flow(self, flow: FlowId, path: Path, demand: float) -> None:
        """Register an arriving flow on node *path*; its component
        becomes dirty."""
        if flow in self._paths:
            raise SimulationError(f"flow {flow!r} already present")
        if demand < 0:
            raise SimulationError(f"flow {flow!r} has negative demand")
        path = tuple(path)
        links = cached_path_links(path)
        for link in links:
            if link not in self._capacities:
                raise SimulationError(f"flow {flow!r} uses unknown link {link!r}")
        # The kernels count row entries, so a repeated link is dropped
        # (the scratch solvers collapse it through their sets).
        if len(links) != len(set(links)):
            links = tuple(dict.fromkeys(links))
        reach = self._reach_of(path, links)
        self._paths[flow] = path
        self._demands[flow] = float(demand)
        self._reach[flow] = reach
        for link in reach:
            self._members.setdefault(link, set()).add(flow)
            self._dirty_links.add(link)
        if not reach:
            # Source == destination: unconstrained, never shares a link.
            self._dirty_flows.add(flow)
        self._store.add(flow, self._space.columns(links), float(demand))
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
        for link in reach:
            members = self._members.get(link)
            if members is not None:
                members.discard(flow)
                if not members:
                    del self._members[link]
            self._dirty_links.add(link)
        self._store.remove(flow)
        if reach:
            self._tracker.remove(flow)

    def _dirty_component(self) -> Set[FlowId]:
        """Flows transitively reachable from the dirty links via
        shared-reach membership."""
        members = self._members
        reaches = self._reach
        component: Set[FlowId] = set()
        add_flow = component.add
        stack: List[LinkId] = [
            link for link in self._dirty_links if link in members
        ]
        seen_links: Set[LinkId] = set(stack)
        seen = seen_links.add
        push = stack.append
        while stack:
            link = stack.pop()
            for flow in members[link]:
                if flow in component:
                    continue
                add_flow(flow)
                for other in reaches[flow]:
                    if other not in seen_links:
                        seen(other)
                        push(other)
        return component

    def dirty_component_size(self) -> int:
        """Flows the next ``recompute`` would re-fill, without filling —
        the simulator's probe while in full-refill mode (a BFS is far
        cheaper than a wasted spanning re-fill)."""
        return len(self._dirty_component()) + len(self._dirty_flows)

    def _verify_rates(self, scratch: Mapping[FlowId, float], what: str) -> None:
        """Fold the worst relative deviation of the current rates from
        *scratch* into :attr:`max_verify_deviation`; raises
        :class:`SimulationError` above :data:`_VERIFY_TOL`."""
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
                f"incremental {what} rate for flow {diverged!r} diverged: "
                f"{rates[diverged]} != {scratch[diverged]} "
                f"(relative deviation {worst:.3e})"
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

    The returned rates are those of :func:`max_min_allocation` from
    scratch (the test suite asserts equality on randomized churn
    sequences; ``verify=True`` re-checks after every recompute, for
    benchmarks and debugging).
    """

    def _reach_of(
        self, path: Path, links: Tuple[LinkId, ...]
    ) -> Tuple[LinkId, ...]:
        return links

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
        store = self._store
        if full:
            flows: List[FlowId] = store.live_flows()
            changed: Dict[FlowId, float] = {}
        else:
            if not self._dirty_links and not self._dirty_flows:
                return {}, None, 0
            flows = list(self._tracker.component(self._dirty_links))
            changed = {
                flow: self._demands[flow] for flow in self._dirty_flows
            }
        if flows:
            cols, lengths, demands, rows = store.gather(flows, with_rows=True)
            rates = _kernel.maxmin_fill(self._space, cols, lengths, demands)
            diff = store.diff_and_store_rates(rows, rates)
            if full:
                changed.update(zip(flows, rates.tolist()))
            else:
                # Only the rows the fill actually moved: the simulator
                # loops over this mapping per event, and a dirty
                # component is mostly rows whose rate came out the
                # same as last time.
                for spot in diff.tolist():
                    changed[flows[spot]] = float(rates[spot])
        if full:
            self._rates = dict(changed)
        else:
            self._rates.update(changed)
        self._dirty_links.clear()
        self._dirty_flows.clear()
        if self._verify:
            self._check_against_scratch()
        return changed, None, 0

    def _check_against_scratch(self) -> None:
        scratch = max_min_allocation(self._capacities, self._reach, self._demands)
        self._verify_rates(scratch, "max-min")


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
    :class:`IncrementalInrp` is built on.
    """
    links: Set[LinkId] = set(cached_path_links(tuple(path)))
    frontier = links
    for _ in range(max(rounds, 0)):
        grown: Set[LinkId] = set()
        for u, v in frontier:
            for option in detour_table.options(u, v):
                for link in cached_path_links(tuple(option)):
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
    components, and :meth:`recompute` re-runs the fluid filling over
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
        #: Per-(u, v) detour options, shared across fills.
        self._option_cache: Dict = {}
        #: Per-path global columns and splice memo, shared across fills.
        self._path_cols_cache: Dict = {}
        self._closure_cache: Dict[Path, FrozenSet[LinkId]] = {}
        self._order: Dict[FlowId, int] = {}
        self._next_order = 0
        #: Per-flow detour switches of the flow's latest fill.
        self._switches: Dict[FlowId, int] = {}

    def _reach_of(
        self, path: Path, links: Tuple[LinkId, ...]
    ) -> FrozenSet[LinkId]:
        closure = self._closure_cache.get(path)
        if closure is None:
            closure = detour_closure(path, self._table, self._max_replacements)
            self._closure_cache[path] = closure
        return closure

    def add_flow(self, flow: FlowId, path: Path, demand: float) -> None:
        super().add_flow(flow, path, demand)
        self._order[flow] = self._next_order
        self._next_order += 1

    def remove_flow(self, flow: FlowId) -> None:
        super().remove_flow(flow)
        del self._order[flow]
        self._switches.pop(flow, None)

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
            changed_splits[flow] = [(self._paths[flow], 0.0)]
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
        cols, lengths, demands = self._store.gather(flows)
        return _kernel.inrp_fill(
            self._space,
            flows,
            [self._paths[flow] for flow in flows],
            cols,
            lengths,
            demands,
            self._table,
            max_replacements=self._max_replacements,
            option_cache=self._option_cache,
            path_cols_cache=self._path_cols_cache,
        )

    def _check_against_scratch(self) -> None:
        scratch = inrp_allocation(
            self._capacities,
            self._paths,
            self._demands,
            self._table,
            max_replacements=self._max_replacements,
        )
        self._verify_rates(scratch.rates, "INRP")
