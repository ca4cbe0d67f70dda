"""The INRP fluid allocator: progressive filling with detour switching.

This models the push-data + detour phases of the paper at the flow
level.  All flows grow their sending rate together (processor-sharing
senders pushing open loop).  When a link on a flow's active sub-path
saturates, the *node before the bottleneck* shifts the flow's further
growth onto a detour around that link (1-hop detours by default; a
detour link may itself be detoured while the replacement budget
lasts).  Only when no detour exists does the flow stop growing — the
fluid equivalent of entering the back-pressure phase.

The outcome is the paper's "global fairness": on the shared link of
Fig. 3 both flows obtain 5 Mbps (the bottlenecked flow carries
2 Mbps on the direct link plus 3 Mbps via the detour), where e2e
max-min gives (2, 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.routing.detour import DetourTable
from repro.routing.paths import Path, cached_path_links

FlowId = Hashable
LinkId = Hashable

_EPS = 1e-9


def _rel_tol(scale: float) -> float:
    """Tolerance proportional to the magnitudes in play."""
    if math.isinf(scale):
        return _EPS
    return _EPS * (1.0 + abs(scale))


@dataclass
class _SubPath:
    path: Path
    carried: float = 0.0
    replacements: int = 0


@dataclass
class _FlowState:
    demand: float
    subpaths: List[_SubPath] = field(default_factory=list)
    active: Optional[int] = 0
    total: float = 0.0
    frozen: bool = False
    freeze_reason: str = ""
    switches: int = 0


@dataclass
class MultipathAllocation:
    """Result of :func:`inrp_allocation`.

    Attributes
    ----------
    rates:
        Total rate per flow (bits/s).
    splits:
        Per flow, the ``(path, rate)`` pairs with positive rate, in
        creation order (primary first).
    switches:
        Total number of detour switches this fill performed, summed
        over the flows it filled (the sum of :attr:`flow_switches`).
        A fill covers only the flows handed to it: when
        :class:`~repro.flowsim.allocation.IncrementalInrp` re-fills one
        dirty closure component, that component's switches are all it
        reports, and the simulator's
        :attr:`~repro.flowsim.sinks.SimulationResult.total_switches`
        adds up what each recompute reported (measured examples
        there).
    freeze_reasons:
        Per flow, why it stopped growing (``"demand"`` or
        ``"no-detour"``).
    flow_switches:
        Per flow, the detour switches it performed in this fill.
    """

    rates: Dict[FlowId, float]
    splits: Dict[FlowId, List[Tuple[Path, float]]]
    switches: int
    freeze_reasons: Dict[FlowId, str]
    flow_switches: Dict[FlowId, int]

    def stretch(self, flow: FlowId) -> float:
        """Bit-weighted path stretch of *flow* (the Fig. 4b metric)."""
        parts = self.splits[flow]
        if not parts:
            return 1.0
        primary_hops = len(parts[0][0]) - 1
        total = sum(rate for _, rate in parts)
        if total <= 0 or primary_hops <= 0:
            return 1.0
        weighted = sum(rate * (len(path) - 1) for path, rate in parts)
        return weighted / (total * primary_hops)


def splice_detour(path: Path, index: int, option: Path) -> Optional[Path]:
    """Replace the link at *index* of *path* with detour *option*.

    *option* runs from ``path[index]`` to ``path[index + 1]``.  Returns
    None when the spliced path would revisit a node.  Shared by the
    from-scratch filling below and the CSR kernel
    (:mod:`repro.flowsim.kernel`), whose reroute decisions must splice
    identically.
    """
    if option[0] != path[index] or option[-1] != path[index + 1]:
        return None
    candidate = path[:index] + option + path[index + 2 :]
    if len(set(candidate)) != len(candidate):
        return None
    return candidate


#: Backwards-compatible private alias (pre-kernel name).
_splice = splice_detour


def inrp_allocation(
    capacities: Mapping[LinkId, float],
    flow_paths: Mapping[FlowId, Path],
    demands: Mapping[FlowId, float],
    detour_table: DetourTable,
    max_replacements: int = 2,
    max_switches_per_flow: int = 16,
    pinned_usage: Optional[Mapping[LinkId, float]] = None,
    saturation_floors: Optional[Mapping[LinkId, float]] = None,
    pooling_fraction: float = 1.0,
) -> MultipathAllocation:
    """INRP fluid allocation (see module docstring).

    Parameters
    ----------
    capacities:
        Canonical link -> capacity (bits/s).
    flow_paths:
        Primary (shortest) path per flow.  This may be any subset of
        the active population: under partial pooling the incremental
        allocator runs the filling over one detour-closure component
        at a time.
    detour_table:
        Pre-computed detour options; its ``max_intermediate`` controls
        detour depth (1 = the paper's one-hop detours).
    max_replacements:
        How many links of a single sub-path may be replaced by detours
        (2 models "nodes on the detour path can further detour, but
        for one extra hop only").
    pinned_usage:
        Bandwidth (bits/s) per link already consumed by flows *outside*
        ``flow_paths`` whose allocation is held fixed.  Each link's
        starting residual is its capacity minus its pinned usage.  Used
        by :class:`repro.flowsim.allocation.IncrementalInrp` when
        re-filling a single component while the others keep their
        rates (for truly disjoint components every pinned value is
        zero; the parameter makes the contract explicit and guards the
        subset run against capacity over-commitment).
    saturation_floors:
        Pre-computed ``_rel_tol(capacity)`` per link.  Callers invoking
        the filling repeatedly over the same topology (the incremental
        allocator, the event loop) pass a shared map so it is not
        rebuilt per call; any link missing from the map falls back to
        the absolute epsilon.
    pooling_fraction:
        Partial resource pooling (paper knob): the fraction of each
        link's directional capacity that detour traffic may borrow.
        ``1.0`` (default) is full pooling and takes the historical code
        path bit-for-bit.  Below 1.0, every link keeps a reserve of
        ``(1 - pooling_fraction) * capacity`` that only primary-path
        traffic may consume: detour options are only admitted while
        their spare exceeds the reserve, and detour-borne growth on a
        link stops (reroute or freeze) once its residual reaches the
        reserve, while primary flows keep filling down to zero.
    """
    if not 0.0 <= pooling_fraction <= 1.0:
        raise SimulationError(
            f"pooling_fraction must be in [0, 1], got {pooling_fraction}"
        )
    reserves: Optional[Dict[LinkId, float]] = None
    if pooling_fraction < 1.0:
        reserves = {
            link: (1.0 - pooling_fraction) * capacity
            for link, capacity in capacities.items()
            if not math.isinf(capacity)
        }
    flows: Dict[FlowId, _FlowState] = {}
    residual: Dict[LinkId, float] = dict(capacities)
    if pinned_usage:
        for link, used in pinned_usage.items():
            if link not in residual:
                raise SimulationError(f"pinned usage on unknown link {link!r}")
            if used < 0:
                raise SimulationError(f"negative pinned usage on link {link!r}")
            residual[link] = max(residual[link] - used, 0.0)
    # Saturation floor per link, hoisted out of the filling rounds (the
    # tolerance depends only on the link's capacity).
    floors: Mapping[LinkId, float] = (
        saturation_floors
        if saturation_floors is not None
        else {link: _rel_tol(capacity) for link, capacity in capacities.items()}
    )
    # Sparse: only links currently carrying growing flows, and which
    # flows grow there.  The saturation scan below runs every filling
    # round, so iterating the handful of in-use links instead of the
    # whole topology is a large win on big maps with localised load;
    # the member sets give the saturation-affected flows directly.
    carriers: Dict[LinkId, Set[FlowId]] = {}
    # Partial pooling only: which growing flows use each link as a
    # *detour* (a link not on their primary path), and each flow's
    # primary link set.  Empty/unused under full pooling.
    detour_members: Dict[LinkId, Set[FlowId]] = {}
    primary_links: Dict[FlowId, frozenset] = {}

    def _links(path: Path) -> Tuple[LinkId, ...]:
        return cached_path_links(tuple(path))

    def _enter(flow_id: FlowId, path: Path) -> None:
        links = _links(path)
        for link in links:
            carriers.setdefault(link, set()).add(flow_id)
        if reserves is not None:
            primary = primary_links[flow_id]
            for link in links:
                if link not in primary:
                    detour_members.setdefault(link, set()).add(flow_id)

    def _leave(flow_id: FlowId, path: Path) -> None:
        for link in _links(path):
            members = carriers.get(link)
            if members is not None:
                members.discard(flow_id)
                if not members:
                    del carriers[link]
            detourers = detour_members.get(link)
            if detourers is not None:
                detourers.discard(flow_id)
                if not detourers:
                    del detour_members[link]

    for flow_id, path in flow_paths.items():
        demand = demands[flow_id]
        if demand < 0:
            raise SimulationError(f"flow {flow_id!r} has negative demand")
        if reserves is not None:
            primary_links[flow_id] = frozenset(_links(tuple(path)))
        state = _FlowState(demand=demand, subpaths=[_SubPath(tuple(path))])
        if len(path) < 2 or demand <= _EPS:
            state.frozen = True
            state.active = None
            state.total = demand if len(path) < 2 else 0.0
            state.freeze_reason = "demand"
        flows[flow_id] = state
        if not state.frozen:
            for link in _links(state.subpaths[0].path):
                if link not in residual:
                    raise SimulationError(
                        f"flow {flow_id!r} uses unknown link {link!r}"
                    )
            _enter(flow_id, state.subpaths[0].path)

    def _best_option(link: Tuple, exclude_nodes: set) -> Optional[Path]:
        u, v = link
        best: Optional[Path] = None
        best_spare = -1.0
        for option in detour_table.options(u, v):
            if any(node in exclude_nodes for node in option[1:-1]):
                continue
            option_links = _links(option)
            if reserves is None:
                spare = min(residual.get(l, 0.0) for l in option_links)
            else:
                # Detours may only borrow spare beyond the reserved
                # (1 - pooling_fraction) share of each link.
                spare = min(
                    residual.get(l, 0.0) - reserves.get(l, 0.0)
                    for l in option_links
                )
            floor = max(floors.get(l, _EPS) for l in option_links)
            if spare <= floor:
                continue
            # Relative tolerance: options whose spare capacity agrees
            # to rounding noise are a tie, and the first enumerated
            # (DetourTable order is deterministic) wins.  An absolute
            # epsilon here would make the choice flip on bit-level
            # residual differences between a whole-population fill and
            # a component-restricted one.
            if spare > best_spare + _rel_tol(best_spare):
                best, best_spare = option, spare
        return best

    def _reroute(flow_id: FlowId, state: _FlowState) -> bool:
        """Move the flow's growth off saturated links; False = freeze."""
        if state.active is None:
            return False
        active = state.subpaths[state.active]
        candidate = active.path
        replacements = active.replacements
        changed = True
        while changed:
            changed = False
            for index, link in enumerate(_links(candidate)):
                limit = floors.get(link, _EPS)
                if reserves is not None and link not in primary_links[flow_id]:
                    # Detour use of the link saturates at the reserve.
                    limit += reserves.get(link, 0.0)
                if residual.get(link, 0.0) > limit:
                    continue
                if replacements >= max_replacements:
                    return False
                u, v = candidate[index], candidate[index + 1]
                option = _best_option((u, v), set(candidate))
                if option is None:
                    return False
                spliced = _splice(candidate, index, option)
                if spliced is None:
                    return False
                candidate = spliced
                replacements += 1
                changed = True
                break
        if candidate == active.path:
            return True  # nothing saturated after all
        _leave(flow_id, active.path)
        state.subpaths.append(_SubPath(candidate, replacements=replacements))
        state.active = len(state.subpaths) - 1
        state.switches += 1
        _enter(flow_id, candidate)
        return True

    # Saturation handling visits affected flows in arrival (insertion)
    # order of ``flow_paths``: older flows reroute first.  Sorting by
    # ``repr`` here made flow 10 reroute before flow 2 and silently
    # changed outcomes with the flow-id type (int vs str ids).
    arrival_order = {flow_id: index for index, flow_id in enumerate(flow_paths)}
    unfrozen = {flow_id for flow_id, state in flows.items() if not state.frozen}
    guard = 0
    max_iterations = 16 * (len(flows) + len(capacities)) + 64
    while unfrozen:
        guard += 1
        if guard > max_iterations:
            raise SimulationError("INRP allocation did not converge")
        demand_step = min(
            flows[flow_id].demand - flows[flow_id].total for flow_id in unfrozen
        )
        saturation_step = math.inf
        saturation_tol = _EPS
        saturating: List[LinkId] = []
        reserve_saturating: List[LinkId] = []
        if reserves is None:
            for link, members in carriers.items():
                candidate_step = residual[link] / len(members)
                if candidate_step < saturation_step - saturation_tol:
                    saturation_step = candidate_step
                    saturation_tol = _EPS * (1.0 + candidate_step)
                    saturating = [link]
                elif candidate_step <= saturation_step + saturation_tol:
                    saturating.append(link)
        else:
            for link, members in carriers.items():
                candidate_step = residual[link] / len(members)
                if candidate_step < saturation_step - saturation_tol:
                    saturation_step = candidate_step
                    saturation_tol = _EPS * (1.0 + candidate_step)
                    saturating = [link]
                    reserve_saturating = []
                elif candidate_step <= saturation_step + saturation_tol:
                    saturating.append(link)
                reserve = reserves.get(link, 0.0)
                if reserve > 0.0 and detour_members.get(link):
                    # Detour-borne growth hits the reserve before the
                    # link itself saturates.
                    candidate_step = (residual[link] - reserve) / len(members)
                    if candidate_step < saturation_step - saturation_tol:
                        saturation_step = candidate_step
                        saturation_tol = _EPS * (1.0 + candidate_step)
                        saturating = []
                        reserve_saturating = [link]
                    elif candidate_step <= saturation_step + saturation_tol:
                        reserve_saturating.append(link)
        step = max(0.0, min(demand_step, saturation_step))

        for link, members in carriers.items():
            residual[link] -= step * len(members)
        for flow_id in unfrozen:
            state = flows[flow_id]
            state.total += step
            state.subpaths[state.active].carried += step

        # Demand events.
        satisfied = [
            flow_id
            for flow_id in unfrozen
            if flows[flow_id].demand - flows[flow_id].total
            <= _rel_tol(flows[flow_id].total)
        ]
        for flow_id in satisfied:
            state = flows[flow_id]
            _leave(flow_id, state.subpaths[state.active].path)
            state.frozen = True
            state.freeze_reason = "demand"
            state.active = None
            unfrozen.discard(flow_id)

        # Saturation events: reroute or freeze affected flows.  A full
        # saturation affects every carrier of the link; a reserve
        # saturation (partial pooling) only its detour carriers.
        saturated = set()
        reserve_saturated = set()
        if (saturating or reserve_saturating) and saturation_step <= (
            demand_step + _rel_tol(demand_step)
        ):
            saturated = set(saturating)
            reserve_saturated = set(reserve_saturating) - saturated
            for link in saturated:
                residual[link] = 0.0
            for link in reserve_saturated:
                residual[link] = min(residual[link], reserves[link])
        if not saturated and not reserve_saturated and not satisfied:
            raise SimulationError("INRP allocation made no progress")
        if saturated or reserve_saturated:
            affected = sorted(
                {
                    flow_id
                    for link in saturated
                    for flow_id in carriers.get(link, ())
                }
                | {
                    flow_id
                    for link in reserve_saturated
                    for flow_id in detour_members.get(link, ())
                },
                key=arrival_order.__getitem__,
            )
            for flow_id in affected:
                state = flows[flow_id]
                if state.switches >= max_switches_per_flow or not _reroute(
                    flow_id, state
                ):
                    _leave(flow_id, state.subpaths[state.active].path)
                    state.frozen = True
                    state.freeze_reason = "no-detour"
                    state.active = None
                    unfrozen.discard(flow_id)

    rates = {flow_id: state.total for flow_id, state in flows.items()}
    splits = {
        flow_id: [
            (sub.path, sub.carried)
            for sub in state.subpaths
            if sub.carried > _EPS or sub is state.subpaths[0]
        ]
        for flow_id, state in flows.items()
    }
    flow_switches = {flow_id: state.switches for flow_id, state in flows.items()}
    reasons = {flow_id: state.freeze_reason for flow_id, state in flows.items()}
    return MultipathAllocation(
        rates=rates,
        splits=splits,
        switches=sum(flow_switches.values()),
        freeze_reasons=reasons,
        flow_switches=flow_switches,
    )
