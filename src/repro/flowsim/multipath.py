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

#: Detour switches a flow may make within one fill before it freezes;
#: bounds the fill's rounds against detour ping-pong.
MAX_SWITCHES_PER_FLOW = 16


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


def inrp_allocation(
    capacities: Mapping[LinkId, float],
    flow_paths: Mapping[FlowId, Path],
    demands: Mapping[FlowId, float],
    detour_table: DetourTable,
    max_replacements: int = 2,
) -> MultipathAllocation:
    """INRP fluid allocation (see module docstring).

    The from-scratch oracle: ``verify=True`` and the tests; production
    fills run :mod:`repro.flowsim.kernel`.

    Parameters
    ----------
    capacities:
        Canonical link -> capacity (bits/s).
    flow_paths:
        Primary (shortest) path per flow.  Every link starts at its
        full capacity, so a subset of the active population must be
        closed: no flow outside it may use a link its members can
        reach (detour-closure components are, by construction).
    detour_table:
        Pre-computed detour options; its ``max_intermediate`` controls
        detour depth (1 = the paper's one-hop detours).
    max_replacements:
        How many links of a single sub-path may be replaced by detours
        (2 models "nodes on the detour path can further detour, but
        for one extra hop only").
    """
    flows: Dict[FlowId, _FlowState] = {}
    residual: Dict[LinkId, float] = dict(capacities)
    # Saturation floor per link, hoisted out of the filling rounds (the
    # tolerance depends only on the link's capacity).
    floors: Dict[LinkId, float] = {
        link: _rel_tol(capacity) for link, capacity in capacities.items()
    }
    # Sparse: only links currently carrying growing flows, and which
    # flows grow there.  The saturation scan below runs every filling
    # round, so iterating the handful of in-use links instead of the
    # whole topology is a large win on big maps with localised load;
    # the member sets give the saturation-affected flows directly.
    carriers: Dict[LinkId, Set[FlowId]] = {}

    def _links(path: Path) -> Tuple[LinkId, ...]:
        return cached_path_links(tuple(path))

    def _enter(flow_id: FlowId, path: Path) -> None:
        for link in _links(path):
            carriers.setdefault(link, set()).add(flow_id)

    def _leave(flow_id: FlowId, path: Path) -> None:
        for link in _links(path):
            members = carriers.get(link)
            if members is not None:
                members.discard(flow_id)
                if not members:
                    del carriers[link]

    for flow_id, path in flow_paths.items():
        demand = demands[flow_id]
        if demand < 0:
            raise SimulationError(f"flow {flow_id!r} has negative demand")
        state = _FlowState(demand=demand, subpaths=[_SubPath(tuple(path))])
        if len(path) < 2 or demand <= _EPS:
            # No path, or a demand within _EPS of 0: it never grows and
            # gets its demand, as under max-min.
            state.frozen = True
            state.active = None
            state.total = demand
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
            spare = min(residual.get(l, 0.0) for l in option_links)
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
                if residual.get(link, 0.0) > floors.get(link, _EPS):
                    continue
                if replacements >= max_replacements:
                    return False
                u, v = candidate[index], candidate[index + 1]
                option = _best_option((u, v), set(candidate))
                if option is None:
                    return False
                spliced = splice_detour(candidate, index, option)
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
        for link, members in carriers.items():
            candidate_step = residual[link] / len(members)
            if candidate_step < saturation_step - saturation_tol:
                saturation_step = candidate_step
                saturation_tol = _EPS * (1.0 + candidate_step)
                saturating = [link]
            elif candidate_step <= saturation_step + saturation_tol:
                saturating.append(link)
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

        # Saturation events: reroute or freeze every carrier of a
        # saturated link.
        saturated = set()
        if saturating and saturation_step <= (
            demand_step + _rel_tol(demand_step)
        ):
            saturated = set(saturating)
            for link in saturated:
                residual[link] = 0.0
        if not saturated and not satisfied:
            raise SimulationError("INRP allocation made no progress")
        if saturated:
            affected = sorted(
                {
                    flow_id
                    for link in saturated
                    for flow_id in carriers.get(link, ())
                },
                key=arrival_order.__getitem__,
            )
            for flow_id in affected:
                state = flows[flow_id]
                if state.switches >= MAX_SWITCHES_PER_FLOW or not _reroute(
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
