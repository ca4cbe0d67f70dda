"""Fairness metrics.

The paper quantifies its Fig. 3 example with Jain's fairness index
(Chiu & Jain): ``F = (sum T)^2 / (n * sum T^2)``.  This module also
provides :func:`max_min_violations`, a max-min fairness *certificate*
the test suite uses to verify the progressive-filling allocator: an
allocation is max-min fair iff every flow is either satisfied or
crosses a saturated link on which it receives at least as much as
every other flow.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError

FlowId = Hashable
LinkId = Hashable


def jain_index(rates: Sequence[float]) -> float:
    """Jain's fairness index of *rates*.

    Lies in ``(0, 1]``; 1.0 means perfectly equal rates.  The paper's
    Fig. 3: ``jain_index([2, 8]) == 0.735...`` (reported as 0.73) and
    ``jain_index([5, 5]) == 1.0``.

    >>> round(jain_index([2.0, 8.0]), 2)
    0.74
    >>> jain_index([5.0, 5.0])
    1.0
    """
    if not rates:
        raise ConfigurationError("jain_index of an empty rate list")
    if any(rate < 0 for rate in rates):
        raise ConfigurationError("rates must be non-negative")
    total = float(sum(rates))
    squares = sum(rate * rate for rate in rates)
    if total == 0.0 or squares == 0.0:
        # All-zero (or subnormal, squaring to zero) allocations are
        # degenerately equal.
        return 1.0
    # Cauchy-Schwarz bounds the true value by 1; clamp float error.
    return min((total * total) / (len(rates) * squares), 1.0)


def max_min_violations(
    rates: Mapping[FlowId, float],
    demands: Mapping[FlowId, float],
    flow_links: Mapping[FlowId, Sequence[LinkId]],
    capacities: Mapping[LinkId, float],
    tolerance: float = 1e-6,
) -> List[str]:
    """Human-readable max-min fairness violations (empty = fair).

    Checks the bottleneck characterisation: a feasible allocation is
    max-min fair iff every flow either meets its demand or traverses a
    *bottleneck* link — one that is saturated and on which the flow's
    rate is maximal among the link's flows.
    """
    violations: List[str] = []
    link_load: Dict[LinkId, float] = {link: 0.0 for link in capacities}
    link_flows: Dict[LinkId, List[FlowId]] = {link: [] for link in capacities}
    for flow, links in flow_links.items():
        for link in links:
            if link not in capacities:
                violations.append(f"flow {flow!r} uses unknown link {link!r}")
                continue
            link_load[link] += rates[flow]
            link_flows[link].append(flow)

    for link, load in link_load.items():
        if load > capacities[link] + tolerance:
            violations.append(
                f"link {link!r} overloaded: {load:.6g} > {capacities[link]:.6g}"
            )

    for flow, rate in rates.items():
        demand = demands[flow]
        if rate > demand + tolerance:
            violations.append(f"flow {flow!r} exceeds demand: {rate:.6g} > {demand:.6g}")
            continue
        if rate >= demand - tolerance:
            continue  # satisfied
        has_bottleneck = False
        for link in flow_links[flow]:
            saturated = link_load[link] >= capacities[link] - tolerance
            if not saturated:
                continue
            peers = link_flows[link]
            if all(rates[peer] <= rate + tolerance for peer in peers):
                has_bottleneck = True
                break
        if not has_bottleneck:
            violations.append(
                f"flow {flow!r} unsatisfied ({rate:.6g} < {demand:.6g}) "
                "with no bottleneck link"
            )
    return violations

