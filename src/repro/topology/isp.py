"""The nine ISP topologies of the paper's Table 1.

The paper measures, for nine Rocketfuel-derived ISP maps, the fraction
of links with a 1-hop, 2-hop and 3+-hop detour, and the fraction with
no detour at all.  The raw Rocketfuel maps are not available offline,
so this module builds synthetic maps that have the *measured property
itself*: Table 1 is the calibration target of these maps, not a result
measured on them.  Two steps build them:

1. :func:`solve_link_counts` recovers, for each ISP row, the smallest
   integer link count whose per-class split rounds to the published
   percentages (e.g. VSNL's ``25.00 / 33.33 / 0.00 / 41.67`` is exactly
   ``3 / 4 / 0 / 5`` over 12 links);
2. :func:`build_isp_topology` feeds those counts to the block-mix
   generator, which realises the class mix exactly by construction.

The resulting maps therefore reproduce Table 1 to rounding error, and
provide detour-rich substrates for the Fig. 4 flow-level experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rng import SeedLike
from repro.topology.generators import BlockMixReport, block_mix_topology
from repro.topology.graph import (
    DEFAULT_CAPACITY_BPS,
    DEFAULT_DELAY_S,
    CapacitySpec,
    Topology,
)

#: Per-class link counts a block mix cannot realise (see blocks.py).
_UNBUILDABLE = {
    "one_hop": {1, 2, 4},
    "two_hop": {1, 2, 3, 5, 6, 9},
    "three_plus": {1, 2, 3, 4},
    "none": set(),
}

_CLASS_ORDER = ("one_hop", "two_hop", "three_plus", "none")


@dataclass(frozen=True)
class IspProfile:
    """One row of the paper's Table 1."""

    key: str
    display_name: str
    region: str
    #: ``(one_hop, two_hop, three_plus, none)`` percentages from Table 1.
    detour_percentages: Tuple[float, float, float, float]


_PROFILES: Dict[str, IspProfile] = {
    profile.key: profile
    for profile in (
        IspProfile("exodus", "Exodus", "US", (49.77, 35.48, 6.68, 8.06)),
        IspProfile("vsnl", "VSNL", "IN", (25.00, 33.33, 0.00, 41.67)),
        IspProfile("level3", "Level 3", "US", (92.22, 6.55, 0.68, 0.55)),
        IspProfile("sprint", "Sprint", "US", (56.66, 37.08, 1.81, 4.45)),
        IspProfile("att", "AT&T", "US", (34.84, 61.69, 0.72, 2.74)),
        IspProfile("ebone", "EBONE", "EU", (50.66, 36.22, 6.30, 6.82)),
        IspProfile("telstra", "Telstra", "AUS", (70.05, 10.42, 1.06, 18.47)),
        IspProfile("tiscali", "Tiscali", "EU", (24.50, 39.85, 10.15, 25.50)),
        IspProfile("verio", "Verio", "US", (71.50, 17.09, 1.74, 9.68)),
    )
}

#: ISP keys in the order of the paper's Table 1.
ISP_NAMES: Tuple[str, ...] = tuple(_PROFILES)

#: The paper's "Average" row of Table 1.
TABLE1_AVERAGE: Tuple[float, float, float, float] = (52.80, 30.86, 3.24, 13.10)


def isp_profile(name: str) -> IspProfile:
    """Return the :class:`IspProfile` for *name* (case-insensitive)."""
    profile = _PROFILES.get(name.lower())
    if profile is None:
        known = ", ".join(ISP_NAMES)
        raise ConfigurationError(f"unknown ISP {name!r}; known ISPs: {known}")
    return profile


def _largest_remainder_counts(
    percentages: Tuple[float, float, float, float], total: int
) -> Tuple[int, ...]:
    """Integer counts summing to *total*, apportioned to *percentages*."""
    raw = [p * total / 100.0 for p in percentages]
    counts = [int(x) for x in raw]
    remainders = sorted(
        range(len(raw)), key=lambda i: (raw[i] - counts[i], raw[i]), reverse=True
    )
    shortfall = total - sum(counts)
    for i in range(shortfall):
        counts[remainders[i % len(raw)]] += 1
    return tuple(counts)


def _is_buildable(counts: Tuple[int, ...]) -> bool:
    return all(
        count not in _UNBUILDABLE[label]
        for label, count in zip(_CLASS_ORDER, counts)
    )


def _rounding_error(
    counts: Tuple[int, ...], percentages: Tuple[float, float, float, float]
) -> float:
    total = sum(counts)
    return max(
        abs(100.0 * count / total - target)
        for count, target in zip(counts, percentages)
    )


@lru_cache(maxsize=None)
def solve_link_counts(
    percentages: Tuple[float, float, float, float],
    min_links: int = 8,
    max_links: int = 4000,
    tolerance: float = 0.005,
) -> Tuple[int, int, int, int]:
    """Smallest constructible link counts matching *percentages*.

    Scans candidate totals ``m`` and apportions them with the largest-
    remainder method; returns the first ``m`` whose per-class
    percentages all fall within *tolerance* of the paper's values
    (0.005 pp = exact 2-decimal rounding) and whose counts the block
    generator can realise.  If no total matches exactly, the best
    approximation found is returned.

    >>> solve_link_counts((25.00, 33.33, 0.00, 41.67))
    (3, 4, 0, 5)
    """
    if abs(sum(percentages) - 100.0) > 0.5:
        raise ConfigurationError(
            f"percentages must sum to ~100, got {sum(percentages):.2f}"
        )
    best: Optional[Tuple[int, ...]] = None
    best_error = float("inf")
    for total in range(min_links, max_links + 1):
        counts = _largest_remainder_counts(percentages, total)
        if not _is_buildable(counts):
            continue
        error = _rounding_error(counts, percentages)
        if error < best_error:
            best, best_error = counts, error
        if error <= tolerance:
            return counts  # type: ignore[return-value]
    if best is None:
        raise ConfigurationError(
            f"no constructible link counts for {percentages} up to {max_links}"
        )
    return best  # type: ignore[return-value]


def build_isp_topology(
    name: str,
    seed: SeedLike = 0,
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
    max_links: int = 4000,
) -> Topology:
    """Build the synthetic map for ISP *name* (see module docstring).

    The detour-class mix matches the paper's Table 1 row to rounding
    error; *seed* only randomises the arrangement of motifs.
    """
    topo, _ = build_isp_topology_with_report(
        name, seed=seed, capacity=capacity, delay=delay, max_links=max_links
    )
    return topo


def build_isp_topology_with_report(
    name: str,
    seed: SeedLike = 0,
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
    max_links: int = 4000,
) -> Tuple[Topology, BlockMixReport]:
    """Like :func:`build_isp_topology` but also return the build report."""
    profile = isp_profile(name)
    one, two, three, none = solve_link_counts(
        profile.detour_percentages, max_links=max_links
    )
    topo, report = block_mix_topology(
        one,
        two,
        three,
        none,
        seed=seed,
        name=f"isp-{profile.key}",
        capacity=capacity,
        delay=delay,
    )
    return topo, report
