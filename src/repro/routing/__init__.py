"""Routing substrate: shortest paths, ECMP, detours.

Every route is a hop-count shortest path, found by one search
(:mod:`repro.routing.shortest`).  All functions are deterministic:
ties between equal-hop paths are broken by a fixed node order, so
experiments are reproducible across runs and platforms.
"""

from repro.routing.paths import (
    Path,
    path_hops,
    path_links,
    path_stretch,
)
from repro.routing.shortest import hop_tree, shortest_path
from repro.routing.ecmp import all_shortest_paths, ecmp_hash
from repro.routing.detour import (
    DetourBreakdown,
    DetourClass,
    DetourTable,
    classify_link_detour,
    detour_breakdown,
    find_detour_paths,
)

__all__ = [
    "Path",
    "path_hops",
    "path_links",
    "path_stretch",
    "hop_tree",
    "shortest_path",
    "all_shortest_paths",
    "ecmp_hash",
    "DetourClass",
    "DetourBreakdown",
    "DetourTable",
    "classify_link_detour",
    "detour_breakdown",
    "find_detour_paths",
]
