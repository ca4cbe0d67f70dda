"""Routing substrate: shortest paths, ECMP, detours.

All functions are deterministic: ties between equal-cost paths are
broken lexicographically on the node sequence, so experiments are
reproducible across runs and platforms.
"""

from repro.routing.paths import (
    Path,
    cached_path_links,
    path_hops,
    path_links,
    path_stretch,
)
from repro.routing.shortest import dijkstra, hop_tree, shortest_path
from repro.routing.ecmp import all_shortest_paths, ecmp_hash, ecmp_path_for_flow
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
    "cached_path_links",
    "path_hops",
    "path_links",
    "path_stretch",
    "dijkstra",
    "hop_tree",
    "shortest_path",
    "all_shortest_paths",
    "ecmp_hash",
    "ecmp_path_for_flow",
    "DetourClass",
    "DetourBreakdown",
    "DetourTable",
    "classify_link_detour",
    "detour_breakdown",
    "find_detour_paths",
]
