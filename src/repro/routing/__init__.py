"""Routing substrate: shortest paths, ECMP, k-shortest paths, detours.

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
    validate_path,
)
from repro.routing.shortest import (
    all_pairs_hop_counts,
    dijkstra,
    hop_tree,
    shortest_path,
    shortest_path_length,
)
from repro.routing.ecmp import all_shortest_paths, ecmp_hash, ecmp_path_for_flow
from repro.routing.ksp import k_shortest_paths
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
    "validate_path",
    "dijkstra",
    "hop_tree",
    "shortest_path",
    "shortest_path_length",
    "all_pairs_hop_counts",
    "all_shortest_paths",
    "ecmp_hash",
    "ecmp_path_for_flow",
    "k_shortest_paths",
    "DetourClass",
    "DetourBreakdown",
    "DetourTable",
    "classify_link_detour",
    "detour_breakdown",
    "find_detour_paths",
]
