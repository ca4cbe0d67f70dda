"""Equal-cost multipath (ECMP) helpers.

The paper's Fig. 4a compares INRP against per-flow ECMP (RFC 2992
style): each flow is hashed onto one of the equal-cost shortest paths
between its endpoints.  :func:`all_shortest_paths` enumerates the
equal-cost set deterministically; :func:`ecmp_path_for_flow` performs
the stable per-flow hash.
"""

from __future__ import annotations

import zlib
from typing import List

from repro.errors import NoPathError
from repro.routing.paths import Path
from repro.routing.shortest import dijkstra
from repro.topology.graph import Node, Topology


def all_shortest_paths(topo: Topology, source: Node, destination: Node) -> List[Path]:
    """All minimum-hop paths from *source* to *destination*, sorted.

    Paths are enumerated by walking the shortest-path DAG backwards
    from the destination and returned in lexicographic node order, so
    the list is deterministic.
    """
    distances, _ = dijkstra(topo, source)
    if destination not in distances:
        raise NoPathError(source, destination)

    paths: List[Path] = []

    def _extend(suffix: List[Node]) -> None:
        head = suffix[-1]
        if head == source:
            paths.append(tuple(reversed(suffix)))
            return
        target = distances[head] - 1
        for neighbour in topo.neighbors(head):
            if distances.get(neighbour) == target:
                suffix.append(neighbour)
                _extend(suffix)
                suffix.pop()

    _extend([destination])
    paths.sort(key=lambda p: tuple(repr(n) for n in p))
    return paths


def ecmp_hash(flow_id: int, num_paths: int) -> int:
    """Stable hash of *flow_id* onto ``range(num_paths)``.

    Uses CRC32 so the mapping does not change across Python processes
    (``hash`` is salted).
    """
    if num_paths <= 0:
        raise NoPathError(None, None, "empty ECMP path set")
    digest = zlib.crc32(str(flow_id).encode("utf-8"))
    return digest % num_paths


def ecmp_path_for_flow(
    topo: Topology, source: Node, destination: Node, flow_id: int
) -> Path:
    """The ECMP path assigned to *flow_id* between the endpoints."""
    paths = all_shortest_paths(topo, source, destination)
    return paths[ecmp_hash(flow_id, len(paths))]

