"""Equal-cost multipath (ECMP) helpers.

The paper's Fig. 4a compares INRP against per-flow ECMP (RFC 2992
style): each flow is hashed onto one of the equal-cost shortest paths
between its endpoints.  :func:`all_shortest_paths` enumerates the
equal-cost set deterministically; :func:`ecmp_hash` is the stable
per-flow hash that :class:`~repro.flowsim.strategies.EcmpStrategy`
picks a path with.
"""

from __future__ import annotations

import zlib
from typing import List

from repro.errors import NoPathError, RoutingError
from repro.routing.paths import Path
from repro.routing.shortest import _hop_search
from repro.topology.graph import Node, Topology


def all_shortest_paths(topo: Topology, source: Node, destination: Node) -> List[Path]:
    """All minimum-hop paths from *source* to *destination*, sorted.

    The search stops at the destination's level.  Paths are enumerated
    by walking the shortest-path DAG backwards from the destination and
    returned in lexicographic node order, so the list is deterministic.
    Raises :class:`RoutingError` for an unknown *source* and
    :class:`NoPathError` for an unknown or unreachable *destination*.
    """
    if not topo.has_node(source):
        raise RoutingError(f"unknown node: {source!r}")
    if not topo.has_node(destination):
        raise NoPathError(source, destination)
    origin, goal = topo.node_index(source), topo.node_index(destination)
    pred, order = _hop_search(topo, origin, goal)
    if goal != origin and pred[goal] < 0:
        raise NoPathError(source, destination)
    hops = [-1] * len(pred)
    hops[origin] = 0
    for index in order[1:]:
        hops[index] = hops[pred[index]] + 1
    adjacency = topo.adjacency()
    nodes = topo.nodes()
    paths: List[Path] = []

    def _extend(suffix: List[int]) -> None:
        head = suffix[-1]
        if head == origin:
            paths.append(tuple(nodes[index] for index in reversed(suffix)))
            return
        below = hops[head] - 1
        for neighbour in adjacency[head]:
            if hops[neighbour] == below:
                suffix.append(neighbour)
                _extend(suffix)
                suffix.pop()

    _extend([goal])
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
