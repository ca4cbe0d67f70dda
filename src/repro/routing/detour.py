"""Detour discovery and classification — the Table 1 machinery.

The paper classifies every link of an ISP map by the length of the
best alternative ("detour") path between its endpoints when the link
itself is removed:

- **1 hop**  — a detour through a single intermediate node exists
  (the link closes a triangle);
- **2 hops** — best detour uses two intermediate nodes;
- **3+ hops** — best detour uses three or more intermediate nodes;
- **N/A**    — the link is a bridge: no alternative path at all.

:class:`DetourTable` additionally enumerates the concrete detour paths
around each link (up to a configurable depth); the INRP strategies use
it to spill excess traffic around congested links.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import RoutingError, TopologyError
from repro.routing.paths import Path
from repro.topology.graph import Link, Node, Topology


class DetourClass(enum.Enum):
    """Detour availability class of a link (paper Table 1 columns)."""

    ONE_HOP = "1 hop"
    TWO_HOP = "2 hops"
    THREE_PLUS = "3+ hops"
    NONE = "N/A"


def _alternative_hop_distance(topo: Topology, u: Node, v: Node) -> Optional[int]:
    """Hop distance from *u* to *v* ignoring the direct link, or None.

    A plain BFS that refuses to take the edge ``(u, v)`` on its first
    step — equivalent to removing the link, without copying the graph.
    """
    if not topo.has_link(u, v):
        raise TopologyError(f"unknown link: {u!r} -- {v!r}")
    seen = {u}
    queue = deque([(u, 0)])
    while queue:
        node, dist = queue.popleft()
        for neighbour in topo.neighbors(node):
            if node == u and neighbour == v:
                continue  # the removed link itself
            if neighbour == v:
                return dist + 1
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append((neighbour, dist + 1))
    return None


def classify_link_detour(topo: Topology, u: Node, v: Node) -> DetourClass:
    """Classify link ``(u, v)`` by its best detour length.

    The "1 hop" class of the paper means one intermediate node, i.e.
    an alternative path of 2 links.
    """
    distance = _alternative_hop_distance(topo, u, v)
    if distance is None:
        return DetourClass.NONE
    if distance == 2:
        return DetourClass.ONE_HOP
    if distance == 3:
        return DetourClass.TWO_HOP
    return DetourClass.THREE_PLUS


@dataclass
class DetourBreakdown:
    """Per-class link counts for one topology (one Table 1 row)."""

    counts: Dict[DetourClass, int] = field(
        default_factory=lambda: {cls: 0 for cls in DetourClass}
    )

    @property
    def total_links(self) -> int:
        return sum(self.counts.values())

    def percentage(self, detour_class: DetourClass) -> float:
        """Share of links in *detour_class*, in percent."""
        total = self.total_links
        if total == 0:
            raise RoutingError("breakdown over an empty topology")
        return 100.0 * self.counts[detour_class] / total

    def percentages(self) -> Tuple[float, float, float, float]:
        """``(one_hop, two_hop, three_plus, none)`` percentages."""
        return (
            self.percentage(DetourClass.ONE_HOP),
            self.percentage(DetourClass.TWO_HOP),
            self.percentage(DetourClass.THREE_PLUS),
            self.percentage(DetourClass.NONE),
        )


def detour_breakdown(topo: Topology) -> DetourBreakdown:
    """Classify every link of *topo* (one row of Table 1)."""
    breakdown = DetourBreakdown()
    for u, v in topo.links():
        breakdown.counts[classify_link_detour(topo, u, v)] += 1
    return breakdown


def find_detour_paths(
    topo: Topology, u: Node, v: Node, max_intermediate: int = 2
) -> List[Path]:
    """Concrete detour paths around link ``(u, v)``.

    Returns simple paths ``u -> ... -> v`` that avoid the direct link
    and use at most *max_intermediate* intermediate nodes, sorted by
    length then lexicographically.  ``max_intermediate=1`` yields the
    paper's 1-hop detours (common neighbours of *u* and *v*).
    """
    if not topo.has_link(u, v):
        raise TopologyError(f"unknown link: {u!r} -- {v!r}")
    if max_intermediate < 1:
        raise RoutingError(f"max_intermediate must be >= 1, got {max_intermediate}")
    return _DetourFinder(topo).paths(u, v, max_intermediate)


class _DetourFinder:
    """Detour enumeration over one topology: every node's neighbour set
    and ``repr`` are computed once and shared by all the links asked
    about."""

    def __init__(self, topo: Topology):
        self.topo = topo
        self._neighbour_sets: Dict[Node, Set[Node]] = {
            node: set(topo.neighbors(node)) for node in topo.nodes()
        }
        self._reprs: Dict[Node, str] = {node: repr(node) for node in topo.nodes()}

    def _linked_neighbours(self, a: Node, b: Node) -> List[Tuple[Node, Node]]:
        """Pairs ``(x, y)``: *x* a neighbour of *a* other than *b*, *y*
        a neighbour of *b* other than *a*, and ``x -- y`` a link (so
        ``x != y``; there are no self-loops)."""
        sets = self._neighbour_sets
        around_b = sets[b]
        return [
            (x, y) for x in sets[a] if x != b for y in sets[x] & around_b if y != a
        ]

    def paths(self, u: Node, v: Node, max_intermediate: int) -> List[Path]:
        """:func:`find_detour_paths` for a known link."""
        around_u, around_v = self._neighbour_sets[u], self._neighbour_sets[v]
        # One intermediate: the common neighbours of u and v.
        results: List[Path] = [(u, w, v) for w in around_u & around_v]
        if max_intermediate >= 2:
            # Two intermediates, enumerated from the endpoint of smaller
            # degree: hub links would otherwise scan the hub's fan.
            if len(around_u) <= len(around_v):
                results += [(u, x, y, v) for x, y in self._linked_neighbours(u, v)]
            else:
                results += [(u, x, y, v) for y, x in self._linked_neighbours(v, u)]
        if max_intermediate >= 3:
            results.extend(
                _deep_detours(self.topo, u, v, max_intermediate, set(results))
            )
        key = self._reprs.__getitem__
        results.sort(key=lambda p: (len(p), tuple(map(key, p))))
        return results


def _deep_detours(
    topo: Topology, u: Node, v: Node, max_intermediate: int, known: set
) -> List[Path]:
    """DFS enumeration of longer simple detours (depth >= 3)."""
    found: List[Path] = []
    limit = max_intermediate + 1  # links allowed

    def _dfs(path: List[Node]) -> None:
        head = path[-1]
        if len(path) - 1 > limit:
            return
        for neighbour in topo.neighbors(head):
            if len(path) == 1 and neighbour == v:
                continue  # the direct link
            if neighbour == v:
                candidate = tuple(path) + (v,)
                if candidate not in known and len(candidate) >= 5:
                    found.append(candidate)
                    known.add(candidate)
                continue
            if neighbour in path:
                continue
            if len(path) - 1 + 1 < limit:
                path.append(neighbour)
                _dfs(path)
                path.pop()

    _dfs([u])
    return found


class DetourTable:
    """Pre-computed detour options for every link of a topology.

    Parameters
    ----------
    max_intermediate:
        Detour depth: 1 reproduces the paper's "routers exploit up to
        1-hop detours"; 2 additionally allows the detour-of-detour
        ("nodes on the detour path can further detour, but for one
        extra hop only").
    """

    def __init__(self, topo: Topology, max_intermediate: int = 2):
        if max_intermediate < 1:
            raise RoutingError(
                f"max_intermediate must be >= 1, got {max_intermediate}"
            )
        self.topology = topo
        self.max_intermediate = max_intermediate
        # Options are stored per directed link: the reverse orientation
        # holds the same detours walked backwards, so both directions
        # enumerate candidates in the same deterministic order.
        self._options: Dict[Link, List[Path]] = {}
        finder = _DetourFinder(topo)
        for u, v in topo.links():
            forward = finder.paths(u, v, max_intermediate)
            self._options[(u, v)] = forward
            self._options[(v, u)] = [tuple(reversed(path)) for path in forward]

    def options(self, u: Node, v: Node) -> List[Path]:
        """Detour paths around the directed link ``(u, v)``, oriented u -> v."""
        stored = self._options.get((u, v))
        if stored is None:
            raise TopologyError(f"unknown link: {u!r} -- {v!r}")
        return list(stored)

    def has_detour(self, u: Node, v: Node) -> bool:
        return bool(self._options.get((u, v)))

    def __len__(self) -> int:
        """Number of physical links covered by the table."""
        return len(self._options) // 2
