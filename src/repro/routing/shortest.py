"""Deterministic single-source shortest paths.

Implemented from scratch so that tie-breaking is under our control:
when several predecessors give the same distance, the one first in
:func:`~repro.topology.graph.node_rank` order (type name, then
``repr``) wins, making routing tables stable across runs and
platforms.

Two searches produce the same trees.  The hop metric (``weight=None``,
the paper's) runs a level-synchronous BFS over the topology's integer
adjacency, expanding each level in rank order.  Heap Dijkstra pops
nodes in ``(distance, rank)`` order, and with unit weights a node's
first discovery comes from the lowest-ranked node of the previous
level, so that is its predecessor in both.  Explicit weights run heap
Dijkstra.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import NoPathError, RoutingError
from repro.routing.paths import Path
from repro.topology.graph import Node, Topology, node_rank

WeightFn = Callable[[Node, Node], float]


def _hop_search(
    topo: Topology, source: int, target: int = -1
) -> Tuple[List[int], List[int]]:
    """Level-synchronous BFS from node index *source*.

    Returns ``(pred, order)``: ``pred[i]`` is the index node *i* was
    reached from (*source* maps to itself, -1 if unreached) and
    ``order`` lists the reached indices in discovery order.  Each level
    is expanded in :meth:`Topology.node_ranks` order, which is the
    order heap Dijkstra pops it in.  Stops once *target* is reached:
    its predecessor is final from its first discovery.
    """
    adjacency = topo.adjacency()
    rank = topo.node_ranks().__getitem__
    pred = [-1] * len(adjacency)
    pred[source] = source
    order = [source]
    level = [source]
    while level and (target < 0 or pred[target] < 0):
        reached = []
        for node in level:
            for neighbour in adjacency[node]:
                if pred[neighbour] < 0:
                    pred[neighbour] = node
                    reached.append(neighbour)
        order += reached
        reached.sort(key=rank)
        level = reached
    return pred, order


def tree_typecode(num_nodes: int) -> str:
    """The :mod:`array` typecode of a :func:`hop_tree` over *num_nodes*
    nodes: int16 (``"h"``) while every node index fits, int32 beyond."""
    return "h" if num_nodes <= 1 << 15 else "i"


def hop_tree(
    topo: Topology, source: Node, target: Optional[Node] = None
) -> array:
    """The hop-count shortest-path tree from *source*, packed.

    An array over :meth:`Topology.nodes` indices: entry *i* is the
    index of node *i*'s predecessor, -1 for *source* and for nodes the
    search did not reach.  Its typecode is :func:`tree_typecode`'s:
    int16 on maps of at most 32,768 nodes (every shipped map has at
    most 1,273), int32 on larger ones.  The same tree as
    ``dijkstra(topo, source)``.

    With *target*, the search stops after the level that reaches it,
    as ``dijkstra(..., target=)`` does.  Every node it reached still
    has its full-tree predecessor (a level-synchronous BFS fixes each
    node's predecessor in the level that discovers it); nodes further
    out read -1.  A *target* that is unreachable, or not in *topo*,
    searches the whole tree.
    """
    if not topo.has_node(source):
        raise RoutingError(f"unknown node: {source!r}")
    origin = topo.node_index(source)
    goal = -1
    if target is not None and topo.has_node(target):
        goal = topo.node_index(target)
    pred, _ = _hop_search(topo, origin, goal)
    pred[origin] = -1
    return array(tree_typecode(len(pred)), pred)


def _hop_dijkstra(
    topo: Topology, source: Node, target: Optional[Node]
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """:func:`dijkstra` for the hop metric, from the BFS."""
    goal = -1
    if target is not None and topo.has_node(target):
        goal = topo.node_index(target)
    pred, order = _hop_search(topo, topo.node_index(source), goal)
    nodes = topo.nodes()
    distances: Dict[Node, float] = {source: 0.0}
    predecessors: Dict[Node, Node] = {}
    for index in order[1:]:
        node, parent = nodes[index], nodes[pred[index]]
        distances[node] = distances[parent] + 1.0
        predecessors[node] = parent
    return distances, predecessors


def dijkstra(
    topo: Topology,
    source: Node,
    weight: Optional[WeightFn] = None,
    target: Optional[Node] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Single-source shortest distances and predecessors.

    Parameters
    ----------
    weight:
        Callable ``(u, v) -> cost``.  None (the default) is hop count,
        the metric used throughout the paper's evaluation, and runs
        the BFS.
    target:
        Stop as soon as this node is settled.  The returned maps then
        cover only the explored region, but the path to *target* (and
        its tie-break) is exactly the one a full run would produce: a
        settled node's predecessor chain can no longer change, and
        every tie-break update for *target* comes from a node with a
        strictly smaller distance, settled earlier.  This is what
        makes per-flow routing on locality-bounded workloads cheap —
        the search explores the neighbourhood, not the whole map.

    Returns
    -------
    (distances, predecessors):
        ``distances[n]`` is the cost from *source*; nodes unreachable
        from *source* are absent.  ``predecessors[n]`` is the chosen
        previous hop (deterministic tie-break).
    """
    if not topo.has_node(source):
        raise RoutingError(f"unknown node: {source!r}")
    if weight is None:
        return _hop_dijkstra(topo, source, target)
    distances: Dict[Node, float] = {source: 0.0}
    predecessors: Dict[Node, Node] = {}
    visited = set()
    frontier = [(0.0, node_rank(source), source)]
    while frontier:
        dist, _, node = heapq.heappop(frontier)
        if node in visited:
            continue
        visited.add(node)
        if target is not None and node == target:
            break
        for neighbour in topo.neighbors(node):
            if neighbour in visited:
                continue
            cost = weight(node, neighbour)
            if cost < 0:
                raise RoutingError(f"negative link weight on {node!r} -- {neighbour!r}")
            candidate = dist + cost
            best = distances.get(neighbour)
            if (
                best is None
                or candidate < best - 1e-12
                or (
                    abs(candidate - best) <= 1e-12
                    and node_rank(node) < node_rank(predecessors[neighbour])
                )
            ):
                distances[neighbour] = candidate
                predecessors[neighbour] = node
                heapq.heappush(frontier, (candidate, node_rank(neighbour), neighbour))
    return distances, predecessors


def shortest_path(
    topo: Topology,
    source: Node,
    destination: Node,
    weight: Optional[WeightFn] = None,
) -> Path:
    """The deterministic shortest path from *source* to *destination*.

    Raises :class:`NoPathError` when the nodes are disconnected.
    """
    if not topo.has_node(destination):
        raise RoutingError(f"unknown node: {destination!r}")
    distances, predecessors = dijkstra(topo, source, weight, target=destination)
    if destination not in distances:
        raise NoPathError(source, destination)
    path = [destination]
    while path[-1] != source:
        path.append(predecessors[path[-1]])
    path.reverse()
    return tuple(path)


def iter_sp_next_hops(
    topo: Topology, destination: Node
) -> Iterator[Tuple[Node, Node]]:
    """Yield ``(node, next_hop)`` pairs of the SP tree toward *destination*.

    Used to build FIBs for the chunk-level simulator: for every node
    that can reach *destination*, the deterministic next hop on its
    shortest path.
    """
    distances, predecessors = dijkstra(topo, destination)
    for node in distances:
        if node == destination:
            continue
        # Predecessor in the tree rooted at `destination` is the next hop.
        yield node, predecessors[node]
