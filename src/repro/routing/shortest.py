"""Deterministic hop-count shortest paths.

Hop count is the only routing metric, as in the paper's evaluation,
and :func:`_hop_search` is the one search: a level-synchronous BFS
over the topology's integer adjacency that expands each level in
:func:`~repro.topology.graph.node_rank` order (type name, then
``repr``).  A node's predecessor is therefore the lowest-ranked node
of the previous level that links to it, the tree heap Dijkstra builds
with unit costs, so routing tables are stable across runs and
platforms.  :func:`hop_tree`, :func:`shortest_path`,
:func:`iter_sp_next_hops` and
:func:`~repro.routing.ecmp.all_shortest_paths` all read it, and all
read one representation of its tree: the packed predecessor array
the search writes as it goes (see :func:`tree_typecode`).
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple

from repro.errors import NoPathError, RoutingError
from repro.routing.paths import Path
from repro.topology.graph import Node, Topology


def _hop_search(
    topo: Topology, source: int, target: int = -1
) -> Tuple[array, List[int]]:
    """Level-synchronous BFS from node index *source*.

    Returns ``(pred, order)``: ``pred`` is the packed tree
    :func:`hop_tree` hands out, a :func:`tree_typecode` array in which
    entry *i* is the index node *i* was reached from (-1 for *source*
    and for unreached nodes), and ``order`` lists the reached indices
    in discovery order, *source* first.  Each level is expanded in
    :meth:`Topology.node_ranks` order, which is the order heap Dijkstra
    pops it in.  Stops after the level that reaches *target*: its
    predecessor is final from its first discovery, and every node at
    most as far as *target* has been reached.

    A predecessor is written into the array once, when its node is
    discovered, so no list of every node is packed afterwards.  The
    visited test reads a list instead: list reads are the interpreter's
    fast path, and a full search makes one per link end.
    """
    adjacency = topo.adjacency()
    rank = topo.node_ranks().__getitem__
    num_nodes = len(adjacency)
    pred = array(tree_typecode(num_nodes), (-1,)) * num_nodes
    seen = [False] * num_nodes
    seen[source] = True
    order = [source]
    level = [source]
    while level and (target < 0 or not seen[target]):
        reached = []
        for node in level:
            for neighbour in adjacency[node]:
                if not seen[neighbour]:
                    seen[neighbour] = True
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
    most 1,273), int32 on larger ones.  It is the array
    :func:`_hop_search` fills as it discovers each node, not a copy.

    With *target*, the search stops after the level that reaches it.
    Every node it reached still has its full-tree predecessor (a
    level-synchronous BFS fixes each node's predecessor in the level
    that discovers it); nodes further out read -1.  A *target* that is
    unreachable, or not in *topo*, searches the whole tree.
    """
    if not topo.has_node(source):
        raise RoutingError(f"unknown node: {source!r}")
    goal = -1
    if target is not None and topo.has_node(target):
        goal = topo.node_index(target)
    return _hop_search(topo, topo.node_index(source), goal)[0]


def shortest_path(topo: Topology, source: Node, destination: Node) -> Path:
    """The deterministic shortest path from *source* to *destination*.

    Raises :class:`RoutingError` for an unknown endpoint and
    :class:`NoPathError` when the nodes are disconnected.
    """
    if not topo.has_node(destination):
        raise RoutingError(f"unknown node: {destination!r}")
    tree = hop_tree(topo, source, destination)
    origin, index = topo.node_index(source), topo.node_index(destination)
    if index != origin and tree[index] < 0:
        raise NoPathError(source, destination)
    nodes = topo.nodes()
    path = [destination]
    while index != origin:
        index = tree[index]
        path.append(nodes[index])
    path.reverse()
    return tuple(path)


def iter_sp_next_hops(
    topo: Topology, destination: Node
) -> Iterator[Tuple[Node, Node]]:
    """Yield ``(node, next_hop)`` pairs of the SP tree toward *destination*.

    Used to build FIBs for the chunk-level simulator: for every node
    that can reach *destination*, in the search's discovery order, the
    deterministic next hop on its shortest path.
    """
    if not topo.has_node(destination):
        raise RoutingError(f"unknown node: {destination!r}")
    pred, order = _hop_search(topo, topo.node_index(destination))
    nodes = topo.nodes()
    for index in order[1:]:
        # The predecessor in the tree rooted at `destination` is the
        # next hop toward it.
        yield nodes[index], nodes[pred[index]]
