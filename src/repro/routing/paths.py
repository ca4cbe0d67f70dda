"""Path representation and helpers.

A path is a plain tuple of nodes ``(n0, n1, ..., nk)``.  Using tuples
(rather than a class) keeps paths hashable, cheap and directly usable
as dictionary keys by the allocators.  A path's links are derived
where they are used (:func:`path_links`), never cached: deriving them
is one ``zip``, about the cost of the hash a cache lookup needs, and a
cache would keep per-path state resident after the flow has left.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.errors import RoutingError
from repro.topology.graph import Link, Node

Path = Tuple[Node, ...]


def path_hops(path: Sequence[Node]) -> int:
    """Number of links traversed by *path*.

    >>> path_hops((1, 2, 4))
    2
    """
    if len(path) < 1:
        raise RoutingError("a path needs at least one node")
    return len(path) - 1


def path_links(path: Sequence[Node]) -> List[Link]:
    """Directed links traversed by *path*, in traversal order.

    Each hop is the traversal-order tuple ``(u, v)`` — the canonical
    directed link key consumed by the allocators, so forward and
    reverse traffic over the same physical link never alias.
    """
    return list(zip(path, path[1:]))


def path_stretch(path: Sequence[Node], shortest_hops: int) -> float:
    """Multiplicative path stretch relative to the shortest path.

    This is the paper's Fig. 4b metric: hops taken divided by hops of
    the shortest path between the same endpoints.

    >>> path_stretch((1, 3, 2), 2)
    1.0
    """
    if shortest_hops <= 0:
        raise RoutingError(f"shortest_hops must be positive, got {shortest_hops}")
    return path_hops(path) / shortest_hops
