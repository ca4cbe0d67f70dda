"""Motif builders with known per-link detour classes.

The Table 1 reproduction relies on a constructive property: if motifs
("blocks") are glued to the rest of the graph at a *single shared
vertex*, every path between the two endpoints of a block-internal link
stays inside the block, so the link's detour class is decided by the
block shape alone:

- **triangle fan / K4** — every link closes a triangle → 1-hop detour;
- **square chain** (4-cycles, optionally sharing edges) → 2-hop detour;
- **long cycle** (length ≥ 5) → 3+-hop detour;
- **pendant edge** (leaf) → no detour (bridge).

Each builder takes a :class:`NodeNamer`, attaches the motif at an
existing node and returns the list of links created.  Every link gets
the builder's *capacity* and *delay* as it is added, so a generated
map sets each value once.  Builders name a link's endpoints in
:meth:`Link.key` order, so a ``(forward, reverse)`` capacity gives
forward to the ``key[0] -> key[1]`` direction.
"""

from __future__ import annotations

from typing import List

from repro.errors import TopologyError
from repro.topology.graph import (
    DEFAULT_CAPACITY_BPS,
    DEFAULT_DELAY_S,
    CapacitySpec,
    Link,
    Node,
    Topology,
)


class NodeNamer:
    """Produces fresh integer node names for generated topologies."""

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> int:
        name = self._next
        self._next += 1
        return name


def add_triangle_fan(
    topo: Topology,
    attach: Node,
    num_links: int,
    namer: NodeNamer,
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
) -> List[Link]:
    """Attach a fan of triangles sharing the hub *attach*.

    A fan with ``k`` spokes has ``2k - 1`` links (``k`` hub-spoke plus
    ``k - 1`` consecutive spoke-spoke links), every one of which closes
    a triangle, i.e. has a 1-hop detour.  Therefore *num_links* must be
    odd and at least 3.
    """
    if num_links < 3 or num_links % 2 == 0:
        raise TopologyError(
            f"a triangle fan has an odd number of links >= 3, got {num_links}"
        )
    spokes = (num_links + 1) // 2
    created: List[Link] = []
    spoke_nodes = [namer.fresh() for _ in range(spokes)]
    for node in spoke_nodes:
        created.append(topo.add_link(*Link.key(attach, node), capacity, delay))
    for left, right in zip(spoke_nodes, spoke_nodes[1:]):
        created.append(topo.add_link(*Link.key(left, right), capacity, delay))
    return created


def add_square_chain(
    topo: Topology,
    attach: Node,
    num_links: int,
    namer: NodeNamer,
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
) -> List[Link]:
    """Attach a chain of edge-sharing 4-cycles at *attach*.

    The first square contributes 4 links; each extension square shares
    one edge with the previous one and contributes 3 new links, so the
    achievable counts are ``4 + 3k``.  Every link lies on a 4-cycle and
    on no triangle, i.e. its best detour is 2 hops.
    """
    if num_links < 4 or (num_links - 4) % 3 != 0:
        raise TopologyError(
            f"a square chain has 4 + 3k links, got {num_links}"
        )
    created: List[Link] = []
    # First square: attach - a - b - c - attach.
    a, b, c = namer.fresh(), namer.fresh(), namer.fresh()
    created.append(topo.add_link(*Link.key(attach, a), capacity, delay))
    created.append(topo.add_link(*Link.key(a, b), capacity, delay))
    created.append(topo.add_link(*Link.key(b, c), capacity, delay))
    created.append(topo.add_link(*Link.key(c, attach), capacity, delay))
    # Extensions share the "far" edge (a, b) of the most recent square.
    shared_u, shared_v = a, b
    remaining = num_links - 4
    while remaining > 0:
        p, q = namer.fresh(), namer.fresh()
        created.append(topo.add_link(*Link.key(shared_v, p), capacity, delay))
        created.append(topo.add_link(*Link.key(p, q), capacity, delay))
        created.append(topo.add_link(*Link.key(q, shared_u), capacity, delay))
        shared_u, shared_v = q, p
        remaining -= 3
    return created


def add_long_cycle(
    topo: Topology,
    attach: Node,
    num_links: int,
    namer: NodeNamer,
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
) -> List[Link]:
    """Attach a simple cycle of length *num_links* >= 5 through *attach*.

    Every link on a chordless cycle of length ``L >= 5`` has a shortest
    detour of ``L - 1 >= 4`` hops, i.e. class "3+ hops".
    """
    if num_links < 5:
        raise TopologyError(f"a long cycle needs >= 5 links, got {num_links}")
    created: List[Link] = []
    nodes = [attach] + [namer.fresh() for _ in range(num_links - 1)]
    for left, right in zip(nodes, nodes[1:]):
        created.append(topo.add_link(*Link.key(left, right), capacity, delay))
    created.append(topo.add_link(*Link.key(nodes[-1], attach), capacity, delay))
    return created


def add_pendant(
    topo: Topology,
    attach: Node,
    namer: NodeNamer,
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
) -> Link:
    """Attach a single leaf node; the new link is a bridge (no detour)."""
    leaf = namer.fresh()
    return topo.add_link(*Link.key(attach, leaf), capacity, delay)


def decompose_one_hop(count: int) -> List[int]:
    """Split a 1-hop link budget into valid triangle-fan sizes.

    Fans provide any odd count >= 3; even counts >= 6 are two fans.
    Counts of 1, 2 or 4 are not achievable (see
    :func:`repro.topology.isp.solve_link_counts`, which avoids them).
    """
    if count == 0:
        return []
    if count < 3 or count == 4:
        raise TopologyError(f"1-hop link count {count} is not constructible")
    if count % 2 == 1:
        return [count]
    return [3, count - 3]


def decompose_two_hop(count: int) -> List[int]:
    """Split a 2-hop link budget into valid square-chain sizes (4 + 3k).

    Achievable counts are sums of ``{4 + 3k}`` terms: every count
    except 1, 2, 3, 5, 6 and 9.
    """
    if count == 0:
        return []
    if count in (1, 2, 3, 5, 6, 9):
        raise TopologyError(f"2-hop link count {count} is not constructible")
    remainder = count % 3
    if remainder == 1:  # 4 + 3k
        return [count]
    if remainder == 2:  # 8 + 3k  ->  two chains
        return [4, count - 4]
    return [4, 4, count - 8]  # 12 + 3k  ->  three chains


def decompose_three_plus(count: int) -> List[int]:
    """Split a 3+-hop link budget into valid cycle lengths (>= 5).

    Achievable counts: 0 and every count >= 5.
    """
    if count == 0:
        return []
    if count < 5:
        raise TopologyError(f"3+-hop link count {count} is not constructible")
    if count < 10:
        return [count]
    return [5] * (count // 5 - 1) + [5 + count % 5]
