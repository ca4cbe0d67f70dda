"""Capacitated topology model with per-direction link capacities.

:class:`Topology` is a plain adjacency structure that enforces the
library-wide conventions: capacities in bits/s and delays in seconds.
Links carry no routing cost: routes are hop-count shortest paths, as
in the paper's flow-level evaluation.  Nodes are numbered in insertion
order, and alongside the node-keyed view it keeps the same adjacency
as lists of node indices, which the hop-count routing walks.

The substrate is **directed**: every physical link carries one
capacity per traversal direction, keyed by the traversal-order tuple
``(u, v)``.  Undirected topologies are the symmetric special case —
``add_link(u, v, capacity=c)`` installs ``c`` in both directions, and
everything built that way reproduces the historical undirected
results exactly.  :meth:`Topology.directed_capacities` is the map the
allocators consume; :func:`Link.key` is the single canonical
normalization used when a direction-less identifier is needed (detour
classification, serialisation, reporting).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import TopologyError

Node = Hashable

#: Default link capacity when none is given: 10 Mbps, the shared-link
#: rate of the paper's Fig. 3 example.
DEFAULT_CAPACITY_BPS = 10e6

#: Default one-way propagation delay (1 ms).
DEFAULT_DELAY_S = 1e-3

#: An asymmetric capacity spec: a single float (symmetric) or a
#: ``(forward, reverse)`` pair relative to the ``(u, v)`` the spec is
#: attached to.
CapacitySpec = Union[float, Tuple[float, float]]


class Link(tuple):
    """A link identifier: a plain ``(u, v)`` node tuple.

    Directed link state (capacities, allocator columns) is keyed by the
    traversal-order tuple; :meth:`Link.key` is the one canonical
    normalization collapsing both orientations onto the undirected
    identity of the link.
    """

    __slots__ = ()

    @staticmethod
    def key(u: Node, v: Node) -> "Link":
        """Return the canonical (order-independent) identifier of a link.

        Nodes of mixed or unorderable types are ordered by their
        ``repr``, which is stable within a process and good enough for
        dictionary keys.
        """
        try:
            return (u, v) if u <= v else (v, u)  # type: ignore[operator,return-value]
        except TypeError:
            return (u, v) if repr(u) <= repr(v) else (v, u)  # type: ignore[return-value]


def split_capacity_spec(capacity: CapacitySpec) -> Tuple[float, float]:
    """Normalise a capacity spec into a ``(forward, reverse)`` pair.

    A bare number means symmetric; a 2-sequence is taken as
    ``(forward, reverse)``.
    """
    try:
        if isinstance(capacity, (tuple, list)):
            if len(capacity) != 2:
                raise TypeError
            return float(capacity[0]), float(capacity[1])
        return float(capacity), float(capacity)
    except (TypeError, ValueError):
        raise TopologyError(
            f"capacity spec must be a number or a (forward, reverse) pair, "
            f"got {capacity!r}"
        ) from None


def _capacity_error(u: Node, v: Node, capacity: float) -> TopologyError:
    return TopologyError(
        f"link {u!r} -> {v!r}: capacity must be finite and positive, "
        f"got {capacity!r}"
    )


def _delay_error(u: Node, v: Node, delay: float) -> TopologyError:
    return TopologyError(
        f"link {u!r} -- {v!r}: delay must be finite and non-negative, "
        f"got {delay!r}"
    )


def node_rank(node: Node) -> Tuple[str, str]:
    """Deterministic total order over nodes of any type: type name, then
    ``repr``.  Routing breaks ties between equal-cost predecessors by
    it, so routes do not depend on insertion order or the process."""
    return (type(node).__name__, repr(node))


class Topology:
    """A capacitated network topology with per-direction capacities.

    Parameters
    ----------
    name:
        Human-readable topology name, used in reports.

    Notes
    -----
    Physical links are bidirectional but each direction has its own
    capacity.  ``add_link(u, v, capacity=c)`` is the symmetric
    full-duplex case (``c`` bits/s in each direction — the standard
    convention in flow-level network simulation and what the paper's
    Fig. 3 arithmetic assumes); pass ``capacity_reverse`` (or a
    ``(forward, reverse)`` capacity spec) for asymmetric links.

    Iteration order is insertion order throughout: :meth:`nodes` in the
    order nodes were first added, :meth:`neighbors` in the order the
    node's links were added, and :meth:`links` node by node, each link
    listed once from its earlier-added endpoint.  Workload samplers and
    detour tables read these orders, so they are part of the contract.
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        #: Nodes in insertion order; a node's position is its index.
        self._nodes: List[Node] = []
        self._index: Dict[Node, int] = {}
        #: Per node, neighbour -> link attributes, in link insertion
        #: order; both endpoints share one attribute dict per link.
        self._adj: Dict[Node, Dict[Node, Dict[str, float]]] = {}
        #: The same adjacency as neighbour indices, in the same order.
        self._nbrs: List[List[int]] = []
        self._num_links = 0
        #: Cached :meth:`node_ranks`; reset when a node is added.
        self._ranks: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Add *node* (idempotent) and return it."""
        if node not in self._index:
            self._index[node] = len(self._nodes)
            self._nodes.append(node)
            self._adj[node] = {}
            self._nbrs.append([])
            self._ranks = None
        return node

    def add_link(
        self,
        u: Node,
        v: Node,
        capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
        delay: float = DEFAULT_DELAY_S,
        capacity_reverse: Optional[float] = None,
    ) -> Link:
        """Add a link between *u* and *v*.

        ``capacity`` applies to the ``u -> v`` direction; the
        ``v -> u`` direction gets ``capacity_reverse`` when given,
        otherwise the same value (symmetric link).  ``capacity`` may
        also be a ``(forward, reverse)`` pair.

        Raises
        ------
        TopologyError
            If the link is a self-loop or a duplicate, its capacity in
            either direction is not finite and positive, or its delay
            is not finite and non-negative.
        """
        forward, reverse = split_capacity_spec(capacity)
        if capacity_reverse is not None:
            if isinstance(capacity, (tuple, list)):
                raise TopologyError(
                    "give either a (forward, reverse) capacity pair or "
                    "capacity_reverse, not both"
                )
            reverse = float(capacity_reverse)
        if u == v:
            raise TopologyError(f"self-loop not allowed: {u!r}")
        if self.has_link(u, v):
            raise TopologyError(f"duplicate link: {u!r} -- {v!r}")
        # Range checks written so that NaN fails them too: every
        # comparison with NaN is False.
        if not 0 < forward < math.inf:
            raise _capacity_error(u, v, forward)
        if not 0 < reverse < math.inf:
            raise _capacity_error(v, u, reverse)
        if not 0 <= delay < math.inf:
            raise _delay_error(u, v, delay)
        key = Link.key(u, v)
        cap_fwd, cap_rev = (forward, reverse) if (u, v) == key else (reverse, forward)
        self.add_node(u)
        self.add_node(v)
        self._adj[u][v] = self._adj[v][u] = {
            "capacity": cap_fwd,
            "capacity_rev": cap_rev,
            "delay": float(delay),
        }
        iu, iv = self._index[u], self._index[v]
        self._nbrs[iu].append(iv)
        self._nbrs[iv].append(iu)
        self._num_links += 1
        return key

    def remove_link(self, u: Node, v: Node) -> None:
        """Remove the link between *u* and *v*."""
        self._link_data(u, v)  # raises TopologyError for an unknown link
        del self._adj[u][v]
        del self._adj[v][u]
        iu, iv = self._index[u], self._index[v]
        self._nbrs[iu].remove(iv)
        self._nbrs[iv].remove(iu)
        self._num_links -= 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        return self._num_links

    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._nodes)

    def links(self) -> List[Link]:
        """All links as canonical ``(u, v)`` tuples."""
        return [Link.key(u, v) for u, v, _ in self._edges()]

    def has_node(self, node: Node) -> bool:
        try:
            return node in self._index
        except TypeError:
            return False

    def has_link(self, u: Node, v: Node) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, node: Node) -> List[Node]:
        nbrs = self._adj.get(node)
        if nbrs is None:
            raise TopologyError(f"unknown node: {node!r}")
        return list(nbrs)

    def degree(self, node: Node) -> int:
        nbrs = self._adj.get(node)
        if nbrs is None:
            raise TopologyError(f"unknown node: {node!r}")
        return len(nbrs)

    def capacity(self, u: Node, v: Node) -> float:
        """Capacity of the ``u -> v`` direction of the link, in bits/s."""
        data = self._link_data(u, v)
        if (u, v) == Link.key(u, v):
            return float(data["capacity"])
        return float(data["capacity_rev"])

    def delay(self, u: Node, v: Node) -> float:
        """One-way propagation delay of link ``(u, v)`` in seconds."""
        return float(self._link_data(u, v)["delay"])

    def set_capacity(self, u: Node, v: Node, capacity: CapacitySpec) -> None:
        """Set the link capacity.

        A bare number sets **both** directions (the historical
        symmetric behaviour); a ``(forward, reverse)`` pair sets the
        ``u -> v`` and ``v -> u`` directions respectively.
        """
        forward, reverse = split_capacity_spec(capacity)
        self.set_directed_capacity(u, v, forward)
        self.set_directed_capacity(v, u, reverse)

    def set_directed_capacity(self, u: Node, v: Node, capacity: float) -> None:
        """Set the capacity of the ``u -> v`` direction only."""
        if not 0 < capacity < math.inf:
            raise _capacity_error(u, v, capacity)
        data = self._link_data(u, v)
        attr = "capacity" if (u, v) == Link.key(u, v) else "capacity_rev"
        data[attr] = float(capacity)

    def set_delay(self, u: Node, v: Node, delay: float) -> None:
        if not 0 <= delay < math.inf:
            raise _delay_error(u, v, delay)
        self._link_data(u, v)["delay"] = float(delay)

    def is_symmetric(self) -> bool:
        """True when every link has equal capacity in both directions."""
        return all(
            data["capacity"] == data["capacity_rev"] for _, _, data in self._edges()
        )

    def is_connected(self) -> bool:
        if not self._nodes:
            return True
        return len(self._reachable(0)) == len(self._nodes)

    # ------------------------------------------------------------------
    # Integer view (read-only; used by hop-count routing)
    # ------------------------------------------------------------------
    def node_index(self, node: Node) -> int:
        """Position of *node* in :meth:`nodes`."""
        index = self._index.get(node)
        if index is None:
            raise TopologyError(f"unknown node: {node!r}")
        return index

    def adjacency(self) -> List[List[int]]:
        """Neighbour indices of every node, in :meth:`neighbors` order.

        The live structure, not a copy: callers must not modify it.
        """
        return self._nbrs

    def node_ranks(self) -> List[int]:
        """Position of every node in :func:`node_rank` order, by index.

        Computed once and cached until a node is added.
        """
        if self._ranks is None:
            nodes = self._nodes
            order = sorted(range(len(nodes)), key=lambda i: node_rank(nodes[i]))
            ranks = [0] * len(nodes)
            for rank, index in enumerate(order):
                ranks[index] = rank
            self._ranks = ranks
        return self._ranks

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Topology":
        """An independent copy with the same iteration orders."""
        clone = Topology(name or self.name)
        clone._nodes = list(self._nodes)
        clone._index = dict(self._index)
        clone._nbrs = [list(nbrs) for nbrs in self._nbrs]
        clone._num_links = self._num_links
        clone._ranks = self._ranks
        clone._adj = {node: {} for node in self._nodes}
        for u, nbrs in self._adj.items():
            copied = clone._adj[u]
            for v, data in nbrs.items():
                shared = clone._adj[v].get(u)
                copied[v] = dict(data) if shared is None else shared
        return clone

    @classmethod
    def from_links(
        cls,
        links: Iterable[Tuple[Node, Node]],
        name: str = "topology",
        capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
        delay: float = DEFAULT_DELAY_S,
    ) -> "Topology":
        """Build a topology from an iterable of ``(u, v)`` pairs."""
        topo = cls(name)
        for u, v in links:
            topo.add_link(u, v, capacity=capacity, delay=delay)
        return topo

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _edges(self) -> Iterator[Tuple[Node, Node, Dict[str, float]]]:
        """Every link once, as ``(u, v, attributes)`` with *u* the
        endpoint added first."""
        done = set()
        for u, nbrs in self._adj.items():
            for v, data in nbrs.items():
                if v not in done:
                    yield u, v, data
            done.add(u)

    def _reachable(self, start: int) -> set:
        """Indices reachable from *start*."""
        nbrs = self._nbrs
        seen = {start}
        stack = [start]
        while stack:
            for neighbour in nbrs[stack.pop()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return seen

    def _link_data(self, u: Node, v: Node) -> Dict[str, float]:
        try:
            return self._adj[u][v]
        except KeyError:
            raise TopologyError(f"unknown link: {u!r} -- {v!r}") from None

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __repr__(self) -> str:
        return f"Topology({self.name!r}, nodes={self.num_nodes}, links={self.num_links})"

    def directed_capacities(self) -> Dict[Link, float]:
        """Mapping of directed ``(u, v)`` link -> capacity (bits/s).

        Contains both orientations of every link; this is the map the
        flow-level allocators consume.
        """
        capacities: Dict[Link, float] = {}
        for u, v, data in self._edges():
            key = Link.key(u, v)
            fwd, rev = float(data["capacity"]), float(data["capacity_rev"])
            if (u, v) == key:
                capacities[(u, v)] = fwd
                capacities[(v, u)] = rev
            else:
                capacities[(u, v)] = rev
                capacities[(v, u)] = fwd
        return capacities
