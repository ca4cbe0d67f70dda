"""Topology generators.

Two generators are provided:

- :func:`block_mix_topology` — the Table 1 workhorse: given a target
  number of links per detour class, it glues triangle fans, square
  chains, long cycles and pendant edges at randomly chosen articulation
  vertices.  Because blocks share only single vertices with the rest of
  the graph, the resulting topology realises the requested detour-class
  mix *exactly*.  These synthetic maps stand in for the paper's
  Rocketfuel maps, which are not available offline.
- :func:`mesh_topology` — a random connected mesh (spanning tree plus
  random chords with optional triangle closure), used for sensitivity
  experiments where an organic, non-cactus structure is preferable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.rng import SeedLike, make_rng
from repro.topology import blocks
from repro.topology.graph import (
    DEFAULT_CAPACITY_BPS,
    DEFAULT_DELAY_S,
    CapacitySpec,
    Link,
    Topology,
)


@dataclass
class BlockMixReport:
    """What :func:`block_mix_topology` actually built.

    Attributes
    ----------
    requested:
        ``(one_hop, two_hop, three_plus, none)`` link counts requested.
    built:
        Link counts actually realised, keyed by class name.
    links_by_class:
        The concrete links created for each class (canonical tuples).
    """

    requested: Tuple[int, int, int, int]
    built: Dict[str, int] = field(default_factory=dict)
    links_by_class: Dict[str, List[Link]] = field(default_factory=dict)

    @property
    def total_links(self) -> int:
        return sum(self.built.values())


def block_mix_topology(
    one_hop: int,
    two_hop: int,
    three_plus: int,
    none: int,
    seed: SeedLike = 0,
    name: str = "block-mix",
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
) -> Tuple[Topology, BlockMixReport]:
    """Build a topology with an exact per-link detour-class mix.

    Parameters
    ----------
    one_hop, two_hop, three_plus, none:
        Number of links whose best detour must be 1 hop, 2 hops,
        3+ hops, and non-existent respectively.  Small counts that no
        motif combination can realise (e.g. ``one_hop=4``) raise
        :class:`~repro.errors.ConfigurationError` via the block
        decomposers; :func:`repro.topology.isp.solve_link_counts`
        avoids them when calibrating ISP profiles.
    seed:
        Seed (or generator) controlling motif order and attachment
        points only — the class mix itself is deterministic.
    capacity, delay:
        Every link's, set once as its block adds it.  A
        ``(forward, reverse)`` capacity gives forward to the
        ``key[0] -> key[1]`` direction of each link's :meth:`Link.key`.

    Returns
    -------
    (topology, report):
        The topology plus a :class:`BlockMixReport` with the links
        created for each class.
    """
    for label, value in (
        ("one_hop", one_hop),
        ("two_hop", two_hop),
        ("three_plus", three_plus),
        ("none", none),
    ):
        if value < 0:
            raise ConfigurationError(f"{label} count must be >= 0, got {value}")
    if one_hop + two_hop + three_plus + none == 0:
        raise ConfigurationError("at least one link is required")

    rng = make_rng(seed, "block-mix")
    topo = Topology(name)
    namer = blocks.NodeNamer()
    root = topo.add_node(namer.fresh())
    attach_pool: List = [root]

    # (class label, builder, size) per motif; pendants are size-1 motifs.
    plan: List[Tuple[str, int]] = []
    plan.extend(("one_hop", size) for size in blocks.decompose_one_hop(one_hop))
    plan.extend(("two_hop", size) for size in blocks.decompose_two_hop(two_hop))
    plan.extend(
        ("three_plus", size) for size in blocks.decompose_three_plus(three_plus)
    )
    plan.extend(("none", 1) for _ in range(none))
    order = rng.permutation(len(plan))

    report = BlockMixReport(requested=(one_hop, two_hop, three_plus, none))
    for label in ("one_hop", "two_hop", "three_plus", "none"):
        report.built[label] = 0
        report.links_by_class[label] = []

    builders = {
        "one_hop": blocks.add_triangle_fan,
        "two_hop": blocks.add_square_chain,
        "three_plus": blocks.add_long_cycle,
    }
    for index in order:
        label, size = plan[index]
        attach = attach_pool[int(rng.integers(0, len(attach_pool)))]
        if label == "none":
            created = [blocks.add_pendant(topo, attach, namer, capacity, delay)]
        else:
            created = builders[label](topo, attach, size, namer, capacity, delay)
        report.built[label] += len(created)
        report.links_by_class[label].extend(created)
        attach_pool = topo.nodes()
    return topo, report


def mesh_topology(
    num_nodes: int,
    extra_links: int,
    triangle_fraction: float = 0.3,
    seed: SeedLike = 0,
    name: str = "mesh",
    capacity: CapacitySpec = DEFAULT_CAPACITY_BPS,
    delay: float = DEFAULT_DELAY_S,
) -> Topology:
    """Build a random connected mesh.

    The generator first draws a uniform random spanning tree (random
    attachment), then adds *extra_links* chords; a *triangle_fraction*
    of the chords deliberately close triangles (connect two neighbours
    of a random node), which raises 1-hop detour availability the way
    dense ISP cores do.
    """
    if num_nodes < 2:
        raise ConfigurationError(f"need >= 2 nodes, got {num_nodes}")
    max_links = num_nodes * (num_nodes - 1) // 2
    if num_nodes - 1 + extra_links > max_links:
        raise ConfigurationError(
            f"{extra_links} extra links do not fit in a {num_nodes}-node graph"
        )
    if not 0.0 <= triangle_fraction <= 1.0:
        raise ConfigurationError(
            f"triangle_fraction must be in [0, 1], got {triangle_fraction}"
        )

    rng = make_rng(seed, "mesh")
    topo = Topology(name)
    topo.add_node(0)
    for node in range(1, num_nodes):
        attach = int(rng.integers(0, node))
        topo.add_link(attach, node, capacity=capacity, delay=delay)

    added = 0
    attempts = 0
    max_attempts = 50 * (extra_links + 1)
    while added < extra_links and attempts < max_attempts:
        attempts += 1
        if rng.random() < triangle_fraction:
            hub = int(rng.integers(0, num_nodes))
            neighbours = topo.neighbors(hub)
            if len(neighbours) < 2:
                continue
            pick = rng.choice(len(neighbours), size=2, replace=False)
            u, v = neighbours[int(pick[0])], neighbours[int(pick[1])]
        else:
            u = int(rng.integers(0, num_nodes))
            v = int(rng.integers(0, num_nodes))
        if u == v or topo.has_link(u, v):
            continue
        topo.add_link(u, v, capacity=capacity, delay=delay)
        added += 1
    return topo
