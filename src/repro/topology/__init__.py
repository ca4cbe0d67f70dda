"""Topology substrate: capacitated graphs, generators and ISP profiles.

The paper's evaluation runs on nine Rocketfuel-derived ISP maps and one
small worked-example topology (Fig. 3).  This package provides:

- :class:`~repro.topology.graph.Topology` — a capacitated graph with
  per-direction link capacities (symmetric links are the special case
  built by a scalar capacity spec) and link delays;
- :mod:`~repro.topology.blocks` — motif builders (triangle fans,
  square chains, long cycles, pendants) whose links have a known detour
  class *by construction*;
- :mod:`~repro.topology.generators` — the block-mix generator used to
  synthesise the ISP maps, plus a random mesh generator;
- :mod:`~repro.topology.isp` — the nine ISP profiles of Table 1 and the
  integer solver that recovers per-class link counts from the paper's
  percentages;
- :mod:`~repro.topology.builders` — small hand-built topologies
  (Fig. 3, dumbbell, line, star) used by tests and examples;
- :mod:`~repro.topology.capacity` — reverse-direction capacity asymmetry.
"""

from repro.topology.graph import CapacitySpec, Link, Topology, split_capacity_spec
from repro.topology.builders import (
    dumbbell_topology,
    fig3_topology,
    line_topology,
    star_topology,
)
from repro.topology.generators import BlockMixReport, block_mix_topology, mesh_topology
from repro.topology.isp import (
    ISP_NAMES,
    IspProfile,
    build_isp_topology,
    isp_profile,
    solve_link_counts,
)
from repro.topology.capacity import apply_capacity_asymmetry

__all__ = [
    "Topology",
    "Link",
    "CapacitySpec",
    "split_capacity_spec",
    "fig3_topology",
    "dumbbell_topology",
    "line_topology",
    "star_topology",
    "block_mix_topology",
    "mesh_topology",
    "BlockMixReport",
    "ISP_NAMES",
    "IspProfile",
    "isp_profile",
    "build_isp_topology",
    "solve_link_counts",
    "apply_capacity_asymmetry",
]
