"""Capacity asymmetry.

The paper's flow-level evaluation uses homogeneous, symmetric core
capacities; :func:`apply_capacity_asymmetry` turns such a topology
into an asymmetric one by scaling the reverse direction of every link
(in place, returning the topology for chaining).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.topology.graph import Topology


def apply_capacity_asymmetry(topo: Topology, ratio: float) -> Topology:
    """Scale the reverse direction of every link by *ratio*.

    Starting from any (typically symmetric) topology, the canonical
    ``u -> v`` direction keeps its capacity and the ``v -> u``
    direction becomes ``ratio`` times the forward one — the simplest
    model of asymmetric (e.g. wireless or provisioned-uplink) links.
    ``ratio=1.0`` is a no-op.
    """
    if ratio <= 0 or not math.isfinite(ratio):
        raise ConfigurationError(f"ratio must be positive and finite, got {ratio!r}")
    for u, v in topo.links():
        forward = topo.capacity(u, v)
        topo.set_directed_capacity(v, u, forward * ratio)
    return topo
