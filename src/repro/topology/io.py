"""Topology serialisation as JSON documents.

Lets users persist calibrated ISP maps (so experiment suites do not
regenerate them) and import their own topologies into the simulators.

JSON schema::

    {"name": "...",
     "nodes": [...],
     "links": [{"u": ..., "v": ..., "capacity": bps,
                "capacity_reverse": bps, "delay": s, "weight": w}, ...]}

``capacity`` is the ``u -> v`` direction and ``capacity_reverse`` the
``v -> u`` direction.  Legacy documents without ``capacity_reverse``
load as symmetric links (a one-time warning notes the assumption).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Union

from repro.errors import TopologyError
from repro.topology.graph import DEFAULT_CAPACITY_BPS, DEFAULT_DELAY_S, Topology

PathLike = Union[str, Path]

#: One-time flag: legacy (direction-less) documents warn only once per
#: process, not once per link or per file.
_warned_legacy_symmetric = False


def _warn_legacy_symmetric(source: str) -> None:
    global _warned_legacy_symmetric
    if _warned_legacy_symmetric:
        return
    _warned_legacy_symmetric = True
    warnings.warn(
        f"{source} has no per-direction capacities ('capacity_reverse'); "
        "loading links as symmetric (same capacity in both directions)",
        UserWarning,
        stacklevel=3,
    )


def topology_to_dict(topo: Topology) -> dict:
    """Serialise *topo* into a JSON-compatible dictionary."""
    return {
        "name": topo.name,
        "nodes": topo.nodes(),
        "links": [
            {
                "u": u,
                "v": v,
                "capacity": topo.capacity(u, v),
                "capacity_reverse": topo.capacity(v, u),
                "delay": topo.delay(u, v),
                "weight": topo.weight(u, v),
            }
            for u, v in topo.links()
        ],
    }


def topology_from_dict(document: dict) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output."""
    if "links" not in document:
        raise TopologyError("topology document has no 'links' field")
    topo = Topology(document.get("name", "topology"))
    for node in document.get("nodes", []):
        topo.add_node(_freeze(node))
    legacy = False
    for link in document["links"]:
        try:
            capacity = float(link.get("capacity", DEFAULT_CAPACITY_BPS))
            if "capacity_reverse" in link:
                reverse = float(link["capacity_reverse"])
            else:
                legacy = True
                reverse = capacity
            topo.add_link(
                _freeze(link["u"]),
                _freeze(link["v"]),
                capacity=capacity,
                capacity_reverse=reverse,
                delay=float(link.get("delay", DEFAULT_DELAY_S)),
                weight=float(link.get("weight", 1.0)),
            )
        except KeyError as missing:
            raise TopologyError(f"link record missing field {missing}") from None
    if legacy:
        _warn_legacy_symmetric(f"topology document {topo.name!r}")
    return topo


def _freeze(node):
    """JSON round-trips tuples into lists; restore hashability."""
    if isinstance(node, list):
        return tuple(_freeze(item) for item in node)
    return node


def save_topology(topo: Topology, path: PathLike) -> None:
    """Write *topo* as a JSON document."""
    Path(path).write_text(json.dumps(topology_to_dict(topo), indent=2))


def load_topology(path: PathLike) -> Topology:
    """Read a topology JSON document."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise TopologyError(f"invalid topology JSON in {path}: {error}") from None
    return topology_from_dict(document)
