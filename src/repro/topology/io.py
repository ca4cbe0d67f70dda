"""Topology serialisation as JSON documents.

Lets users persist calibrated ISP maps (so experiment suites do not
regenerate them) and import their own topologies into the simulators.

JSON schema::

    {"name": "...",
     "nodes": [...],
     "links": [{"u": ..., "v": ..., "capacity": bps,
                "capacity_reverse": bps, "delay": s}, ...]}

``capacity`` is the ``u -> v`` direction and ``capacity_reverse`` the
``v -> u`` direction.  Legacy documents without ``capacity_reverse``
load as symmetric links, and a warning is logged once per document.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Union

from repro.errors import TopologyError
from repro.topology.graph import DEFAULT_CAPACITY_BPS, DEFAULT_DELAY_S, Topology

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)


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
            }
            for u, v in topo.links()
        ],
    }


def topology_from_dict(document: dict) -> Topology:
    """Rebuild a topology from :func:`topology_to_dict` output; any
    malformed document raises :class:`~repro.errors.TopologyError`."""
    if not isinstance(document, dict) or "links" not in document:
        raise TopologyError("topology document is not an object with 'links'")
    nodes, links = document.get("nodes", []), document["links"]
    for field, value in (("nodes", nodes), ("links", links)):
        if not isinstance(value, list):
            raise TopologyError(f"topology field {field!r} is not a list")
    topo = Topology(document.get("name", "topology"))
    for node in nodes:
        topo.add_node(_freeze(node))
    legacy = False
    for link in links:
        if not isinstance(link, dict):
            raise TopologyError(f"link record {link!r} is not a JSON object")
        try:
            # Routing is by hop count, so any other link weight would be
            # ignored.  Older documents carry weight 1 and still load.
            if link.get("weight", 1) != 1:
                raise TopologyError(
                    f"link {link['u']!r} -- {link['v']!r} has routing weight "
                    f"{link['weight']!r}; routing is by hop count, so every "
                    "link must weigh 1"
                )
            legacy = legacy or "capacity_reverse" not in link
            capacity = _number(link, "capacity", DEFAULT_CAPACITY_BPS)
            reverse = _number(link, "capacity_reverse", capacity)
            topo.add_link(
                _freeze(link["u"]),
                _freeze(link["v"]),
                capacity=capacity,
                capacity_reverse=reverse,
                delay=_number(link, "delay", DEFAULT_DELAY_S),
            )
        except KeyError as missing:
            raise TopologyError(f"link record missing field {missing}") from None
    if legacy:
        logger.warning(
            "topology document %r has no per-direction capacities "
            "('capacity_reverse'); loading links as symmetric (same "
            "capacity in both directions)",
            topo.name,
        )
    return topo


def _number(link: dict, field: str, default: float) -> float:
    """*link*'s *field* as a float (*default* when absent).  Its range,
    NaN included, is :meth:`Topology.add_link`'s to check."""
    value = link.get(field, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise TopologyError(f"link field {field!r} is not a number: {value!r}") from None


def _freeze(node):
    """JSON round-trips tuples into lists; restore hashability."""
    if isinstance(node, list):
        return tuple(_freeze(item) for item in node)
    if isinstance(node, dict):
        raise TopologyError(f"node {node!r} is a JSON object, not a name")
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
