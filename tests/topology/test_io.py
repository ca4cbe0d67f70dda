"""Topology serialisation round-trips."""

import logging

import pytest

from repro.errors import TopologyError
from repro.topology import Topology, build_isp_topology, fig3_topology
from repro.topology.io import (
    load_topology,
    save_topology,
    topology_from_dict,
    topology_to_dict,
)


def _assert_same(a: Topology, b: Topology) -> None:
    assert sorted(map(repr, a.nodes())) == sorted(map(repr, b.nodes()))
    assert sorted(map(repr, a.links())) == sorted(map(repr, b.links()))
    for u, v in a.links():
        # Both directions must survive the round trip.
        assert a.capacity(u, v) == pytest.approx(b.capacity(u, v))
        assert a.capacity(v, u) == pytest.approx(b.capacity(v, u))
        assert a.delay(u, v) == pytest.approx(b.delay(u, v))


def _asymmetric_topology() -> Topology:
    topo = Topology("asym")
    topo.add_link("a", "b", capacity=(8e6, 2e6))
    topo.add_link("b", "c", capacity=5e6)
    topo.set_directed_capacity("c", "b", 1e6)
    return topo


def test_dict_round_trip_fig3():
    topo = fig3_topology()
    clone = topology_from_dict(topology_to_dict(topo))
    _assert_same(topo, clone)
    assert clone.name == "fig3"


def test_json_file_round_trip(tmp_path):
    topo = build_isp_topology("vsnl", seed=0)
    path = tmp_path / "vsnl.json"
    save_topology(topo, path)
    clone = load_topology(path)
    _assert_same(topo, clone)


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(TopologyError):
        load_topology(path)


def test_dict_validation():
    with pytest.raises(TopologyError):
        topology_from_dict({"name": "x"})
    with pytest.raises(TopologyError):
        topology_from_dict({"links": [{"u": 1}]})


_LINK = {"u": 1, "v": 2, "capacity": 1e6, "capacity_reverse": 1e6, "delay": 0.01}


@pytest.mark.parametrize(
    "document",
    [
        {"links": [{**_LINK, "capacity": "fast"}]},
        {"links": [{**_LINK, "capacity_reverse": "fast"}]},
        {"links": [{**_LINK, "delay": "fast"}]},
        {"links": [{**_LINK, "capacity": None}]},
        {"links": [{**_LINK, "capacity_reverse": None}]},
        {"links": [{**_LINK, "delay": None}]},
        {"links": [{**_LINK, "capacity": float("nan")}]},
        {"links": [[1, 2]]},
        {"links": 5},
        {"nodes": 5, "links": []},
        {"nodes": [{"id": 1}], "links": []},
        [_LINK],
    ],
    ids=[
        "capacity-text",
        "capacity-reverse-text",
        "delay-text",
        "capacity-null",
        "capacity-reverse-null",
        "delay-null",
        "capacity-nan",
        "link-as-list",
        "links-not-a-list",
        "nodes-not-a-list",
        "node-as-object",
        "document-not-an-object",
    ],
)
def test_malformed_document_raises_topology_error(document):
    # A caller catching ReproError around load_topology must survive
    # outside input: no bare TypeError/ValueError/AttributeError.
    with pytest.raises(TopologyError):
        topology_from_dict(document)
    assert topology_from_dict({"links": [_LINK]}).num_links == 1


def test_dict_round_trip_asymmetric():
    topo = _asymmetric_topology()
    clone = topology_from_dict(topology_to_dict(topo))
    _assert_same(topo, clone)
    assert clone.capacity("a", "b") == 8e6
    assert clone.capacity("b", "a") == 2e6
    assert clone.capacity("c", "b") == 1e6


def test_json_file_round_trip_asymmetric(tmp_path):
    topo = _asymmetric_topology()
    path = tmp_path / "asym.json"
    save_topology(topo, path)
    _assert_same(topo, load_topology(path))


def _io_records(caplog):
    return [r for r in caplog.records if r.name == "repro.topology.io"]


def test_legacy_document_warns_once_and_loads_symmetric(caplog):
    legacy = {
        "name": "old",
        "links": [
            {"u": 1, "v": 2, "capacity": 4e6},
            {"u": 2, "v": 3, "capacity": 2e6, "weight": 1.0},
        ],
    }
    with caplog.at_level(logging.WARNING):
        topo = topology_from_dict(legacy)
    assert topo.capacity(1, 2) == 4e6
    assert topo.capacity(2, 1) == 4e6
    # One warning per document, not one per link.
    [record] = _io_records(caplog)
    assert record.levelno == logging.WARNING
    assert "'old'" in record.getMessage()
    assert "symmetric" in record.getMessage()


def test_directed_document_does_not_warn(caplog):
    document = topology_to_dict(_asymmetric_topology())
    with caplog.at_level(logging.DEBUG):
        topology_from_dict(document)
    assert _io_records(caplog) == []


def test_weighted_link_rejected():
    # Routing is by hop count: a weight other than 1 would be ignored,
    # so the document is refused instead of silently rerouted.
    document = topology_to_dict(_asymmetric_topology())
    assert all("weight" not in link for link in document["links"])
    document["links"][0]["weight"] = 10
    with pytest.raises(TopologyError, match="weight"):
        topology_from_dict(document)
    document["links"][0]["weight"] = 1.0
    assert topology_from_dict(document).num_links == 2
