"""Capacity asymmetry tests."""

import pytest

from repro.errors import ConfigurationError
from repro.topology import apply_capacity_asymmetry, star_topology
from repro.units import mbps


def test_apply_capacity_asymmetry():
    topo = star_topology(4, capacity=mbps(10))
    apply_capacity_asymmetry(topo, 0.25)
    assert not topo.is_symmetric()
    for u, v in topo.links():
        assert topo.capacity(u, v) == mbps(10)
        assert topo.capacity(v, u) == pytest.approx(mbps(2.5))
    with pytest.raises(ConfigurationError):
        apply_capacity_asymmetry(topo, 0.0)
    with pytest.raises(ConfigurationError):
        apply_capacity_asymmetry(topo, float("inf"))
