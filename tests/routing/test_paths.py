"""Path helper tests."""

import pytest

from repro.errors import RoutingError
from repro.routing import path_hops, path_links, path_stretch


def test_path_hops_and_links():
    assert path_hops((1, 2, 4)) == 2
    assert path_links((1, 2, 4)) == [(1, 2), (2, 4)]
    # Keys are directed: the reverse walk uses the reverse-direction links.
    assert path_links((4, 2, 1)) == [(4, 2), (2, 1)]


def test_empty_path_rejected():
    with pytest.raises(RoutingError):
        path_hops(())


def test_path_stretch():
    assert path_stretch((1, 2, 3), 2) == 1.0
    assert path_stretch((1, 2, 3, 4), 2) == 1.5
    with pytest.raises(RoutingError):
        path_stretch((1, 2), 0)
