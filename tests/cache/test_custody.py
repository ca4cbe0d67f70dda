"""Custody store tests (the paper's in-network temporary storage)."""

import pytest
from hypothesis import given, strategies as st

from repro.cache import CustodyStore, custody_duration
from repro.errors import CacheError
from repro.units import gbps, gigabytes


def test_paper_sizing_footnote():
    # "a 10GB cache after a 40Gbps link can hold incoming traffic for
    # 2 seconds" — Section 3.3.
    assert custody_duration(gigabytes(10), gbps(40)) == pytest.approx(2.0)


def test_custody_duration_validation():
    with pytest.raises(CacheError):
        custody_duration(-1, 100.0)
    with pytest.raises(CacheError):
        custody_duration(100, 0.0)


def test_fifo_order():
    store = CustodyStore(capacity_bytes=1000)
    for name in ("first", "second", "third"):
        assert store.accept(name, 100)
    assert store.release() == ("first", 100)
    assert store.release() == ("second", 100)
    assert store.release() == ("third", 100)
    assert store.release() is None


def test_budget_rejection():
    store = CustodyStore(capacity_bytes=250)
    assert store.accept("a", 100)
    assert store.accept("b", 100)
    assert not store.accept("c", 100)   # would exceed 250
    assert store.stats.rejected == 1
    store.release()
    assert store.accept("c", 100)       # room again after drain


def test_unbounded_store():
    store = CustodyStore(capacity_bytes=None)
    for i in range(1000):
        assert store.accept(i, 10_000)
    assert store.used_bytes == 10_000_000


def test_stats_tracking():
    store = CustodyStore(capacity_bytes=300)
    store.accept("a", 100)
    store.accept("b", 200)
    store.release()
    assert store.stats.accepted == 2
    assert store.stats.released == 1
    assert store.stats.peak_bytes == 300
    assert store.stats.accepted_bytes == 300
    assert store.used_bytes == 200


def test_validation():
    with pytest.raises(CacheError):
        CustodyStore(capacity_bytes=-5)
    store = CustodyStore(100)
    with pytest.raises(CacheError):
        store.accept("x", -1)


@given(st.lists(st.integers(min_value=0, max_value=60), max_size=200))
def test_custody_never_exceeds_budget(sizes):
    store = CustodyStore(capacity_bytes=150)
    accepted = 0
    for index, size in enumerate(sizes):
        if store.accept(index, size):
            accepted += 1
        assert store.used_bytes <= 150
        if index % 3 == 0:
            store.release()
    assert store.stats.accepted == accepted
    # Conservation: everything accepted is either inside or released.
    assert store.stats.accepted == len(store) + store.stats.released
