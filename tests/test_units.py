"""Unit-conversion and parsing tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.units import (
    BITS_PER_BYTE,
    format_rate,
    format_size,
    gbps,
    gigabytes,
    kbps,
    mbps,
    parse_rate,
    parse_size,
    transmission_time,
)


def test_rate_constructors():
    assert kbps(1) == 1_000.0
    assert mbps(10) == 10_000_000.0
    assert gbps(40) == 40_000_000_000.0


def test_size_constructors():
    assert gigabytes(10) == 10_000_000_000


@pytest.mark.parametrize(
    "text,expected",
    [
        ("10Mbps", 10e6),
        ("40Gbps", 40e9),
        ("1.5kbps", 1500.0),
        ("300bps", 300.0),
        ("2Tbps", 2e12),
        ("10 Mbps", 10e6),
        ("10mbps", 10e6),
    ],
)
def test_parse_rate(text, expected):
    assert parse_rate(text) == pytest.approx(expected)


def test_parse_rate_passthrough_numbers():
    assert parse_rate(5000) == 5000.0
    assert parse_rate(5000.5) == 5000.5


@pytest.mark.parametrize("bad", ["", "Mbps", "10 parsecs", "fast"])
def test_parse_rate_rejects_garbage(bad):
    with pytest.raises(ConfigurationError):
        parse_rate(bad)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("10GB", 10_000_000_000),
        ("1KiB", 1024),
        ("2MiB", 2 * 2**20),
        ("500B", 500),
        ("1.5MB", 1_500_000),
    ],
)
def test_parse_size(text, expected):
    assert parse_size(text) == expected


def test_parse_size_rejects_garbage():
    with pytest.raises(ConfigurationError):
        parse_size("10 furlongs")


def test_format_rate_round_trip_suffixes():
    assert format_rate(2_000_000) == "2.00Mbps"
    assert format_rate(40e9) == "40.00Gbps"
    assert format_rate(500) == "500bps"
    assert format_rate(1.5e12) == "1.50Tbps"


def test_format_size():
    assert format_size(10_000_000_000) == "10.00GB"
    assert format_size(999) == "999B"


def test_transmission_time_paper_example():
    # The paper's footnote arithmetic via link-time: 10GB at 40Gbps.
    assert transmission_time(gigabytes(10), gbps(40)) == pytest.approx(2.0)


def test_transmission_time_errors():
    with pytest.raises(ConfigurationError):
        transmission_time(100, 0.0)
    with pytest.raises(ConfigurationError):
        transmission_time(-1, 100.0)


@given(st.floats(min_value=0.001, max_value=1e6))
def test_rate_parse_format_consistency(value):
    rate = mbps(value)
    assert parse_rate(f"{value}Mbps") == pytest.approx(rate, rel=1e-9)


@given(st.integers(min_value=1, max_value=10**9), st.floats(min_value=1.0, max_value=1e12))
def test_transmission_time_positive(size, rate):
    t = transmission_time(size, rate)
    assert t >= 0
    assert t == pytest.approx(size * BITS_PER_BYTE / rate)
