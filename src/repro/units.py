"""Unit helpers for link rates, data sizes and time.

Internally the whole library uses a single convention:

- **rates** are floats in bits per second (bps),
- **sizes** are integers in bytes,
- **times** are floats in seconds.

This module provides readable constructors (``mbps(10)``,
``gigabytes(10)``), parsers for human strings (``parse_rate("40Gbps")``)
and formatters used by the reporting code.
"""

from __future__ import annotations

import re

from repro.errors import ConfigurationError

#: Number of bits in a byte; chunk sizes are bytes, link rates are bits/s.
BITS_PER_BYTE = 8

_DECIMAL = 1000.0

_RATE_SUFFIXES = {
    "bps": 1.0,
    "kbps": _DECIMAL,
    "mbps": _DECIMAL**2,
    "gbps": _DECIMAL**3,
    "tbps": _DECIMAL**4,
}

_SIZE_SUFFIXES = {
    "b": 1,
    "kb": 10**3,
    "mb": 10**6,
    "gb": 10**9,
    "tb": 10**12,
    "kib": 2**10,
    "mib": 2**20,
    "gib": 2**30,
    "tib": 2**40,
}

_NUMBER_WITH_UNIT = re.compile(r"^\s*([0-9]*\.?[0-9]+)\s*([a-zA-Z/]+)\s*$")


def kbps(value: float) -> float:
    """Return *value* kilobits/s expressed in bits/s."""
    return float(value) * _DECIMAL


def mbps(value: float) -> float:
    """Return *value* megabits/s expressed in bits/s."""
    return float(value) * _DECIMAL**2


def gbps(value: float) -> float:
    """Return *value* gigabits/s expressed in bits/s."""
    return float(value) * _DECIMAL**3


def gigabytes(value: float) -> int:
    """Return *value* GB (decimal) expressed in bytes."""
    return int(round(float(value) * 10**9))


def parse_rate(text: str) -> float:
    """Parse a human-readable rate such as ``"40Gbps"`` into bits/s.

    Accepted suffixes are ``bps``, ``kbps``, ``Mbps``, ``Gbps`` and
    ``Tbps`` (case-insensitive, ``b/s`` style separators allowed).

    >>> parse_rate("10Mbps")
    10000000.0
    """
    if isinstance(text, (int, float)):
        return float(text)
    match = _NUMBER_WITH_UNIT.match(text)
    if match is None:
        raise ConfigurationError(f"cannot parse rate: {text!r}")
    value, unit = match.groups()
    unit = unit.lower().replace("/s", "ps").replace("bit", "b")
    multiplier = _RATE_SUFFIXES.get(unit)
    if multiplier is None:
        raise ConfigurationError(f"unknown rate unit in {text!r}")
    return float(value) * multiplier


def parse_size(text: str) -> int:
    """Parse a human-readable size such as ``"10GB"`` into bytes.

    Decimal (``kB``/``MB``/``GB``/``TB``) and binary (``KiB``/``MiB``/
    ``GiB``/``TiB``) suffixes are accepted, case-insensitively.

    >>> parse_size("10GB")
    10000000000
    """
    if isinstance(text, int):
        return text
    match = _NUMBER_WITH_UNIT.match(str(text))
    if match is None:
        raise ConfigurationError(f"cannot parse size: {text!r}")
    value, unit = match.groups()
    multiplier = _SIZE_SUFFIXES.get(unit.lower())
    if multiplier is None:
        raise ConfigurationError(f"unknown size unit in {text!r}")
    return int(round(float(value) * multiplier))


def format_rate(bits_per_second: float) -> str:
    """Format a bits/s value with the most natural suffix.

    >>> format_rate(2_000_000.0)
    '2.00Mbps'
    """
    value = float(bits_per_second)
    for suffix, multiplier in (
        ("Tbps", _DECIMAL**4),
        ("Gbps", _DECIMAL**3),
        ("Mbps", _DECIMAL**2),
        ("kbps", _DECIMAL),
    ):
        if abs(value) >= multiplier:
            return f"{value / multiplier:.2f}{suffix}"
    return f"{value:.0f}bps"


def format_size(num_bytes: int) -> str:
    """Format a byte count with the most natural decimal suffix."""
    value = float(num_bytes)
    for suffix, multiplier in (("TB", 1e12), ("GB", 1e9), ("MB", 1e6), ("kB", 1e3)):
        if abs(value) >= multiplier:
            return f"{value / multiplier:.2f}{suffix}"
    return f"{int(value)}B"


def transmission_time(size_bytes: int, rate_bps: float) -> float:
    """Serialization delay in seconds of *size_bytes* over *rate_bps*.

    >>> transmission_time(1250, 10_000.0)  # 10 kbit over 10 kbps
    1.0
    """
    if rate_bps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_bps!r}")
    if size_bytes < 0:
        raise ConfigurationError(f"size must be non-negative, got {size_bytes!r}")
    return (size_bytes * BITS_PER_BYTE) / rate_bps
