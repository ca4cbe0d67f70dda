"""Caching substrate: the INRPP custody store."""

from repro.cache.custody import CustodyStore, custody_duration

__all__ = ["CustodyStore", "custody_duration"]
