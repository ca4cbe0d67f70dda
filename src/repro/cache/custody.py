"""Custody store — the paper's central new use of in-network storage.

Instead of holding the most *popular* content, the custody store gives
*temporary custody* to incoming chunks that cannot be forwarded (no
spare capacity, no detour), in strict FIFO order, until the bottleneck
drains.  The back-pressure phase exists to keep this store bounded.

The paper's sizing footnote: "a 10GB cache after a 40Gbps link can
hold incoming traffic for 2 seconds" — see :func:`custody_duration`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, Optional, Tuple, TypeVar

from repro.errors import CacheError
from repro.units import BITS_PER_BYTE

ItemT = TypeVar("ItemT")


def custody_duration(capacity_bytes: int, link_rate_bps: float) -> float:
    """Seconds of line-rate traffic a custody store can absorb.

    >>> from repro.units import gigabytes, gbps
    >>> custody_duration(gigabytes(10), gbps(40))
    2.0
    """
    if capacity_bytes < 0:
        raise CacheError(f"capacity must be >= 0, got {capacity_bytes}")
    if link_rate_bps <= 0:
        raise CacheError(f"link rate must be positive, got {link_rate_bps}")
    return capacity_bytes * BITS_PER_BYTE / link_rate_bps


@dataclass
class CustodyStats:
    accepted: int = 0
    rejected: int = 0
    released: int = 0
    peak_bytes: int = 0
    accepted_bytes: int = 0


class CustodyStore(Generic[ItemT]):
    """FIFO byte-budgeted store of chunks awaiting forwarding.

    ``capacity_bytes=None`` models an unbounded store (useful to
    measure how much custody INRPP *would* take without back-pressure).
    """

    def __init__(self, capacity_bytes: Optional[int] = None):
        if capacity_bytes is not None and capacity_bytes < 0:
            raise CacheError(f"capacity must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._queue: Deque[Tuple[ItemT, int]] = deque()
        self._used = 0
        self.stats = CustodyStats()

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._queue)

    def __bool__(self) -> bool:
        # Truthiness reflects existence, not emptiness, to avoid the
        # classic `if store:` bug; use `len(store)` for occupancy.
        return True

    def would_accept(self, size_bytes: int) -> bool:
        if self.capacity_bytes is None:
            return True
        return self._used + size_bytes <= self.capacity_bytes

    def accept(self, item: ItemT, size_bytes: int) -> bool:
        """Take custody of *item*; False if the store is full."""
        if size_bytes < 0:
            raise CacheError(f"size must be >= 0, got {size_bytes}")
        if not self.would_accept(size_bytes):
            self.stats.rejected += 1
            return False
        self._queue.append((item, size_bytes))
        self._used += size_bytes
        self.stats.accepted += 1
        self.stats.accepted_bytes += size_bytes
        self.stats.peak_bytes = max(self.stats.peak_bytes, self._used)
        return True

    def release(self) -> Optional[Tuple[ItemT, int]]:
        """Pop the oldest (item, size) pair, or None when empty."""
        if not self._queue:
            return None
        item, size = self._queue.popleft()
        self._used -= size
        self.stats.released += 1
        return item, size

