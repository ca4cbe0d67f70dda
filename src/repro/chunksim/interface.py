"""Router interface: line-queue watermarks and the custody store.

Each outgoing interface of an INRPP router decides per chunk with two
local signals, the line queue and its custody store:

- **push-data** while the line queue is under the high watermark and
  the interface holds no custody chunk (:meth:`can_accept`);
- otherwise the router **detours** the chunk or, with no detour
  available, takes it into custody and sends **back-pressure**.

The custody store is the in-network storage of the paper: chunks that
could be neither forwarded nor detoured wait there (FIFO) and drain
back into the line as soon as the queue falls below the low watermark.
The paper's Eq. 1 anticipated rate is not modelled: no decision here
reads the requests the router forwarded upstream.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.custody import CustodyStore
from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.link import SimLink
from repro.chunksim.messages import DataChunk


class RouterInterface:
    """One outgoing interface (toward a single neighbour)."""

    def __init__(self, link: SimLink, config: ChunkSimConfig):
        self.link = link
        self.custody = CustodyStore(config.custody_bytes)
        #: The neighbour this interface points at (plain attribute:
        #: read in every forward/pump decision).
        self.neighbor = link.dst
        # Hot-path constants: the config exposes these as computed
        # properties, which is too slow for per-chunk decisions.
        self._high_wm_bytes = config.high_watermark_bytes
        self._low_wm_bytes = config.low_watermark_bytes

    def can_accept(self, size_bytes: int) -> bool:
        """Room on the line without overtaking custody chunks."""
        if len(self.custody):
            return False
        return self.link.queue_bytes + size_bytes <= self._high_wm_bytes

    def take_custody(self, chunk: DataChunk) -> bool:
        """Store *chunk* until the line drains; False when full."""
        return self.custody.accept(chunk, chunk.size_bytes)

    def drain_custody(self) -> Optional[DataChunk]:
        """Move one custody chunk to the line if there is room."""
        if self.link.queue_bytes > self._low_wm_bytes:
            return None
        released = self.custody.release()
        if released is None:
            return None
        chunk = released[0]
        self.link.send(chunk)
        return chunk
