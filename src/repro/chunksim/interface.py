"""Router interface: anticipated-rate estimation and the phase machine.

Each outgoing interface of an INRPP router tracks the *anticipated
rate* ``r_a`` — the data it expects to have to forward in the next
interval ``Ti``, inferred from the requests the router forwarded
upstream (Eq. 1 of the paper) — and exposes the three-phase state:

- **push-data** while ``r_a < ρ·r`` and the line queue is shallow;
- **detour** when demand is about to exceed supply;
- **back-pressure** once chunks sit in the interface's custody queue.

The custody queue is the in-network storage of the paper: chunks that
could be neither forwarded nor detoured wait here (FIFO) and drain
back into the line as soon as the queue falls below the low watermark.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Optional

from repro.cache.custody import CustodyStore
from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.engine import Simulator
from repro.chunksim.link import SimLink
from repro.chunksim.messages import DataChunk
from repro.metrics.timeseries import RateEstimator


class Phase(enum.Enum):
    PUSH = "push-data"
    DETOUR = "detour"
    BACKPRESSURE = "back-pressure"


class RouterInterface:
    """One outgoing interface (toward a single neighbour)."""

    def __init__(self, sim: Simulator, link: SimLink, config: ChunkSimConfig):
        self.sim = sim
        self.link = link
        self.config = config
        self.anticipated = RateEstimator(window=config.ti)
        self.custody = CustodyStore(config.custody_bytes)
        #: The neighbour this interface points at (plain attribute:
        #: read in every forward/pump decision).
        self.neighbor = link.dst
        self._custody_queue: Deque[DataChunk] = deque()
        #: Flow ids seen recently (flow -> last time), for fair-share
        #: estimates in back-pressure notifications.
        self._flows_seen = {}
        # Hot-path constants: the config exposes these as computed
        # properties, which is too slow for per-chunk decisions.
        self._high_wm_bytes = config.high_watermark_bytes
        self._low_wm_bytes = config.low_watermark_bytes
        self._rho_rate = config.rho * link.rate_bps
        self._flow_horizon = 2 * config.ti
        # The anticipated rate and the stale-flow prune are pure
        # functions of the clock between records, so each is computed
        # at most once per simulated instant.
        self._rate_cache = 0.0
        self._rate_cache_at = -1.0
        self._pruned_at = -1.0

    # ------------------------------------------------------------------
    # Eq. 1 bookkeeping
    # ------------------------------------------------------------------
    def anticipate(self, data_bits: float) -> None:
        """Record that *data_bits* are expected through this interface.

        Called when the router forwards a request upstream whose data
        will come back out through this interface.
        """
        self.anticipated.record(self.sim.now, data_bits)
        self._rate_cache_at = -1.0

    def anticipated_bps(self) -> float:
        """The anticipated rate ``r_a`` for the next interval."""
        now = self.sim.now
        if now != self._rate_cache_at:
            self._rate_cache = self.anticipated.rate(now)
            self._rate_cache_at = now
        return self._rate_cache

    # ------------------------------------------------------------------
    # Phase machine
    # ------------------------------------------------------------------
    def phase(self) -> Phase:
        if len(self._custody_queue) > 0:
            return Phase.BACKPRESSURE
        if self.is_congested():
            return Phase.DETOUR
        return Phase.PUSH

    def is_congested(self) -> bool:
        """True when the interface should not take more line load."""
        if self.link.queue_bytes >= self._high_wm_bytes:
            return True
        return self.anticipated_bps() > self._rho_rate

    def can_accept(self, size_bytes: int) -> bool:
        """Room on the line without overtaking custody chunks."""
        if self._custody_queue:
            return False
        return self.link.queue_bytes + size_bytes <= self._high_wm_bytes

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def enqueue(self, chunk: DataChunk) -> bool:
        self.note_flow(chunk.flow_id)
        return self.link.send(chunk)

    def take_custody(self, chunk: DataChunk) -> bool:
        """Store *chunk* until the line drains; False when full."""
        if not self.custody.accept(chunk, chunk.size_bytes):
            return False
        self._custody_queue.append(chunk)
        self.note_flow(chunk.flow_id)
        return True

    def drain_custody(self) -> Optional[DataChunk]:
        """Move one custody chunk to the line if there is room."""
        if not self._custody_queue:
            return None
        if self.link.queue_bytes > self._low_wm_bytes:
            return None
        released = self.custody.release()
        if released is None:
            return None
        chunk = self._custody_queue.popleft()
        self.link.send(chunk)
        return chunk

    @property
    def custody_backlog(self) -> int:
        return len(self._custody_queue)

    # ------------------------------------------------------------------
    # Flow accounting for back-pressure fair shares
    # ------------------------------------------------------------------
    def note_flow(self, flow_id: int) -> None:
        self._flows_seen[flow_id] = self.sim.now

    def active_flow_count(self) -> int:
        # Prune once per instant: between same-instant calls entries
        # can only be added or refreshed at ``now`` (never made stale),
        # so skipping the re-scan returns exactly the same count.
        now = self.sim.now
        if now != self._pruned_at:
            horizon = now - self._flow_horizon
            flows = self._flows_seen
            stale = [fid for fid, t in flows.items() if t < horizon]
            for fid in stale:
                del flows[fid]
            self._pruned_at = now
        return max(len(self._flows_seen), 1)

    def fair_share_bps(self) -> float:
        """Per-flow share this interface can sustain (for BP signals)."""
        return self.link.rate_bps / self.active_flow_count()
