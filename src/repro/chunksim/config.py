"""Configuration of the chunk-level simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError


@dataclass
class ChunkSimConfig:
    """Tunables of the INRPP / AIMD chunk simulations.

    The defaults are sized for Mbps-scale topologies such as the
    paper's Fig. 3 example (10 Mbps links, 10 kB chunks -> 8 ms of
    serialisation per chunk on a 10 Mbps link).
    """

    #: Payload bytes per content chunk.
    chunk_bytes: int = 10_000
    #: Bytes per request packet.
    request_bytes: int = 100
    #: The paper's interval Ti (~ average RTT); here the gossip period.
    ti: float = 0.1
    #: Anticipation horizon Ac: chunks the receiver announces ahead.
    anticipation: int = 16
    #: Requests a receiver issues at flow start (initial window).
    initial_window: int = 4
    #: Queue depth (in chunks) above which an interface is congested.
    high_watermark_chunks: int = 4
    #: Queue depth at which custody starts draining back into the line.
    low_watermark_chunks: int = 2
    #: Custody store budget per router (None = unbounded).
    custody_bytes: Optional[int] = 50_000_000
    #: Detour depth: 1 = single intermediate node, 2 adds the
    #: "one extra hop on the detour path".
    detour_depth: int = 2
    #: Max detour re-routes a single chunk may take (loop guard).
    max_chunk_detours: int = 4
    #: Exchange one-hop interface state every Ti (Section 3.3 (i)).
    gossip: bool = True
    #: Seconds without back-pressure before a sender resumes pushing.
    resume_timeout: float = 0.4
    # --- AIMD baseline parameters -------------------------------------
    #: Drop-tail buffer per interface (chunks) in AIMD mode.
    aimd_buffer_chunks: int = 16
    #: Retransmission timeout for request timers (seconds).
    aimd_rto: float = 0.5
    #: Initial AIMD window (outstanding requests).
    aimd_initial_window: float = 2.0

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ConfigurationError("chunk_bytes must be positive")
        if self.request_bytes <= 0:
            raise ConfigurationError("request_bytes must be positive")
        if self.ti <= 0:
            raise ConfigurationError("ti must be positive")
        if self.anticipation < 0:
            raise ConfigurationError("anticipation must be >= 0")
        if self.initial_window < 1:
            raise ConfigurationError("initial_window must be >= 1")
        if self.low_watermark_chunks > self.high_watermark_chunks:
            raise ConfigurationError("low watermark above high watermark")
        if self.detour_depth < 0:
            raise ConfigurationError("detour_depth must be >= 0")

    @property
    def high_watermark_bytes(self) -> int:
        return self.high_watermark_chunks * self.chunk_bytes

    @property
    def low_watermark_bytes(self) -> int:
        return self.low_watermark_chunks * self.chunk_bytes

    @property
    def aimd_buffer_bytes(self) -> int:
        return self.aimd_buffer_chunks * self.chunk_bytes
