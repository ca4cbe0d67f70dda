"""Chunk-level discrete-event simulation of the INRPP protocol.

This package implements the protocol machinery of Section 3 of the
paper at chunk granularity:

- receivers request named chunks with ``⟨Nc, ACKc, Ac⟩`` and adapt
  their request rate to the incoming data rate;
- senders *push* data open loop up to the anticipation horizon,
  processor-sharing their access link among flows, and fall back to a
  closed 1:1 request/data loop when back-pressured;
- a router pushes a chunk onto an interface while the line queue is
  under the high watermark and the interface holds no custody chunk
  (the paper's Eq. 1 anticipated-rate switching is not modelled);
- otherwise it *detours* the chunk through an alternative sub-path
  (tunnelled via spoofed next hops) or takes it into *custody* and
  sends a rate-less back-pressure signal toward the sender;
- an AIMD baseline (drop-tail queues, e2e window halving on loss)
  reproduces the e2e flow-control side of Fig. 3.
"""

from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.engine import Simulator
from repro.chunksim.messages import Backpressure, DataChunk, Request
from repro.chunksim.link import SimLink
from repro.chunksim.network import ChunkNetwork, FlowReport, NetworkReport

__all__ = [
    "ChunkSimConfig",
    "Simulator",
    "Request",
    "DataChunk",
    "Backpressure",
    "SimLink",
    "ChunkNetwork",
    "FlowReport",
    "NetworkReport",
]
