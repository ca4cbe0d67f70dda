"""AIMD baseline end-points (the e2e flow control of Fig. 3, left).

The receiver keeps a window ``W`` of outstanding requests, grows it by
``1/W`` per delivered chunk (additive increase of one request per
round) and halves it when a request times out — the textbook
receiver-driven AIMD interest control.  Routers run drop-tail FIFO
queues, so congestion manifests as data loss exactly like TCP over IP.

On the Fig. 3 topology two such flows converge to ≈(2, 8) Mbps: each
flow tracks the slowest link of *its own* path, which is the behaviour
the paper's INRPP replaces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.messages import Backpressure, DataChunk, Request
from repro.chunksim.router import Router
from repro.errors import SimulationError


@dataclass(slots=True)
class AimdFlow:
    flow_id: int
    sender: object
    total_chunks: int
    window: float = 2.0
    next_new: int = 0
    received: Set[int] = field(default_factory=set)
    #: chunk id -> engine timer entry (see ``Simulator.call_after``).
    outstanding: Dict[int, object] = field(default_factory=dict)
    retransmit: Deque[int] = field(default_factory=deque)
    completion_time: Optional[float] = None
    arrivals: List[Tuple[float, int]] = field(default_factory=list)
    hops_total: int = 0
    detoured_chunks: int = 0
    duplicates: int = 0
    timeouts: int = 0
    next_needed: int = 0

    @property
    def complete(self) -> bool:
        return len(self.received) >= self.total_chunks


class AimdReceiverApp:
    """Window-based (AIMD) receiver: the e2e baseline."""

    def __init__(self, router: Router, config: ChunkSimConfig):
        self.router = router
        self.config = config
        self.sim = router.sim
        self.flows: Dict[int, AimdFlow] = {}
        # Per-request constants and bound methods (hot path: one
        # request per chunk plus every retransmission).
        self._call_after = router.sim.call_after
        self._cancel_entry = router.sim.cancel_entry
        self._rto = config.aimd_rto
        self._request_bytes = config.request_bytes

    def add_flow(self, flow_id: int, sender, total_chunks: int) -> AimdFlow:
        if flow_id in self.flows:
            raise SimulationError(f"duplicate AIMD flow {flow_id}")
        flow = AimdFlow(
            flow_id, sender, total_chunks, window=self.config.aimd_initial_window
        )
        self.flows[flow_id] = flow
        return flow

    def start(self, flow_id: int) -> None:
        self._fill_window(self.flows[flow_id])

    # ------------------------------------------------------------------
    def on_data(self, chunk: DataChunk) -> None:
        flow = self.flows[chunk.flow_id]
        timer = flow.outstanding.pop(chunk.chunk_id, None)
        if timer is not None:
            self._cancel_entry(timer)
        if chunk.chunk_id in flow.received:
            flow.duplicates += 1
        else:
            flow.received.add(chunk.chunk_id)
            flow.arrivals.append((self.sim.now, chunk.size_bytes))
            flow.hops_total += chunk.hops
            while flow.next_needed in flow.received:
                flow.next_needed += 1
            # Additive increase: one extra request per delivered window.
            flow.window += 1.0 / max(flow.window, 1.0)
            if flow.complete and flow.completion_time is None:
                flow.completion_time = self.sim.now
                return
        self._fill_window(flow)

    def _on_timeout(self, flow: AimdFlow, chunk_id: int) -> None:
        if flow.outstanding.pop(chunk_id, None) is None:
            return
        flow.timeouts += 1
        # Multiplicative decrease.
        flow.window = max(flow.window / 2.0, 1.0)
        flow.retransmit.append(chunk_id)
        self._fill_window(flow)

    def _fill_window(self, flow: AimdFlow) -> None:
        target = int(flow.window)
        while len(flow.outstanding) < target:
            chunk_id = self._next_chunk(flow)
            if chunk_id is None:
                return
            self._request(flow, chunk_id)

    def _next_chunk(self, flow: AimdFlow) -> Optional[int]:
        while flow.retransmit:
            chunk_id = flow.retransmit.popleft()
            if chunk_id not in flow.received and chunk_id not in flow.outstanding:
                return chunk_id
        if flow.next_new < flow.total_chunks:
            chunk_id = flow.next_new
            flow.next_new += 1
            return chunk_id
        return None

    def _request(self, flow: AimdFlow, chunk_id: int) -> None:
        # Positional construction; anticipate_to == chunk_id because
        # the baseline does not anticipate.
        request = Request(
            flow.flow_id,
            chunk_id,
            flow.next_needed - 1,
            chunk_id,
            self.router.node_id,
            flow.sender,
            self._request_bytes,
        )
        flow.outstanding[chunk_id] = self._call_after(
            self._rto, self._on_timeout, flow, chunk_id
        )
        self.router._on_request(request)


class AimdSenderApp:
    """Stateless chunk server: one data chunk per incoming request."""

    def __init__(self, router: Router, config: ChunkSimConfig):
        self.router = router
        self.config = config
        #: flow -> (receiver, total chunks, iface toward receiver).
        self.flows: Dict[int, Tuple[object, int, object]] = {}
        self.chunks_sent = 0
        self._chunk_bytes = config.chunk_bytes

    def add_flow(self, flow_id: int, receiver, total_chunks: int) -> None:
        next_hop = self.router.fib.get(receiver)
        if next_hop is None:
            raise SimulationError(f"no route from AIMD sender to {receiver!r}")
        self.flows[flow_id] = (receiver, total_chunks, self.router.ifaces[next_hop])

    def on_request(self, request: Request) -> None:
        receiver, total, iface = self.flows[request.flow_id]
        chunk_id = request.next_chunk
        if not 0 <= chunk_id < total:
            return
        router = self.router
        chunk = DataChunk(
            request.flow_id, chunk_id, self._chunk_bytes, receiver, router.node_id
        )
        self.chunks_sent += 1
        # Inlined drop-tail forward (the baseline's only data path):
        # drive the link directly, mirroring Router.forward's AIMD arm.
        if not iface.link.send(chunk):
            router.drops += 1
            router.trace.record("drop-tail", router.sim.now)

    def on_backpressure(self, signal: Backpressure) -> None:
        """The baseline ignores in-network signals (there are none)."""

    def pump(self, iface) -> None:
        """No push machinery in the baseline; sending is per-request."""
