"""INRPP end-point applications (Section 3.2 of the paper).

**Receivers** request data at the application rate: an initial window
of requests at flow start, then one request per received chunk, so the
request rate continuously matches the incoming data rate.  Every
request carries ``⟨Nc, ACKc, Ac⟩`` with ``Ac = Nc + anticipation``.

**Senders** keep per-flow state and run in one of two modes:

- *push-data*: send as much as the outgoing link can carry, up to the
  anticipation horizon, multiplexing flows in processor-sharing
  (round-robin) fashion;
- *back-pressure*: closed loop — at most one chunk per received
  request (1:1 flow balance) — entered when a back-pressure signal
  arrives, left after ``resume_timeout`` seconds of silence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.interface import RouterInterface
from repro.chunksim.messages import Backpressure, DataChunk, Request
from repro.chunksim.router import Router
from repro.errors import SimulationError

PUSH = "push"
BACKPRESSURE = "backpressure"


@dataclass(slots=True)
class SenderFlow:
    flow_id: int
    receiver: object
    total_chunks: int
    #: The outgoing interface toward the receiver (static FIB).
    iface: Optional[RouterInterface] = None
    next_push: int = 0
    highest_requested: int = -1
    anticipate_limit: int = -1
    credits: int = 0
    mode: str = PUSH
    last_bp_time: float = -1.0
    chunks_sent: int = 0
    anticipated_sent: int = 0

    def sendable(self) -> bool:
        if self.next_push >= self.total_chunks:
            return False
        if self.mode == BACKPRESSURE:
            # Closed loop: one chunk per received request (1:1 flow
            # balance).  Chunks already pushed ahead of the requests
            # stay in flight; the credit rule alone matches the send
            # rate to the request (= delivery) rate.
            return self.credits > 0
        return self.next_push <= self.anticipate_limit


class SenderApp:
    """All sending flows originating at one router."""

    def __init__(self, router: Router, config: ChunkSimConfig):
        self.router = router
        self.config = config
        self.sim = router.sim
        self.flows: Dict[int, SenderFlow] = {}
        #: Round-robin order per outgoing interface.
        self._rr: Dict[object, Deque[int]] = {}
        self.bp_signals = 0
        self._low_wm_bytes = config.low_watermark_bytes

    def add_flow(self, flow_id: int, receiver, total_chunks: int) -> SenderFlow:
        if flow_id in self.flows:
            raise SimulationError(f"duplicate sender flow {flow_id}")
        flow = SenderFlow(flow_id, receiver, total_chunks)
        self.flows[flow_id] = flow
        next_hop = self.router.fib.get(receiver)
        if next_hop is None:
            raise SimulationError(f"no route from sender to {receiver!r}")
        flow.iface = self.router.ifaces.get(next_hop)
        self._rr.setdefault(next_hop, deque()).append(flow_id)
        return flow

    # ------------------------------------------------------------------
    def on_request(self, request: Request) -> None:
        flow = self.flows[request.flow_id]
        if request.next_chunk > flow.highest_requested:
            flow.highest_requested = request.next_chunk
        if request.anticipate_to > flow.anticipate_limit:
            flow.anticipate_limit = request.anticipate_to
        flow.credits += 1
        self.pump(flow.iface)

    def on_backpressure(self, signal: Backpressure) -> None:
        flow = self.flows.get(signal.flow_id)
        if flow is None:
            return
        self.bp_signals += 1
        flow.mode = BACKPRESSURE
        flow.last_bp_time = self.sim.now
        self.sim.call_after(self.config.resume_timeout, self._maybe_resume, flow)

    def _maybe_resume(self, flow: SenderFlow) -> None:
        if flow.mode != BACKPRESSURE:
            return
        if self.sim.now - flow.last_bp_time >= self.config.resume_timeout - 1e-9:
            flow.mode = PUSH
            self.pump(flow.iface)

    # ------------------------------------------------------------------
    def pump(self, iface: Optional[RouterInterface]) -> None:
        """Fill the interface queue round-robin across local flows.

        The sender keeps the line queue shallow (low watermark) so the
        round-robin granularity approximates processor sharing between
        flows and leaves room for transit traffic.
        """
        if iface is None:
            return
        order = self._rr.get(iface.neighbor)
        if not order:
            return
        while iface.link.queue_bytes < self._low_wm_bytes:
            flow = self._next_sendable(order)
            if flow is None:
                return
            self._send_chunk(flow, iface)

    def _next_sendable(self, order: Deque[int]) -> Optional[SenderFlow]:
        for _ in range(len(order)):
            flow_id = order.popleft()
            order.append(flow_id)
            flow = self.flows[flow_id]
            if flow.sendable():
                return flow
        return None

    def _send_chunk(self, flow: SenderFlow, iface: RouterInterface) -> None:
        anticipated = flow.next_push > flow.highest_requested
        chunk = DataChunk(
            flow_id=flow.flow_id,
            chunk_id=flow.next_push,
            size_bytes=self.config.chunk_bytes,
            receiver=flow.receiver,
            sender=self.router.node_id,
            anticipated=anticipated,
        )
        flow.next_push += 1
        flow.chunks_sent += 1
        if anticipated:
            flow.anticipated_sent += 1
        if flow.mode == BACKPRESSURE:
            flow.credits -= 1
        self.router.forward(chunk, iface.neighbor, upstream=self.router.node_id)


@dataclass(slots=True)
class ReceiverFlow:
    flow_id: int
    sender: object
    total_chunks: int
    received: Set[int] = field(default_factory=set)
    next_needed: int = 0
    max_requested: int = -1
    completion_time: Optional[float] = None
    #: (time, bytes) of every chunk arrival, for goodput windows.
    arrivals: List[Tuple[float, int]] = field(default_factory=list)
    hops_total: int = 0
    detoured_chunks: int = 0
    duplicates: int = 0

    @property
    def complete(self) -> bool:
        return len(self.received) >= self.total_chunks


class ReceiverApp:
    """All receiving flows terminating at one router."""

    def __init__(self, router: Router, config: ChunkSimConfig):
        self.router = router
        self.config = config
        self.sim = router.sim
        self.flows: Dict[int, ReceiverFlow] = {}

    def add_flow(self, flow_id: int, sender, total_chunks: int) -> ReceiverFlow:
        if flow_id in self.flows:
            raise SimulationError(f"duplicate receiver flow {flow_id}")
        flow = ReceiverFlow(flow_id, sender, total_chunks)
        self.flows[flow_id] = flow
        return flow

    def start(self, flow_id: int) -> None:
        """Issue the initial request window."""
        flow = self.flows[flow_id]
        window = min(self.config.initial_window, flow.total_chunks)
        for chunk_id in range(window):
            self._request(flow, chunk_id)

    def on_data(self, chunk: DataChunk) -> None:
        flow = self.flows[chunk.flow_id]
        if chunk.chunk_id in flow.received:
            flow.duplicates += 1
            return
        flow.received.add(chunk.chunk_id)
        flow.arrivals.append((self.sim.now, chunk.size_bytes))
        flow.hops_total += chunk.hops
        if chunk.detours > 0:
            flow.detoured_chunks += 1
        while flow.next_needed in flow.received:
            flow.next_needed += 1
        if flow.complete and flow.completion_time is None:
            flow.completion_time = self.sim.now
            return
        # Rate matching: one new request per received chunk.
        next_request = flow.max_requested + 1
        if next_request < flow.total_chunks:
            self._request(flow, next_request)

    def _request(self, flow: ReceiverFlow, chunk_id: int) -> None:
        request = Request(
            flow_id=flow.flow_id,
            next_chunk=chunk_id,
            ack=flow.next_needed - 1,
            anticipate_to=min(
                flow.total_chunks - 1, chunk_id + self.config.anticipation
            ),
            receiver=self.router.node_id,
            sender=flow.sender,
            size_bytes=self.config.request_bytes,
        )
        flow.max_requested = max(flow.max_requested, chunk_id)
        self.router._on_request(request)
