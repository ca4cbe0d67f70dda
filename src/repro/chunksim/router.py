"""The INRPP router (and the drop-tail baseline router).

Forwarding pipeline for a data chunk (Section 3.3 of the paper):

1. route: pop the next forced hop of a detour tunnel, else FIB lookup
   toward the chunk's receiver;
2. **push-data**: if the outgoing interface has room, enqueue;
3. **detour**: otherwise re-route the chunk through an alternative
   sub-path around the congested link (spoofing the next hops via a
   tunnel), preferring detours whose first hop is uncongested locally
   and whose onward links look clear in the gossiped neighbour state;
4. **back-pressure**: with no detour available, take the chunk into
   the interface's custody store and notify the one-hop upstream
   neighbour, which relays the signal toward the sender.  The signal
   carries no rate: the sender falls back to 1:1 request credits.

In ``"sp"`` mode the router is a plain FIFO drop-tail forwarder, which
is what the AIMD e2e baseline of Fig. 3 runs over.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.engine import Simulator
from repro.chunksim.interface import RouterInterface
from repro.chunksim.link import SimLink
from repro.chunksim.messages import Backpressure, DataChunk, Gossip, Request
from repro.chunksim.tracing import Trace
from repro.errors import ConfigurationError
from repro.routing.paths import Path
from repro.topology.graph import Node

#: The systems a router runs: INRPP and the e2e baseline.
SYSTEMS = ("sp", "inrp")


class Router:
    """One network node: forwarding, custody, and local apps."""

    def __init__(
        self,
        sim: Simulator,
        node_id: Node,
        config: ChunkSimConfig,
        trace: Trace,
        mode: str = "inrp",
    ):
        if mode not in SYSTEMS:
            raise ConfigurationError(f"unknown mode {mode!r}; expected {SYSTEMS}")
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.trace = trace
        self.mode = mode
        self.ifaces: Dict[Node, RouterInterface] = {}
        self.fib: Dict[Node, Node] = {}
        #: Detour options per congested next hop: list of full paths
        #: ``(self, w1, [w2], next_hop)``.
        self.detour_options: Dict[Node, List[Path]] = {}
        #: Gossiped backlog of neighbour interfaces:
        #: (neighbour, its next hop) -> queued bytes.
        self.neighbor_backlog: Dict[Tuple[Node, Node], int] = {}
        # Local applications (set by the network builder).
        self.sender_app = None
        self.receiver_app = None
        self.drops = 0
        # Hot-path constants (config properties recompute per call).
        self._high_wm_bytes = config.high_watermark_bytes
        self._inrpp = mode == "inrp"
        self._call_after = sim.call_after
        #: flow id -> (relay link, next-hop request handler).  The FIB
        #: is static after build, so a flow's relay route never changes.
        self._request_route: Dict[int, Tuple] = {}
        #: Exact-class receive dispatch (no isinstance chain per
        #: packet); the links into this node deliver through it.
        self.handlers = {
            DataChunk: self._on_data,
            Request: self._on_request,
            Backpressure: self._on_backpressure,
            Gossip: self._on_gossip,
        }

    # ------------------------------------------------------------------
    # Wiring (done by ChunkNetwork)
    # ------------------------------------------------------------------
    def attach_link(self, link: SimLink) -> RouterInterface:
        iface = RouterInterface(link, self.config)
        self.ifaces[link.dst] = iface
        link.on_tx_complete = partial(self._on_iface_drain, iface)
        return iface

    # ------------------------------------------------------------------
    # Requests (travel receiver -> sender on the control fast path)
    # ------------------------------------------------------------------
    def _on_request(self, request: Request, via_link: Optional[SimLink] = None) -> None:
        app = self.sender_app
        if app is not None and request.flow_id in app.flows:
            app.on_request(request)
            return
        # The relay route is per-flow static (the FIB never changes
        # after build), so it is resolved once per flow id — including
        # the receiving neighbour's request handler, which lets the
        # relay schedule the delivery directly.
        route = self._request_route.get(request.flow_id)
        if route is None:
            route = self._resolve_request_route(request)
        relay_link, relay_handler = route
        if relay_link is None:
            self.trace.record("request-unroutable", self.sim.now)
            return
        relay_link.stats.control_packets += 1
        self._call_after(relay_link.delay_s, relay_handler, request, relay_link)

    def _resolve_request_route(self, request: Request):
        next_hop = self.fib.get(request.sender)
        relay_link = self.ifaces[next_hop].link if next_hop is not None else None
        relay_handler = relay_link.handlers[Request] if relay_link is not None else None
        route = (relay_link, relay_handler)
        self._request_route[request.flow_id] = route
        return route

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _on_data(self, chunk: DataChunk, via_link: SimLink) -> None:
        upstream = via_link.src
        chunk.hops += 1
        app = self.receiver_app
        if app is not None and chunk.flow_id in app.flows:
            app.on_data(chunk)
            return
        if chunk.tunnel:
            next_hop, chunk.tunnel = chunk.tunnel[0], chunk.tunnel[1:]
        else:
            next_hop = self.fib.get(chunk.receiver)
        if next_hop is None or next_hop not in self.ifaces:
            self.drops += 1
            self.trace.record("data-unroutable", self.sim.now)
            return
        self.forward(chunk, next_hop, upstream)

    def forward(self, chunk: DataChunk, next_hop: Node, upstream: Node) -> None:
        """Apply the push / detour / back-pressure pipeline."""
        iface = self.ifaces[next_hop]
        if not self._inrpp:
            # Drop-tail forwarding.
            if not iface.link.send(chunk):
                self.drops += 1
                self.trace.record("drop-tail", self.sim.now)
            return

        if iface.can_accept(chunk.size_bytes):
            iface.link.send(chunk)
            return

        option = self._pick_detour(chunk, next_hop)
        if option is not None:
            # option = (self, w1, ..., next_hop): forward to w1 with the
            # rest as forced hops, prepended to any remaining tunnel.
            chunk.detours += 1
            chunk.tunnel = tuple(option[2:]) + tuple(chunk.tunnel)
            self.trace.record("detour", self.sim.now)
            self.forward(chunk, option[1], upstream)
            return

        self._enter_backpressure(chunk, iface, upstream)

    def _pick_detour(self, chunk: DataChunk, next_hop: Node) -> Optional[Path]:
        if self.config.detour_depth <= 0:
            return None
        if chunk.detours >= self.config.max_chunk_detours:
            return None
        best: Optional[Path] = None
        best_queue = None
        for option in self.detour_options.get(next_hop, ()):
            first_hop = option[1]
            iface = self.ifaces.get(first_hop)
            if iface is None or not iface.can_accept(chunk.size_bytes):
                continue
            if self.config.gossip and not self._gossip_clear(option):
                continue
            if best_queue is None or iface.link.queue_bytes < best_queue:
                best = option
                best_queue = iface.link.queue_bytes
        return best

    def _gossip_clear(self, option: Path) -> bool:
        """Check gossiped backlog of the option's onward links."""
        for hop_from, hop_to in zip(option[1:], option[2:]):
            backlog = self.neighbor_backlog.get((hop_from, hop_to))
            if backlog is not None and backlog >= self._high_wm_bytes:
                return False
        return True

    def _enter_backpressure(
        self, chunk: DataChunk, iface: RouterInterface, upstream: Node
    ) -> None:
        if not iface.take_custody(chunk):
            self.drops += 1
            self.trace.record("drop-custody-full", self.sim.now)
            return
        self.trace.record("custody", self.sim.now)
        signal = Backpressure(flow_id=chunk.flow_id, sender=chunk.sender)
        self._send_backpressure(signal, upstream)

    def _send_backpressure(self, signal: Backpressure, upstream: Node) -> None:
        if upstream == self.node_id or upstream is None:
            # Chunk originated here: deliver straight to the local app.
            if self.sender_app is not None:
                self.sender_app.on_backpressure(signal)
            return
        iface = self.ifaces.get(upstream)
        if iface is None:
            self.trace.record("bp-unroutable", self.sim.now)
            return
        self.trace.record("bp-sent", self.sim.now)
        iface.link.send_control(signal)

    def _on_backpressure(
        self, signal: Backpressure, via_link: Optional[SimLink] = None
    ) -> None:
        app = self.sender_app
        if app is not None and signal.flow_id in app.flows:
            app.on_backpressure(signal)
            return
        # Relay hop-by-hop toward the sender (reverse data path).
        sender = signal.sender
        next_hop = self.fib.get(sender) if sender is not None else None
        if next_hop is None:
            self.trace.record("bp-unroutable", self.sim.now)
            return
        self.trace.record("bp-relayed", self.sim.now)
        self.ifaces[next_hop].link.send_control(signal)

    # ------------------------------------------------------------------
    # Gossip (Section 3.3, option (i))
    # ------------------------------------------------------------------
    def start_gossip(self) -> None:
        if not self.config.gossip or not self._inrpp:
            return
        self.sim.call_after(self.config.ti, self._gossip_tick)

    def _gossip_tick(self) -> None:
        message = Gossip(
            origin=self.node_id,
            backlog_bytes={
                neighbor: iface.link.queue_bytes + iface.custody.used_bytes
                for neighbor, iface in self.ifaces.items()
            },
        )
        for iface in self.ifaces.values():
            iface.link.send_control(message)
        self.sim.call_after(self.config.ti, self._gossip_tick)

    def _on_gossip(self, message: Gossip, via_link: Optional[SimLink] = None) -> None:
        for next_hop, backlog in message.backlog_bytes.items():
            self.neighbor_backlog[(message.origin, next_hop)] = backlog

    # ------------------------------------------------------------------
    # Drain hook: custody -> line, then wake the local sender.
    # ------------------------------------------------------------------
    def _on_iface_drain(self, iface: RouterInterface) -> None:
        if len(iface.custody):
            while iface.drain_custody() is not None:
                self.trace.record("custody-drain", self.sim.now)
        if self.sender_app is not None:
            self.sender_app.pump(iface)

    # ------------------------------------------------------------------
    def custody_used_bytes(self) -> int:
        return sum(iface.custody.used_bytes for iface in self.ifaces.values())

    def custody_peak_bytes(self) -> int:
        return sum(iface.custody.stats.peak_bytes for iface in self.ifaces.values())

    def __repr__(self) -> str:
        return f"Router({self.node_id!r}, mode={self.mode})"
