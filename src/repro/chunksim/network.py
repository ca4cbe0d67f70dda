"""Network assembly and experiment façade for the chunk simulator.

:class:`ChunkNetwork` turns a :class:`~repro.topology.graph.Topology`
into a running simulation: routers on every node, one
:class:`~repro.chunksim.link.SimLink` per link direction, shortest-path
FIBs, detour tables, and sender/receiver applications per flow.  Its
*mode* is ``"inrp"`` (the paper's INRPP: push / detour / back-pressure
with custody stores) or ``"sp"`` (the AIMD e2e baseline: drop-tail
queues, window halving); the routers reject any other name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chunksim.aimd import AimdReceiverApp, AimdSenderApp
from repro.chunksim.apps import ReceiverApp, SenderApp
from repro.chunksim.config import ChunkSimConfig
from repro.chunksim.engine import Simulator
from repro.chunksim.link import SimLink
from repro.chunksim.router import Router
from repro.chunksim.tracing import Trace
from repro.errors import ConfigurationError, SimulationError
from repro.metrics.fairness import jain_index
from repro.routing.detour import DetourTable
from repro.routing.shortest import iter_sp_next_hops
from repro.topology.graph import Node, Topology


@dataclass
class FlowReport:
    """Per-flow outcome of a chunk-level run."""

    flow_id: int
    source: Node
    destination: Node
    total_chunks: int
    received_chunks: int
    completed: bool
    completion_time: Optional[float]
    #: Goodput measured over the post-warmup window (bits/s).
    goodput_bps: float
    mean_hops: float
    detoured_chunks: int
    duplicates: int
    start_time: float = 0.0

    @property
    def fct(self) -> Optional[float]:
        """Flow completion time in seconds (None when unfinished)."""
        if self.completion_time is None:
            return None
        return self.completion_time - self.start_time


@dataclass
class NetworkReport:
    """Aggregate outcome of a chunk-level run."""

    mode: str
    duration: float
    warmup: float
    flows: List[FlowReport] = field(default_factory=list)
    drops: int = 0
    custody_events: int = 0
    custody_drains: int = 0
    custody_peak_bytes: int = 0
    backpressure_signals: int = 0
    detour_events: int = 0
    link_utilization: Dict = field(default_factory=dict)
    events_processed: int = 0

    def flow(self, flow_id: int) -> FlowReport:
        for report in self.flows:
            if report.flow_id == flow_id:
                return report
        raise KeyError(flow_id)

    def jain(self) -> float:
        """Jain's index over flow goodputs (the Fig. 3 metric)."""
        return jain_index([report.goodput_bps for report in self.flows])

    def total_goodput_bps(self) -> float:
        return sum(report.goodput_bps for report in self.flows)


class ChunkNetwork:
    """A topology instantiated as a chunk-level simulation."""

    def __init__(
        self,
        topology: Topology,
        mode: str = "inrp",
        config: Optional[ChunkSimConfig] = None,
        trace: Optional[Trace] = None,
    ):
        if not topology.is_connected():
            raise ConfigurationError("chunk simulation needs a connected topology")
        self.topology = topology
        self.mode = mode
        self.config = config or ChunkSimConfig()
        #: ``None`` on the SP baseline, which never detours (as on a strategy).
        self.detour_depth = self.config.detour_depth if mode == "inrp" else None
        self.trace = trace or Trace()
        self.sim = Simulator()
        self.routers: Dict[Node, Router] = {}
        self.links: List[SimLink] = []
        self._flow_meta: Dict[int, Dict] = {}
        self._next_flow_id = 0
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for node in self.topology.nodes():
            self.routers[node] = Router(
                self.sim, node, self.config, self.trace, mode=self.mode
            )
        buffer_bytes = (
            self.config.aimd_buffer_bytes if self.mode == "sp" else None
        )
        for u, v in self.topology.links():
            delay = self.topology.delay(u, v)
            for a, b in ((u, v), (v, u)):
                link = SimLink(
                    self.sim,
                    a,
                    b,
                    rate_bps=self.topology.capacity(a, b),
                    delay_s=delay,
                    handlers=self.routers[b].handlers,
                    buffer_bytes=buffer_bytes,
                )
                self.routers[a].attach_link(link)
                self.links.append(link)
        for destination in self.topology.nodes():
            for node, next_hop in iter_sp_next_hops(self.topology, destination):
                self.routers[node].fib[destination] = next_hop
        if self.detour_depth:
            table = DetourTable(self.topology, self.detour_depth)
            for node, router in self.routers.items():
                for neighbor in self.topology.neighbors(node):
                    router.detour_options[neighbor] = table.options(node, neighbor)
        for router in self.routers.values():
            router.start_gossip()

    # ------------------------------------------------------------------
    def add_flow(
        self,
        source: Node,
        destination: Node,
        num_chunks: int,
        start_time: float = 0.0,
    ) -> int:
        """Register a transfer of *num_chunks* chunks source -> destination.

        *source* is the content origin (sender); *destination* is the
        requesting consumer (receiver).  Returns the flow id.
        """
        if source == destination:
            raise ConfigurationError("sender and receiver must differ")
        if num_chunks < 1:
            raise ConfigurationError(f"need >= 1 chunk, got {num_chunks}")
        for node in (source, destination):
            if not self.topology.has_node(node):
                raise ConfigurationError(f"unknown node {node!r}")
        flow_id = self._next_flow_id
        self._next_flow_id += 1

        sender_router = self.routers[source]
        receiver_router = self.routers[destination]
        if self.mode == "inrp":
            if sender_router.sender_app is None:
                sender_router.sender_app = SenderApp(sender_router, self.config)
            if receiver_router.receiver_app is None:
                receiver_router.receiver_app = ReceiverApp(
                    receiver_router, self.config
                )
        else:
            if sender_router.sender_app is None:
                sender_router.sender_app = AimdSenderApp(sender_router, self.config)
            if receiver_router.receiver_app is None:
                receiver_router.receiver_app = AimdReceiverApp(
                    receiver_router, self.config
                )
        sender_router.sender_app.add_flow(flow_id, destination, num_chunks)
        receiver_router.receiver_app.add_flow(flow_id, source, num_chunks)
        self._flow_meta[flow_id] = {
            "source": source,
            "destination": destination,
            "total_chunks": num_chunks,
            "start_time": start_time,
        }
        receiver_app = receiver_router.receiver_app
        self.sim.call_at(start_time, receiver_app.start, flow_id)
        return flow_id

    # ------------------------------------------------------------------
    def run(self, duration: float, warmup: Optional[float] = None) -> NetworkReport:
        """Run the simulation and build the report.

        *warmup* (default: 25 % of *duration*) is excluded from the
        goodput windows so start-up transients do not bias Fig. 3
        style steady-state comparisons.
        """
        if duration <= 0:
            raise SimulationError(f"duration must be positive, got {duration}")
        if warmup is None:
            warmup = 0.25 * duration
        if not 0 <= warmup < duration:
            raise SimulationError("warmup must lie within the run")
        self.sim.run(until=duration)
        return self._report(duration, warmup)

    def _report(self, duration: float, warmup: float) -> NetworkReport:
        report = NetworkReport(
            mode=self.mode,
            duration=duration,
            warmup=warmup,
            drops=sum(router.drops for router in self.routers.values()),
            custody_events=self.trace.count("custody"),
            custody_drains=self.trace.count("custody-drain"),
            custody_peak_bytes=max(
                (router.custody_peak_bytes() for router in self.routers.values()),
                default=0,
            ),
            backpressure_signals=self.trace.count("bp-sent")
            + self.trace.count("bp-relayed"),
            detour_events=self.trace.count("detour"),
            events_processed=self.sim.events_processed,
        )
        window = duration - warmup
        for flow_id, meta in sorted(self._flow_meta.items()):
            receiver_router = self.routers[meta["destination"]]
            state = receiver_router.receiver_app.flows[flow_id]
            window_bytes = sum(
                size for time, size in state.arrivals if time >= warmup
            )
            received = len(state.received)
            report.flows.append(
                FlowReport(
                    flow_id=flow_id,
                    source=meta["source"],
                    destination=meta["destination"],
                    total_chunks=meta["total_chunks"],
                    received_chunks=received,
                    completed=state.complete,
                    completion_time=state.completion_time,
                    goodput_bps=window_bytes * 8.0 / window,
                    mean_hops=(state.hops_total / received) if received else 0.0,
                    detoured_chunks=state.detoured_chunks,
                    duplicates=state.duplicates,
                    start_time=meta["start_time"],
                )
            )
        report.link_utilization = {
            (link.src, link.dst): link.utilization() for link in self.links
        }
        return report
