"""Point-to-point simulated links.

A :class:`SimLink` is one *direction* of a topology link: it
serialises packets at the line rate, applies propagation delay, and
delivers to the receiving node's handler for the packet's class.
Data packets occupy the queue; control packets (requests,
back-pressure, gossip) ride a fast path — they are delayed but not
queued, a standard simplification that keeps the reverse control
channel from interfering with the data-plane experiment.

Drop behaviour is owned by the caller: the INRPP router never lets a
queue exceed its watermarks (custody instead), while the AIMD baseline
passes a finite ``buffer_bytes`` and loses packets drop-tail.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional

from repro.chunksim.engine import Simulator
from repro.chunksim.messages import DataChunk
from repro.errors import ConfigurationError, SimulationError
from repro.units import BITS_PER_BYTE


class LinkStats:
    __slots__ = (
        "data_packets",
        "data_bytes",
        "control_packets",
        "drops",
        "busy_time",
        "peak_queue_bytes",
    )

    def __init__(self):
        self.data_packets = 0
        self.data_bytes = 0
        self.control_packets = 0
        self.drops = 0
        self.busy_time = 0.0
        self.peak_queue_bytes = 0


class SimLink:
    """One direction of a link: ``src -> dst``."""

    def __init__(
        self,
        sim: Simulator,
        src,
        dst,
        rate_bps: float,
        delay_s: float,
        handlers: dict,
        buffer_bytes: Optional[int] = None,
    ):
        if rate_bps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay_s}")
        self.sim = sim
        self._call_after = sim.call_after
        self.src = src
        self.dst = dst
        self.rate_bps = float(rate_bps)
        # Serialisation seconds per byte; tx_time is called per packet.
        self._tx_per_byte = BITS_PER_BYTE / self.rate_bps
        self.delay_s = float(delay_s)
        self.buffer_bytes = buffer_bytes
        #: Packet class -> ``handler(packet, link)`` of the receiving
        #: node.  Packets are dispatched at send time (the class is
        #: known here), not on arrival.
        self.handlers = handlers
        # Packets from the data queue are always data chunks, so their
        # delivery binds the receiver's data handler once.
        self._deliver_data = handlers.get(DataChunk)
        self._queue: Deque = deque()
        #: Bytes waiting (not counting the packet on the wire).  A
        #: plain attribute: read on every enqueue/forward decision.
        self.queue_bytes = 0
        self._busy = False
        self.stats = LinkStats()
        #: Called with no arguments whenever a transmission finishes
        #: and the queue has drained below any level (router drain hook).
        self.on_tx_complete: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    def tx_time(self, size_bytes: int) -> float:
        return size_bytes * self._tx_per_byte

    def utilization(self) -> float:
        """Fraction of elapsed simulated time the link was sending."""
        if self.sim.now <= 0:
            return 0.0
        return min(self.stats.busy_time / self.sim.now, 1.0)

    # ------------------------------------------------------------------
    def send(self, packet) -> bool:
        """Queue *packet* for transmission; False when dropped."""
        if (
            self.buffer_bytes is not None
            and self.queue_bytes + packet.size_bytes > self.buffer_bytes
        ):
            self.stats.drops += 1
            return False
        self._queue.append(packet)
        self.queue_bytes += packet.size_bytes
        if self.queue_bytes > self.stats.peak_queue_bytes:
            self.stats.peak_queue_bytes = self.queue_bytes
        if not self._busy:
            self._start_next()
        return True

    def send_control(self, packet) -> None:
        """Deliver a control packet after the propagation delay only."""
        fn = self.handlers.get(packet.__class__)
        if fn is None:
            raise SimulationError(f"{self!r}: no handler for {packet!r}")
        self.stats.control_packets += 1
        self._call_after(self.delay_s, fn, packet, self)

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        packet = self._queue.popleft()
        self.queue_bytes -= packet.size_bytes
        self._busy = True
        tx = packet.size_bytes * self._tx_per_byte
        self.stats.busy_time += tx
        self.stats.data_packets += 1
        self.stats.data_bytes += packet.size_bytes
        self._call_after(tx, self._finish, packet)

    def _finish(self, packet) -> None:
        self._call_after(self.delay_s, self._deliver_data, packet, self)
        self._start_next()
        if self.on_tx_complete is not None:
            self.on_tx_complete()

    def __repr__(self) -> str:
        return f"SimLink({self.src!r}->{self.dst!r}, {self.rate_bps:.0f}bps)"
