"""Wire messages of the chunk-level simulator.

The request format follows the paper exactly: ``⟨Nc, ACKc, Ac⟩`` —
next chunk requested, cumulative acknowledgement, and the anticipation
horizon (the last chunk the application announces it will want soon).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.topology.graph import Node


@dataclass(slots=True)
class Request:
    """Receiver-driven request packet ``⟨Nc, ACKc, Ac⟩``."""

    flow_id: int
    #: Nc — the next chunk the application requests.
    next_chunk: int
    #: ACKc — highest in-order chunk received so far (-1 before any).
    ack: int
    #: Ac — last anticipated chunk (sender may push up to this).
    anticipate_to: int
    #: Routing endpoints: requests travel receiver -> sender.
    receiver: Node = None
    sender: Node = None
    size_bytes: int = 100


@dataclass(slots=True)
class DataChunk:
    """One named content chunk travelling sender -> receiver."""

    flow_id: int
    chunk_id: int
    size_bytes: int
    receiver: Node = None
    sender: Node = None
    #: True when the chunk was pushed ahead of an explicit request.
    anticipated: bool = False
    #: Remaining forced hops of a detour tunnel (spoofed next hops).
    tunnel: Tuple[Node, ...] = ()
    #: Number of detour re-routes this chunk experienced.
    detours: int = 0
    hops: int = 0


@dataclass(slots=True)
class Backpressure:
    """Hop-by-hop back-pressure notification.

    Sent by a congested node to its one-hop upstream neighbour when a
    chunk had to be taken into custody, and relayed toward the sender,
    which enters the closed-loop mode (1:1 request credits).  The
    signal carries no rate.
    """

    flow_id: int
    #: The flow's sender, for hop-by-hop relaying toward it.
    sender: Node = None
    size_bytes: int = 64


@dataclass(slots=True)
class Gossip:
    """Periodic one-hop neighbour state exchange (Section 3.3 (i)).

    A router advertises, for each of its outgoing interfaces, the
    current backlog so neighbours can make informed detour decisions.
    """

    origin: Node
    #: next-hop -> queued bytes on the interface toward it.
    backlog_bytes: dict = field(default_factory=dict)
    size_bytes: int = 64
