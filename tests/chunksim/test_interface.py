"""Router-interface tests: watermarks and custody."""

from repro.chunksim import ChunkSimConfig, Simulator
from repro.chunksim.interface import RouterInterface
from repro.chunksim.link import SimLink
from repro.chunksim.messages import DataChunk


def _iface(config=None, rate=10e6):
    sim = Simulator()
    received = []
    link = SimLink(
        sim, "r", "n", rate_bps=rate, delay_s=0.001,
        handlers={DataChunk: lambda p, l: received.append(p)},
    )
    iface = RouterInterface(link, config or ChunkSimConfig())
    return sim, iface, received


def _chunk(chunk_id=0, size=10_000):
    return DataChunk(flow_id=1, chunk_id=chunk_id, size_bytes=size)


def test_can_accept_watermark():
    config = ChunkSimConfig(high_watermark_chunks=2, low_watermark_chunks=1)
    sim, iface, _ = _iface(config)
    assert iface.can_accept(10_000)
    iface.link.send(_chunk(0))  # goes straight to the wire
    iface.link.send(_chunk(1))
    iface.link.send(_chunk(2))
    # Queue is now at the 2-chunk watermark.
    assert not iface.can_accept(10_000)


def test_custody_blocks_line_until_drained():
    config = ChunkSimConfig()
    sim, iface, _ = _iface(config)
    iface.take_custody(_chunk(7))
    # New chunks must not overtake custody chunks.
    assert not iface.can_accept(10_000)
    drained = iface.drain_custody()
    assert drained is not None and drained.chunk_id == 7
    assert len(iface.custody) == 0


def test_drain_respects_low_watermark():
    config = ChunkSimConfig(high_watermark_chunks=4, low_watermark_chunks=0)
    sim, iface, _ = _iface(config)
    iface.link.send(_chunk(0))
    iface.link.send(_chunk(1))  # one queued behind the in-flight chunk
    iface.take_custody(_chunk(2))
    assert iface.drain_custody() is None  # queue above the watermark
    sim.run(until=0.1)  # line drains
    assert iface.drain_custody() is not None
