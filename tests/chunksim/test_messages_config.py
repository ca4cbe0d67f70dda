"""Wire-message and configuration validation tests."""

import pytest

from repro.chunksim import ChunkSimConfig
from repro.chunksim.messages import DataChunk, Gossip, Request
from repro.errors import ConfigurationError


def test_request_carries_paper_fields():
    request = Request(
        flow_id=1, next_chunk=10, ack=9, anticipate_to=26,
        receiver="r", sender="s",
    )
    # The paper's format is ⟨Nc, ACKc, Ac⟩.
    assert request.next_chunk == 10
    assert request.ack == 9
    assert request.anticipate_to == 26
    assert request.size_bytes == 100


def test_data_chunk_defaults():
    chunk = DataChunk(flow_id=3, chunk_id=7, size_bytes=10_000)
    assert chunk.tunnel == ()
    assert chunk.detours == 0
    assert chunk.hops == 0
    assert not chunk.anticipated


def test_gossip_carries_backlog_map():
    message = Gossip(origin="n1", backlog_bytes={"n2": 30_000})
    assert message.backlog_bytes["n2"] == 30_000


def test_config_defaults_are_consistent():
    config = ChunkSimConfig()
    assert config.high_watermark_bytes == 4 * config.chunk_bytes
    assert config.low_watermark_bytes == 2 * config.chunk_bytes
    assert config.aimd_buffer_bytes == 16 * config.chunk_bytes


@pytest.mark.parametrize(
    "kwargs",
    [
        {"chunk_bytes": 0},
        {"request_bytes": -1},
        {"ti": 0.0},
        {"anticipation": -1},
        {"initial_window": 0},
        {"request_bytes": 0},
        {"ti": -1.0},
        {"high_watermark_chunks": 1, "low_watermark_chunks": 2},
        {"detour_depth": -1},
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigurationError):
        ChunkSimConfig(**kwargs)
