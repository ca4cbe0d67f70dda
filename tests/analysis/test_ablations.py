"""Ablation driver tests (small configurations for speed)."""

import pytest

from repro.analysis.ablations import (
    ablate_anticipation,
    ablate_custody_size,
    ablate_gossip,
)


def test_custody_sweep_structure():
    results = ablate_custody_size(
        sizes=(("small", 200_000), ("unbounded", None)), duration=6.0
    )
    for point in results.values():
        assert point.goodput_mbps == pytest.approx(2.0, rel=0.1)
        assert point.backpressure_signals > 0
        assert point.drops == 0


def test_anticipation_zero_vs_large():
    results = ablate_anticipation(horizons=(0, 16), duration=8.0)
    # Without anticipation the push gain vanishes (no pooled 5 Mbps);
    # with a healthy horizon the INRPP allocation appears.
    assert results[0][0] < results[16][0]
    assert results[16][2] > 0.95


def test_gossip_ablation_runs():
    results = ablate_gossip(isp="vsnl", duration=4.0, num_flows=2, seed=5)
    assert set(results) == {True, False}
    assert all(value > 0 for value in results.values())
