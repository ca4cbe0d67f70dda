"""Fig. 3 — global fairness vs e2e flow control, worked example.

Paper numbers: e2e flow control gives (2, 8) Mbps and Jain 0.73;
INRPP gives (5, 5) Mbps and Jain 1.0.  Both are reproduced twice —
with the fluid allocators and with the full chunk-level protocol
simulation (AIMD baseline vs INRPP with detour + back-pressure).
"""

from __future__ import annotations

import pytest

from repro.analysis.fig3 import (
    PAPER_E2E_JAIN,
    PAPER_INRPP_JAIN,
    fig3_fluid,
    run_fig3_simulation,
)

from conftest import register_report


def test_bench_fig3_fluid(benchmark):
    def _run():
        return fig3_fluid("e2e"), fig3_fluid("inrpp")

    e2e, inrpp = benchmark.pedantic(_run, rounds=1, iterations=1)
    register_report("Fig. 3 (fluid allocators)", e2e.comparisons().render())
    register_report("Fig. 3 (fluid allocators, INRPP)", inrpp.comparisons().render())
    assert e2e.rate_bottlenecked_mbps == pytest.approx(2.0, abs=0.01)
    assert e2e.rate_clear_mbps == pytest.approx(8.0, abs=0.01)
    assert e2e.jain == pytest.approx(PAPER_E2E_JAIN, abs=0.01)
    assert inrpp.rate_bottlenecked_mbps == pytest.approx(5.0, abs=0.01)
    assert inrpp.rate_clear_mbps == pytest.approx(5.0, abs=0.01)
    assert inrpp.jain == pytest.approx(PAPER_INRPP_JAIN, abs=1e-6)


def test_bench_fig3_chunk_simulation(benchmark):
    def _run():
        e2e, _ = run_fig3_simulation("e2e", duration=20.0)
        inrpp, net = run_fig3_simulation("inrpp", duration=20.0)
        return e2e, inrpp, net

    e2e, inrpp, net = benchmark.pedantic(_run, rounds=1, iterations=1)
    register_report("Fig. 3 (chunk-level, AIMD)", e2e.comparisons().render())
    register_report("Fig. 3 (chunk-level, INRPP)", inrpp.comparisons().render())
    # AIMD tracks the per-path bottlenecks: ~(2, 8) Mbps, Jain ~0.73.
    assert e2e.rate_bottlenecked_mbps == pytest.approx(2.0, rel=0.15)
    assert e2e.rate_clear_mbps == pytest.approx(8.0, rel=0.15)
    assert e2e.jain == pytest.approx(PAPER_E2E_JAIN, abs=0.05)
    # INRPP pools the shared link and the detour: (5, 5) Mbps, Jain 1.
    assert inrpp.rate_bottlenecked_mbps == pytest.approx(5.0, rel=0.05)
    assert inrpp.rate_clear_mbps == pytest.approx(5.0, rel=0.05)
    assert inrpp.jain > 0.99
