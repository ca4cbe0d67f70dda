"""The paper's results, gated at full size.

One test per paper artefact (and per design ablation), each calling the
driver the CLI calls at the CLI's defaults: ``repro table1``, ``repro
fig3``, ``repro fig4`` and ``repro campaign run`` for the ablation
scenarios.  The bounds are the reproduction's acceptance bands; a claim
that does not reproduce at the default seed is carried as a strict
xfail with its measured values, so it flags the day it passes.
"""

import pytest

from repro.analysis.ablations import (
    ablate_anticipation,
    ablate_custody_size,
    ablate_gossip,
)
from repro.analysis.fig3 import PAPER_E2E_JAIN, PAPER_INRPP_JAIN, run_fig3_all
from repro.analysis.fig4 import run_fig4
from repro.analysis.table1 import run_table1
from repro.cache.custody import custody_duration
from repro.campaign.scenario import get_scenario, load_builtin_scenarios
from repro.units import gbps, gigabytes


@pytest.fixture(scope="module")
def fig4_result():
    """``repro fig4``: seed 42, 8 snapshots, SP / ECMP / INRP."""
    return run_fig4(seed=42, num_snapshots=8)


def test_table1_detour_availability():
    result = run_table1(seed=0)
    # Every cell within 0.5 pp of the paper's value.
    assert result.max_error < 0.5
    # The ordering the paper calls out: Level 3 is by far the most
    # detour-rich map, VSNL and Tiscali the poorest.
    by_one_hop = {row.isp: row.measured[0] for row in result.rows}
    assert by_one_hop["level3"] > 90.0
    assert by_one_hop["level3"] > by_one_hop["telstra"] > by_one_hop["exodus"]
    assert by_one_hop["vsnl"] < 30.0 and by_one_hop["tiscali"] < 30.0


def test_fig3_fairness_split():
    results = run_fig3_all(duration=20.0)
    # Fluid allocators: e2e gives (2, 8) Mbps, INRPP pools to (5, 5).
    e2e, inrpp = results["e2e-fluid"], results["inrpp-fluid"]
    assert e2e.rate_bottlenecked_mbps == pytest.approx(2.0, abs=0.01)
    assert e2e.rate_clear_mbps == pytest.approx(8.0, abs=0.01)
    assert e2e.jain == pytest.approx(PAPER_E2E_JAIN, abs=0.01)
    assert inrpp.rate_bottlenecked_mbps == pytest.approx(5.0, abs=0.01)
    assert inrpp.rate_clear_mbps == pytest.approx(5.0, abs=0.01)
    assert inrpp.jain == pytest.approx(PAPER_INRPP_JAIN, abs=1e-6)
    # Chunk level: AIMD tracks the per-path bottlenecks, INRPP pools the
    # shared link and the detour.
    e2e, inrpp = results["e2e-sim"], results["inrpp-sim"]
    assert e2e.rate_bottlenecked_mbps == pytest.approx(2.0, rel=0.15)
    assert e2e.rate_clear_mbps == pytest.approx(8.0, rel=0.15)
    assert e2e.jain == pytest.approx(PAPER_E2E_JAIN, abs=0.05)
    assert inrpp.rate_bottlenecked_mbps == pytest.approx(5.0, rel=0.05)
    assert inrpp.rate_clear_mbps == pytest.approx(5.0, rel=0.05)
    assert inrpp.jain > 0.99


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Fig. 4a does not reproduce at the default seed 42: INRP's "
    "gain over SP is telstra 0.0993, exodus 0.0577, tiscali 0.0444, and "
    "tiscali is below the band's 0.05 floor (the paper reports 9-15%)",
)
def test_fig4a_inrp_gain_in_paper_band(fig4_result):
    # A band bracketing the paper's 9-15% on every map.
    gains = {isp: fig4_result.gain_over_sp(isp) for isp in fig4_result.throughput}
    for isp, gain in gains.items():
        assert 0.05 <= gain <= 0.25, f"{isp}: INRP gain {gain:.4f} out of band"


def test_fig4a_ecmp_floor_and_inrp_best(fig4_result):
    assert set(fig4_result.throughput) == {"telstra", "exodus", "tiscali"}
    for isp, row in fig4_result.throughput.items():
        # ECMP does not collapse below SP (equal-cost sets are thin on
        # the synthetic maps, so parity with SP is the expected floor).
        assert fig4_result.gain_over_sp(isp, "ecmp") >= -0.05, isp
        # INRP is the best strategy on every map.
        assert row["inrp"] >= row["ecmp"] and row["inrp"] >= row["sp"], isp


def test_fig4b_stretch_is_small(fig4_result):
    for isp, snapshot in fig4_result.inrp_results.items():
        cdf = snapshot.stretch_cdf()
        # Most traffic takes the shortest path (paper: >= ~50-65%).
        assert cdf(1.0) >= 0.5, f"{isp}: only {cdf(1.0):.2f} of bits unstretched"
        # A thin, bounded tail (paper max ~1.35; depth-2 detours on
        # short paths allow a slightly longer one).
        assert cdf.quantile(0.95) <= 1.5, f"{isp}: p95 stretch too large"
        assert cdf.max <= 2.0, f"{isp}: max stretch {cdf.max:.2f}"


def test_detour_depth_pays():
    """``campaign run --scenarios snapshot-sweep --grid seed=42
    --grid detour_depth=0,1,2 --grid num_snapshots=6`` on Telstra."""
    load_builtin_scenarios()
    sweep = get_scenario("snapshot-sweep")
    throughput = {
        depth: sweep.run(
            seed=42, isp="telstra", detour_depth=depth, num_snapshots=6
        )["mean_throughput"]
        for depth in (0, 1, 2)
    }
    assert throughput[1] >= throughput[0] - 0.01
    assert throughput[2] >= throughput[1] - 0.01
    assert throughput[2] > throughput[0] * 1.05  # detouring must pay


def test_custody_size_does_not_change_goodput():
    for label, point in ablate_custody_size().items():
        # Back-pressure keeps goodput at the bottleneck rate whatever
        # the store size.
        assert point.goodput_mbps == pytest.approx(2.0, rel=0.05), label
        assert point.backpressure_signals > 0, label
        if label == "40kB":
            # A store holding ~32 ms of the feed can overflow during a
            # push burst before back-pressure bites: custody must cover
            # the control delay.
            assert point.drops < 50, label
        else:
            assert point.drops == 0, label
    # The paper's footnote: a 10 GB cache behind 40 Gbps holds 2 s.
    assert custody_duration(gigabytes(10), gbps(40)) == pytest.approx(2.0)


def test_anticipation_restores_pooled_split():
    results = ablate_anticipation()
    # A modest horizon restores the pooled (5, 5) allocation...
    assert results[8][0] == pytest.approx(5.0, rel=0.1)
    assert results[8][2] > 0.98
    # ...and larger horizons do not destabilise it.
    assert results[32][0] == pytest.approx(5.0, rel=0.1)


def test_informed_detouring_not_worse():
    results = ablate_gossip()
    assert results[True] > 0 and results[False] > 0
    assert results[True] >= results[False] * 0.9
