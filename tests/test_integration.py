"""Cross-module integration tests: the paper's story end to end."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro import ChunkNetwork, build_isp_topology, jain_index, make_strategy
from repro.flowsim import snapshot_experiment
from repro.topology import fig3_topology
from repro.units import mbps
from repro.workloads import local_pairs

ROOT = Path(__file__).resolve().parents[1]

#: ``from repro import a, b`` or ``from repro import (a, b, ...)`` in
#: a Markdown code block.
_MARKDOWN_IMPORT = re.compile(
    r"^\s*from repro import (\(([^)]*)\)|[^\n]*)", re.MULTILINE
)


def _top_level_imports():
    """Names that the docs, examples, benchmarks and perfbench import
    with ``from repro import ...``."""
    names = set()
    for doc in (ROOT / "README.md", ROOT / "docs" / "ARCHITECTURE.md"):
        for match in _MARKDOWN_IMPORT.finditer(doc.read_text()):
            listed = match.group(2) or match.group(1).split("#")[0]
            names.update(
                name.split(" as ")[0].strip()
                for name in listed.replace("\n", ",").split(",")
                if name.strip()
            )
    scripts = [
        path
        for directory in ("examples", "benchmarks", "perfbench")
        for path in (ROOT / directory).rglob("*.py")
    ]
    for script in scripts:
        for node in ast.walk(ast.parse(script.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                names.update(alias.name for alias in node.names)
    return names


def test_public_api_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name
    imported = _top_level_imports()
    assert imported <= set(repro.__all__), imported - set(repro.__all__)
    unused = set(repro.__all__) - imported - {"__version__"}
    assert not unused, f"re-exported but imported by no doc or script: {unused}"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_fluid_and_chunk_level_agree_on_fig3():
    """The fluid INRP allocator and the chunk-level INRPP protocol must
    agree on the paper's worked example within a few percent."""
    topo = fig3_topology()
    strategy = make_strategy("inrp", topo)
    flows = {
        1: (strategy.route(1, 1, 4), mbps(10)),
        2: (strategy.route(2, 1, 5), mbps(10)),
    }
    fluid = strategy.allocate(flows).rates

    net = ChunkNetwork(fig3_topology(), mode="inrp")
    f1 = net.add_flow(1, 4, num_chunks=10_000_000)
    f2 = net.add_flow(1, 5, num_chunks=10_000_000)
    report = net.run(duration=10.0, warmup=4.0)
    assert report.flow(f1).goodput_bps == pytest.approx(fluid[1], rel=0.08)
    assert report.flow(f2).goodput_bps == pytest.approx(fluid[2], rel=0.08)


def test_inrpp_on_synthetic_isp_map_chunk_level():
    """Chunk-level INRPP runs on a Table 1 ISP map (not just toys):
    pick VSNL (smallest) and push two competing transfers."""
    topo = build_isp_topology("vsnl", seed=0)
    nodes = [n for n in topo.nodes() if topo.degree(n) >= 2]
    net = ChunkNetwork(topo, mode="inrp")
    f1 = net.add_flow(nodes[0], nodes[-1], num_chunks=100_000)
    f2 = net.add_flow(nodes[1], nodes[-2], num_chunks=100_000)
    report = net.run(duration=5.0, warmup=1.0)
    assert report.drops == 0
    assert report.total_goodput_bps() > 0
    rates = [report.flow(f1).goodput_bps, report.flow(f2).goodput_bps]
    assert jain_index(rates) > 0.0


def test_detour_richness_predicts_inrp_gain():
    """Across ISP maps, the INRP gain should track detour availability:
    Telstra (70% one-hop links) gains more than Tiscali (24.5%)."""
    gains = {}
    for isp in ("telstra", "tiscali"):
        topo = build_isp_topology(isp, seed=0)
        sampler = local_pairs(topo, seed=3)
        results = {}
        for name in ("sp", "inrp"):
            strategy = make_strategy(name, topo)
            results[name] = snapshot_experiment(
                topo, strategy, num_flows=max(10, topo.num_nodes // 12),
                demand_bps=mbps(10), num_snapshots=3, seed=3,
                pair_sampler=sampler,
            ).mean_throughput
        gains[isp] = results["inrp"] / results["sp"] - 1.0
    assert gains["telstra"] > gains["tiscali"]


def test_custody_sizing_consistency_with_chunksim():
    """The custody duration helper and the simulator agree: a store
    sized for T seconds at the feed rate absorbs a T-second burst."""
    from repro import custody_duration

    feed = mbps(10)
    store_bytes = 2_500_000  # 2 s at 10 Mbps
    assert custody_duration(store_bytes, feed) == pytest.approx(2.0)
