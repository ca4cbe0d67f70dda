"""The package runs without networkx, a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import importlib
import pkgutil
import sys

sys.modules["networkx"] = None  # any import of networkx now fails

import repro
from repro import build_isp_topology, make_strategy

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if module.name != "repro.__main__":
        importlib.import_module(module.name)

topo = build_isp_topology("sprint", seed=0)
nodes = topo.nodes()
for name in ("sp", "ecmp", "inrp"):
    strategy = make_strategy(name, topo)
    for flow_id, (source, destination) in enumerate(zip(nodes[:5], nodes[-5:])):
        path = strategy.route(flow_id, source, destination)
        assert path[0] == source and path[-1] == destination, path
print("routed")
"""


def test_imports_and_routes_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("routed")
