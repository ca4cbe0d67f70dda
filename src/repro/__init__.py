"""repro — reproduction of "Revisiting Resource Pooling: The Case for
In-Network Resource Sharing" (Psaras, Saino, Pavlou; ACM HotNets 2014).

The package implements the In-Network Resource Pooling Principle
(INRPP) and everything it is evaluated against:

- a topology substrate with calibrated synthetic ISP maps
  (:mod:`repro.topology`);
- routing with detour discovery (:mod:`repro.routing`);
- fluid flow-level simulation with SP / ECMP / INRP strategies
  (:mod:`repro.flowsim`);
- a chunk-level discrete-event simulation of the full protocol —
  push-data, detour, back-pressure, custody caching — plus an AIMD
  baseline (:mod:`repro.chunksim`);
- drivers reproducing every table and figure of the paper
  (:mod:`repro.analysis`).

Quickstart::

    from repro import fig3_topology, make_strategy, jain_index
    from repro.units import mbps

    topo = fig3_topology()
    inrp = make_strategy("inrp", topo)
    flows = {1: (inrp.route(1, 1, 4), mbps(10)),
             2: (inrp.route(2, 1, 5), mbps(10))}
    rates = inrp.allocate(flows).rates          # {1: 5e6, 2: 5e6}
    print(jain_index(list(rates.values())))     # 1.0
"""

from repro.topology import Topology, build_isp_topology, fig3_topology
from repro.metrics import jain_index
from repro.cache import custody_duration
from repro.workloads import FlowWorkload
from repro.flowsim import FlowLevelSimulator, make_strategy
from repro.chunksim import ChunkNetwork, ChunkSimConfig

__version__ = "1.0.0"

#: The names README, docs/ARCHITECTURE.md, ``examples/``,
#: ``benchmarks/`` and ``perfbench/`` import from the top level; every
#: other name is imported from its sub-package.
__all__ = [
    "__version__",
    "ChunkNetwork",
    "ChunkSimConfig",
    "FlowLevelSimulator",
    "FlowWorkload",
    "Topology",
    "build_isp_topology",
    "custody_duration",
    "fig3_topology",
    "jain_index",
    "make_strategy",
]
