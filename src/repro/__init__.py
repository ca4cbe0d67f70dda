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

from repro.errors import (
    AnalysisError,
    CacheError,
    ConfigurationError,
    NoPathError,
    ReproError,
    RoutingError,
    SimulationError,
    TopologyError,
    WorkloadError,
)
from repro.topology import (
    ISP_NAMES,
    Topology,
    build_isp_topology,
    dumbbell_topology,
    fig3_topology,
    isp_profile,
    line_topology,
    mesh_topology,
    solve_link_counts,
    star_topology,
)
from repro.routing import (
    DetourClass,
    DetourTable,
    classify_link_detour,
    detour_breakdown,
    shortest_path,
)
from repro.metrics import Cdf, jain_index, summarize
from repro.cache import CustodyStore, custody_duration
from repro.workloads import (
    FlowSpec,
    FlowWorkload,
    PoissonArrivals,
    gravity_pairs,
    local_pairs,
    uniform_pairs,
)
from repro.flowsim import (
    FlowLevelSimulator,
    IncrementalMaxMin,
    inrp_allocation,
    make_strategy,
    max_min_allocation,
    snapshot_experiment,
)
from repro.chunksim import ChunkNetwork, ChunkSimConfig
from repro.analysis import run_fig3_simulation, run_fig4, run_table1
from repro.campaign import (
    CampaignRunner,
    ResultStore,
    iter_scenarios,
    plan_runs,
    register_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "RoutingError",
    "NoPathError",
    "SimulationError",
    "WorkloadError",
    "CacheError",
    "AnalysisError",
    # topology
    "Topology",
    "fig3_topology",
    "line_topology",
    "star_topology",
    "dumbbell_topology",
    "mesh_topology",
    "build_isp_topology",
    "isp_profile",
    "solve_link_counts",
    "ISP_NAMES",
    # routing
    "shortest_path",
    "DetourClass",
    "DetourTable",
    "classify_link_detour",
    "detour_breakdown",
    # metrics / cache
    "jain_index",
    "Cdf",
    "summarize",
    "CustodyStore",
    "custody_duration",
    # workloads
    "FlowSpec",
    "FlowWorkload",
    "PoissonArrivals",
    "uniform_pairs",
    "gravity_pairs",
    "local_pairs",
    # flowsim
    "max_min_allocation",
    "IncrementalMaxMin",
    "inrp_allocation",
    "make_strategy",
    "FlowLevelSimulator",
    "snapshot_experiment",
    # chunksim
    "ChunkNetwork",
    "ChunkSimConfig",
    # analysis
    "run_table1",
    "run_fig3_simulation",
    "run_fig4",
    # campaign
    "CampaignRunner",
    "ResultStore",
    "iter_scenarios",
    "plan_runs",
    "register_scenario",
]
