"""Validation scenario definitions.

A :class:`ValidationScenario` is a fidelity-neutral description of an
experiment: a topology, a set of flows and a sharing mode, expressed
in terms both simulators understand.  Its mode is the system's one
name, ``"inrp"`` or ``"sp"``, which goes unchanged to both
simulators: the fluid model builds that strategy, and the chunk-level
simulator runs INRPP or its AIMD e2e baseline.

The calibrated set below lives on the Fig. 3 topology because it is
the one scenario where the paper itself publishes the expected
numbers, which pins *both* fidelities to an external reference:

- ``fig3-steady-inrp`` / ``fig3-steady-sp`` — the paper's two-flow
  worked example run to steady state.  INRPP detours around the
  2 Mbps bottleneck without custody (the deficit is absorbed by
  receiver-driven pacing at the *source*), so this scenario checks
  rates, fairness and path stretch with custody expected absent.
- ``fig3-custody-inrp`` — three flows from node 1 so that flow
  1->4's detour (via node 3) collides with flow 1->3's primary path
  on the 3 Mbps link.  Chunks already committed to the detour must be
  held in custody when the collision saturates the link, which makes
  this the scenario that exercises custody occupancy and
  back-pressure onset *while* the fluid model still predicts the
  rate region.
- ``fig3-completion-inrp`` / ``fig3-completion-sp`` — finite
  100-chunk transfers with staggered starts, checking per-flow
  completion time against the fluid progressive-filling simulator.
- ``fig3-bidir-inrp`` / ``fig3-bidir-sp`` — the worked example with a
  reverse-direction flow (4->1) added.  On the directed-capacity
  substrate the reverse flow rides the opposite direction of the same
  links without stealing forward capacity, so its presence must not
  perturb the paper's forward rates.
- ``isp-bidir-inrp`` — the vsnl ISP map with the 1->4 direction
  bottlenecked to half capacity (the reverse 4->1 direction keeps the
  full 10 Mbps — an asymmetry only the directed substrate can
  express).  The forward flow 6->4 must pool a two-intermediate-node
  detour through the 1-2-3-4 square (``detour_depth=3``, deeper than
  the default) to reach its demand while the reverse flow 4->6 runs
  untouched at full rate.

All scenarios are deterministic (no seed axis): the Fig. 3 topology
has no random component in either simulator and the ISP map is built
from a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Tuple

from repro.chunksim.router import SYSTEMS
from repro.errors import ConfigurationError
from repro.topology.builders import fig3_topology
from repro.topology.graph import Node, Topology
from repro.topology.isp import build_isp_topology

#: Chunk count used for "steady state" flows: large enough that no
#: flow completes within any calibrated duration.
STEADY_CHUNKS = 10_000_000


@dataclass(frozen=True)
class ValidationFlow:
    """One transfer, in fidelity-neutral terms."""

    source: Node
    destination: Node
    start_time: float = 0.0


@dataclass(frozen=True)
class ValidationScenario:
    """A scenario both simulators can run.

    ``num_chunks=None`` means steady state (flows outlast the run and
    are compared on goodput); an integer makes it a completion
    scenario (flows finish and are compared on completion time).
    ``tolerances`` overrides entries of
    :data:`repro.validation.harness.DEFAULT_TOLERANCES` per scenario.
    ``detour_depth=None`` keeps each fidelity's default depth (2);
    an integer pins both the fluid strategy's and the chunk router's
    detour tables to that depth.
    """

    name: str
    mode: str
    flows: Tuple[ValidationFlow, ...]
    duration: float = 20.0
    warmup: Optional[float] = None
    num_chunks: Optional[int] = None
    summary: str = ""
    topology_factory: Callable[[], Topology] = fig3_topology
    tolerances: Mapping[str, float] = field(default_factory=dict)
    detour_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in SYSTEMS:
            raise ConfigurationError(
                f"unknown validation mode {self.mode!r}; expected one of {SYSTEMS}"
            )
        if not self.flows:
            raise ConfigurationError(f"scenario {self.name!r} has no flows")
        if self.detour_depth is not None and self.detour_depth < 1:
            raise ConfigurationError(
                f"detour_depth must be >= 1, got {self.detour_depth}"
            )

    @property
    def kind(self) -> str:
        return "steady" if self.num_chunks is None else "completion"

    @property
    def chunks_per_flow(self) -> int:
        return STEADY_CHUNKS if self.num_chunks is None else self.num_chunks

    @property
    def effective_warmup(self) -> float:
        if self.warmup is not None:
            return self.warmup
        return 0.25 * self.duration

    @property
    def last_start(self) -> float:
        return max(flow.start_time for flow in self.flows)

    def topology(self) -> Topology:
        return self.topology_factory()


def _vsnl_directed_topology() -> Topology:
    """The vsnl ISP map with a *directed* bottleneck on 1 -> 4.

    Only the forward direction is halved; 4 -> 1 keeps the full
    10 Mbps.  Pre-refactor (undirected capacities) this topology was
    inexpressible: halving (1, 4) would have halved both directions.
    """
    topo = build_isp_topology("vsnl", seed=0)
    topo.set_directed_capacity(1, 4, 5_000_000.0)
    return topo


_PAPER_FLOWS = (
    ValidationFlow(source=1, destination=4),
    ValidationFlow(source=1, destination=5),
)

#: The paper's two forward flows plus a reverse-direction flow 4->1.
#: Directed capacities make the reverse flow free: it must not change
#: the forward fixed point.
_BIDIR_FLOWS = (
    ValidationFlow(source=1, destination=4, start_time=0.0),
    ValidationFlow(source=4, destination=1, start_time=0.01),
    ValidationFlow(source=1, destination=5, start_time=0.02),
)

#: Three flows from node 1: 1->4 (detours via 3), 1->5 (clear) and
#: 1->3 (primary over the 3 Mbps link the detour needs).  The detour /
#: primary collision on link (2, 3) is what forces transit custody.
_CUSTODY_FLOWS = (
    ValidationFlow(source=1, destination=4, start_time=0.0),
    ValidationFlow(source=1, destination=5, start_time=0.01),
    ValidationFlow(source=1, destination=3, start_time=0.02),
)

CALIBRATED_SCENARIOS: Tuple[ValidationScenario, ...] = (
    ValidationScenario(
        name="fig3-steady-inrp",
        mode="inrp",
        flows=_PAPER_FLOWS,
        duration=20.0,
        warmup=5.0,
        summary="Paper's two-flow Fig. 3 example, INRPP vs fluid INRP",
    ),
    ValidationScenario(
        name="fig3-steady-sp",
        mode="sp",
        flows=_PAPER_FLOWS,
        duration=20.0,
        warmup=5.0,
        summary="Paper's two-flow Fig. 3 example, AIMD vs fluid max-min",
    ),
    ValidationScenario(
        name="fig3-custody-inrp",
        mode="inrp",
        flows=_CUSTODY_FLOWS,
        duration=20.0,
        warmup=5.0,
        summary="Detour/primary collision: custody occupancy and onset",
    ),
    ValidationScenario(
        name="fig3-completion-inrp",
        mode="inrp",
        flows=(
            ValidationFlow(source=1, destination=4, start_time=0.0),
            ValidationFlow(source=1, destination=5, start_time=0.25),
        ),
        duration=30.0,
        warmup=0.0,
        num_chunks=100,
        summary="Finite 100-chunk transfers: completion time, INRPP",
    ),
    ValidationScenario(
        name="fig3-completion-sp",
        mode="sp",
        flows=(
            ValidationFlow(source=1, destination=4, start_time=0.0),
            ValidationFlow(source=1, destination=5, start_time=0.25),
        ),
        duration=30.0,
        warmup=0.0,
        num_chunks=100,
        summary="Finite 100-chunk transfers: completion time, AIMD",
    ),
    ValidationScenario(
        name="fig3-bidir-inrp",
        mode="inrp",
        flows=_BIDIR_FLOWS,
        duration=20.0,
        warmup=5.0,
        summary="Fig. 3 with a reverse flow: directions share no capacity",
    ),
    ValidationScenario(
        name="fig3-bidir-sp",
        mode="sp",
        flows=_BIDIR_FLOWS,
        duration=20.0,
        warmup=5.0,
        summary="Fig. 3 with a reverse flow, AIMD vs fluid max-min",
    ),
    ValidationScenario(
        name="isp-bidir-inrp",
        mode="inrp",
        flows=(
            ValidationFlow(source=6, destination=4, start_time=0.0),
            ValidationFlow(source=4, destination=6, start_time=0.01),
        ),
        duration=20.0,
        warmup=5.0,
        summary="vsnl with a directed bottleneck: deep detour forward, clear reverse",
        topology_factory=_vsnl_directed_topology,
        detour_depth=3,
    ),
)


def scenario_by_name(name: str) -> ValidationScenario:
    """Look up a calibrated scenario (raises on unknown names)."""
    for scenario in CALIBRATED_SCENARIOS:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in CALIBRATED_SCENARIOS)
    raise ConfigurationError(
        f"unknown validation scenario {name!r}; expected one of {known}"
    )
