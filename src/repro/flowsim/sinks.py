"""Result sinks: where finalized flows go.

The simulator's event loops do not accumulate per-flow records
themselves; they hand every finalized :class:`~repro.flowsim.flow.FlowRecord`
to a pluggable :class:`ResultSink` and ask it for the final
:class:`SimulationResult`:

- :class:`MaterializingSink` (the default) keeps the full record list
  and reproduces the historical ``SimulationResult`` exactly — O(flows)
  memory, per-flow analysis available.
- :class:`StreamingSink` folds each record into online
  :class:`FlowAggregates` — counts, delivered bits, Jain inputs and
  FCT/stretch quantiles through a
  :class:`~repro.metrics.stats.QuantileSketch` — in O(1) memory per
  flow, which is what lets million-flow runs finish memory-bound
  workloads without materialising anything.

``SimulationResult`` itself is records-optional: every aggregate
accessor (:meth:`SimulationResult.mean_fct`,
:meth:`~SimulationResult.fct_quantile`,
:meth:`~SimulationResult.goodput_bps`, counts, Jain) answers from
either the record list or the aggregates, so campaign scenarios,
reporting and the CLI work identically against both sinks.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import AnalysisError, ConfigurationError
from repro.flowsim.flow import FlowRecord
from repro.metrics.stats import QuantileSketch

#: Default rank-error budget of the streaming quantile sketches.  At
#: 0.005 the p50/p90/p99 of a million-flow run are answered from a few
#: hundred retained entries with rank error <= 0.5% of the population.
DEFAULT_SKETCH_EPSILON = 0.005


@dataclass
class FlowAggregates:
    """Online aggregates over finalized flows.

    Counts and bit totals are exact; FCT and stretch distributions are
    kept as :class:`~repro.metrics.stats.QuantileSketch` summaries
    (``fct_sketch`` unweighted over completed flows, ``stretch_sketch``
    weighted by delivered bits over completed flows, matching the
    traffic-weighted Fig. 4b convention).  Jain inputs are the running
    first and second moments of per-flow goodput
    (``delivered_bits / fct``) over completed flows.
    """

    flows: int = 0
    completed: int = 0
    unfinished: int = 0
    delivered_bits: float = 0.0
    completed_bits: float = 0.0
    sum_fct: float = 0.0
    goodput_sum: float = 0.0
    goodput_sq_sum: float = 0.0
    goodput_flows: int = 0
    fct_sketch: QuantileSketch = field(
        default_factory=lambda: QuantileSketch(DEFAULT_SKETCH_EPSILON)
    )
    stretch_sketch: QuantileSketch = field(
        default_factory=lambda: QuantileSketch(DEFAULT_SKETCH_EPSILON)
    )

    def observe(self, record: FlowRecord) -> None:
        """Fold one finalized flow into the aggregates."""
        self.flows += 1
        self.delivered_bits += record.delivered_bits
        if not record.completed:
            self.unfinished += 1
            return
        self.completed += 1
        self.completed_bits += record.delivered_bits
        fct = record.fct
        self.sum_fct += fct
        self.fct_sketch.insert(fct)
        if record.delivered_bits > 0:
            self.stretch_sketch.insert(
                record.stretch, weight=record.delivered_bits
            )
        if fct > 0:
            goodput = record.delivered_bits / fct
            self.goodput_sum += goodput
            self.goodput_sq_sum += goodput * goodput
            self.goodput_flows += 1

    def mean_fct(self) -> Optional[float]:
        if self.completed == 0:
            return None
        return self.sum_fct / self.completed

    def jain_goodput(self) -> float:
        """Jain index of per-flow goodput over completed flows.

        Degenerately 1.0 when no flow completed (an empty population is
        perfectly fair), as the records-mode accessor reports.
        """
        if self.goodput_flows == 0 or self.goodput_sq_sum == 0.0:
            return 1.0
        return min(
            (self.goodput_sum * self.goodput_sum)
            / (self.goodput_flows * self.goodput_sq_sum),
            1.0,
        )


@dataclass
class SimulationResult:
    """Aggregate outcome of one flow-level simulation run.

    ``records`` is present when the run used a
    :class:`MaterializingSink` (the default) and ``None`` under a
    :class:`StreamingSink`, where ``aggregates`` carries the online
    summary instead.  Use the records-optional accessors
    (:attr:`num_flows`, :attr:`completed_count`, :meth:`mean_fct`,
    :meth:`fct_quantile`, :meth:`stretch_quantile`,
    :meth:`goodput_bps`, :meth:`jain_goodput`) to stay agnostic;
    :meth:`require_records` for per-flow analysis that genuinely needs
    the materialized list.
    """

    records: Optional[List[FlowRecord]]
    #: Time-weighted mean of (aggregate delivered rate / offered demand).
    network_throughput: float
    #: Time-weighted aggregate delivered rate in bits/s.
    mean_delivered_bps: float
    #: Time-weighted aggregate offered demand in bits/s.
    mean_offered_bps: float
    duration: float
    allocations: int
    unfinished: int = 0
    #: Detour switches, summed over the ``switches`` each allocator
    #: ``recompute`` returned (always 0 under SP/ECMP, whose
    #: replacement budget is 0).  An incremental INRP recompute reports
    #: the switches of the flows it re-filled; a full one (the
    #: simulator's mode for spanning components) fills the same flows
    #: and reports every active flow's.  The count therefore depends on
    #: which recomputes were full, while records, rates and allocations
    #: do not.  Seed-0 ``inrp-local`` of perfbench gives 59661 (1136
    #: full refills); the same run with every recompute incremental
    #: counts 31971, with the same records and allocation count (1999).
    total_switches: int = 0
    #: Recomputes the simulator ran in full mode.  A full recompute
    #: fills what an incremental one fills, so under SP and ECMP this
    #: count is the only output the mode moves.
    full_refills: int = 0
    #: Worst incremental-vs-scratch rate deviation observed when
    #: ``verify_allocator=True`` (None when verification did not run).
    max_verify_deviation: Optional[float] = None
    #: Online aggregates (always set under a streaming sink; None under
    #: the materializing sink, whose accessors answer from records).
    aggregates: Optional[FlowAggregates] = None

    # ------------------------------------------------------------------
    # Records-mode access
    # ------------------------------------------------------------------
    def require_records(self) -> List[FlowRecord]:
        """The materialized record list, or a clear error explaining
        that the run streamed its results away."""
        if self.records is None:
            raise AnalysisError(
                "per-flow records were not materialized (streaming sink); "
                "rerun with sink='materialize' for per-flow analysis"
            )
        return self.records

    def stretch_samples(self, include_unfinished: bool = False) -> List[float]:
        """Per-flow bit-weighted stretch values (completed flows).

        A flow truncated by the horizon has a stretch computed over a
        partial delivery, so unfinished flows are excluded from the
        Fig. 4b distribution by default; pass
        ``include_unfinished=True`` to also sample unfinished flows
        that delivered at least one bit.  Records mode only — the
        streaming pipeline keeps the distribution as a sketch; use
        :meth:`stretch_quantile`.
        """
        return [
            record.stretch
            for record in self.require_records()
            if record.completed
            or (include_unfinished and record.delivered_bits > 0)
        ]

    # ------------------------------------------------------------------
    # Records-optional accessors (work from either side)
    # ------------------------------------------------------------------
    @property
    def num_flows(self) -> int:
        if self.records is not None:
            return len(self.records)
        return self.aggregates.flows

    @property
    def completed_count(self) -> int:
        if self.records is not None:
            return sum(1 for record in self.records if record.completed)
        return self.aggregates.completed

    @property
    def delivered_bits(self) -> float:
        if self.records is not None:
            return sum(record.delivered_bits for record in self.records)
        return self.aggregates.delivered_bits

    def completion_ratio(self) -> float:
        """Fraction of flows that finished (0.0 for an empty run)."""
        flows = self.num_flows
        if flows == 0:
            return 0.0
        return self.completed_count / flows

    def goodput_bps(self) -> float:
        """Delivered bits over the run duration (0.0 for zero duration)."""
        if self.duration <= 0:
            return 0.0
        return self.delivered_bits / self.duration

    def mean_fct(self) -> Optional[float]:
        """Mean flow completion time over completed flows."""
        if self.records is None:
            return self.aggregates.mean_fct()
        fcts = [record.fct for record in self.records if record.completed]
        if not fcts:
            return None
        return sum(fcts) / len(fcts)

    def fct_quantile(self, q: float) -> Optional[float]:
        """FCT quantile over completed flows (exact from records, within
        sketch rank error from aggregates; None when nothing completed)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.records is None:
            if self.aggregates.completed == 0:
                return None
            return self.aggregates.fct_sketch.quantile(q)
        fcts = sorted(
            record.fct for record in self.records if record.completed
        )
        if not fcts:
            return None
        index = min(int(q * len(fcts)), len(fcts) - 1)
        return fcts[index]

    def stretch_quantile(self, q: float) -> Optional[float]:
        """Traffic-weighted stretch quantile over completed flows
        (exact from records, within sketch rank error from aggregates;
        None when no completed flow delivered traffic)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.records is None:
            if self.aggregates.stretch_sketch.count == 0:
                return None
            return self.aggregates.stretch_sketch.quantile(q)
        values: List[float] = []
        weights: List[float] = []
        for record in self.records:
            if record.completed and record.delivered_bits > 0:
                values.append(record.stretch)
                weights.append(record.delivered_bits)
        if not values:
            return None
        from repro.metrics.stats import Cdf

        return Cdf(values, weights).quantile(q)

    def jain_goodput(self) -> float:
        """Jain fairness index of per-flow goodput over completed flows."""
        if self.records is None:
            return self.aggregates.jain_goodput()
        aggregates = FlowAggregates()
        for record in self.records:
            aggregates.observe(record)
        return aggregates.jain_goodput()


class ResultSink(abc.ABC):
    """Consumer of finalized flows; owner of the final result.

    A sink instance is single-use: the simulator feeds it every
    finalized :class:`FlowRecord` via :meth:`consume` and calls
    :meth:`build` exactly once at the end of the run, and refuses to
    run a second time with the same instance.
    """

    @abc.abstractmethod
    def consume(self, record: FlowRecord) -> None:
        """Fold one finalized flow."""

    @abc.abstractmethod
    def build(
        self,
        *,
        network_throughput: float,
        mean_delivered_bps: float,
        mean_offered_bps: float,
        duration: float,
        allocations: int,
        unfinished: int,
        total_switches: int,
        full_refills: int = 0,
        max_verify_deviation: Optional[float] = None,
    ) -> SimulationResult:
        """Assemble the final :class:`SimulationResult`."""


class MaterializingSink(ResultSink):
    """Keeps every record; reproduces the historical result exactly."""

    def __init__(self) -> None:
        self._records: List[FlowRecord] = []

    def consume(self, record: FlowRecord) -> None:
        self._records.append(record)

    def build(self, **scalars) -> SimulationResult:
        self._records.sort(key=lambda record: record.flow_id)
        return SimulationResult(records=self._records, **scalars)


class StreamingSink(ResultSink):
    """Folds records into :class:`FlowAggregates`; keeps none of them.

    The FCT/stretch sketches answer within
    :data:`DEFAULT_SKETCH_EPSILON` rank error (see
    :class:`~repro.metrics.stats.QuantileSketch` for the error model).
    """

    def __init__(self) -> None:
        self.aggregates = FlowAggregates()

    def consume(self, record: FlowRecord) -> None:
        self.aggregates.observe(record)

    def build(self, **scalars) -> SimulationResult:
        return SimulationResult(
            records=None, aggregates=self.aggregates, **scalars
        )


def make_sink(sink) -> ResultSink:
    """Resolve a sink spec: an instance, ``"materialize"``/``"streaming"``
    or None (the materializing default)."""
    if sink is None or sink == "materialize":
        return MaterializingSink()
    if sink == "streaming":
        return StreamingSink()
    if isinstance(sink, ResultSink):
        return sink
    raise ConfigurationError(
        f"unknown sink {sink!r}; expected 'materialize', 'streaming' "
        "or a ResultSink instance"
    )
