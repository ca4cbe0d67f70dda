"""Vectorized CSR allocation kernel for progressive filling.

The incremental allocators of :mod:`repro.flowsim.allocation` made
recomputes *incremental* (only the dirty component is re-filled), but
each progressive-filling round inside that re-fill was still pure
Python iteration over dicts and sets.  This module turns one filling
round into a handful of numpy vector operations over a CSR-style
representation of the flow-link incidence:

- :class:`LinkSpace` interns link ids into a stable column space with
  capacity and saturation-floor vectors;
- :class:`IncidenceStore` maintains the flow -> link incidence as
  index arrays across add/remove churn: rows grow in place, removed
  rows are tombstoned (never compacted eagerly), and the arrays are
  compacted periodically once dead entries dominate — so the arrays
  are *maintained*, not rebuilt per event;
- :func:`maxmin_fill` runs exact progressive filling (the semantics of
  :func:`repro.flowsim.allocation.max_min_allocation`) where each
  round — find the bottleneck fair share, freeze saturated flows,
  debit link headroom — is ``np.minimum``/``np.bincount``-style vector
  arithmetic;
- :func:`inrp_fill` runs the INRP fluid filling (the semantics of
  :func:`repro.flowsim.multipath.inrp_allocation`): each round's
  fair-share step and link debit are a few vector operations, every
  unfrozen flow's total is one scalar level, and the flows a round
  freezes or reroutes come from a demand-sorted cursor, a
  column -> primary rows index and a scan of the flows on detours;
  the reroute walk that follows costs work per affected flow, not
  per column: option spares are Python ``min`` reads of the shared
  residual vector, and splices come from a memo that outlives the
  fill.

The two fills pick different column layouts.  :func:`maxmin_fill`
*compresses columns*: its working vectors cover only the links the
component actually touches, so a component of 30 flows on a 2000-link
map pays for ~100 columns per round.  :func:`inrp_fill` works
*full-width* over the global column space instead: per-round vector
ops over a few thousand columns cost about the same as over a few
hundred, and global column ids make the per-``(u, v)`` detour options
and the per-path column entries, splice memo included, *persistent
across fills* (built once per topology and cached by the allocator),
which removes the per-fill rebuild work that dominated the
reroute-heavy INRP profile.

Exactness is the contract: both fills perform the *same float
arithmetic in the same order per link and per flow* as their scalar
counterparts (level and residual accumulate identical step sequences),
so the results agree bit-for-bit except in degenerate tie-tolerance
corner cases, and the randomized churn tests plus ``verify=True``
cross-checks hold them to <= 1e-9 of the scratch solvers.  The
scalar level both round loops keep loses no bits: every unfrozen
row's total is the same left fold of the same round steps, and the
cursor and column index pick exactly the rows a full comparison over
every row would.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import (
    AbstractSet,
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import SimulationError
from repro.flowsim.multipath import (
    MAX_SWITCHES_PER_FLOW,
    MultipathAllocation,
    splice_detour,
)
from repro.routing.detour import DetourTable
from repro.routing.paths import Path, cached_path_links

FlowId = Hashable
LinkId = Hashable

_EPS = 1e-9


class LinkSpace:
    """Stable link-id <-> column interning over a fixed topology.

    Built once per allocator from the capacity map; columns never move,
    so incidence rows stored by :class:`IncidenceStore` stay valid for
    the allocator's lifetime.
    """

    __slots__ = (
        "index",
        "links",
        "capacity",
        "floor",
        "num_links",
        "_marks",
        "_local",
    )

    def __init__(self, capacities: Mapping[LinkId, float]):
        self.index: Dict[LinkId, int] = {}
        links: List[LinkId] = []
        caps: List[float] = []
        for link, capacity in capacities.items():
            self.index[link] = len(links)
            links.append(link)
            caps.append(float(capacity))
        self.links = links
        self.capacity = np.asarray(caps, dtype=np.float64)
        # The scalar solvers' per-link saturation tolerance
        # (``_rel_tol(capacity)``): _EPS * (1 + |capacity|), flat _EPS
        # for infinite-capacity links.
        self.floor = _EPS * (1.0 + np.abs(self.capacity))
        self.floor[np.isinf(self.capacity)] = _EPS
        self.num_links = len(links)
        # Scratch for :meth:`compress`; all-False between calls.
        self._marks = np.zeros(self.num_links, dtype=bool)
        self._local = np.empty(self.num_links, dtype=np.int64)

    def columns(self, links: Sequence[LinkId]) -> np.ndarray:
        """Column ids for *links* (raises ``KeyError`` on unknown)."""
        index = self.index
        return np.fromiter(
            (index[link] for link in links), dtype=np.int64, count=len(links)
        )

    def compress(self, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``np.unique(cols, return_inverse=True)`` without the sort.

        Marks *cols* in a bool array over the column space, reads the
        sorted distinct columns back from the marks, and maps each
        entry of *cols* to its position among them.  Costs a few
        fixed-size vector ops, where ``np.unique`` pays a sort and its
        own Python-level setup on every call.
        """
        marks = self._marks
        marks[cols] = True
        unique = np.flatnonzero(marks)
        marks[unique] = False
        local = self._local
        local[unique] = np.arange(len(unique))
        return unique, local[cols]


def _joined(arrays: List[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _grow(array: np.ndarray, needed: int) -> np.ndarray:
    """Capacity-doubling growth preserving the prefix."""
    capacity = len(array)
    if needed <= capacity:
        return array
    new_capacity = max(needed, capacity * 2, 16)
    grown = np.empty(new_capacity, dtype=array.dtype)
    grown[:capacity] = array
    return grown


class IncidenceStore:
    """Flow -> link incidence maintained as tombstoned CSR arrays.

    Rows are appended on :meth:`add` (entries land at the tail of one
    growing column buffer) and *tombstoned* on :meth:`remove` — the
    row's entries stay in place but are flagged dead, exactly the
    lazy-invalidation pattern the event loop uses for its departure
    heap.  Once dead entries exceed ``compact_slack`` (half) of the
    buffer and the buffer holds at least ``min_compact_nnz`` (4096)
    entries, so that compaction matters, the arrays are compacted in
    one vectorized gather and rows are renumbered; callers address
    rows only through flow ids, so the renumbering is invisible.

    ``demand`` rides along as a per-row vector so a component fill can
    gather demands without touching Python dicts.
    """

    def __init__(self, space: LinkSpace):
        self.space = space
        self.compact_slack = 0.5
        self.min_compact_nnz = 4096
        self._cols = np.empty(256, dtype=np.int64)
        self._entry_alive = np.zeros(256, dtype=bool)
        self._nnz = 0
        self._dead_nnz = 0
        self._starts = np.empty(64, dtype=np.int64)
        self._lengths = np.empty(64, dtype=np.int64)
        self._demands = np.empty(64, dtype=np.float64)
        # Last rate stored per row (NaN = never filled); lets callers
        # diff a fresh fill against the previous one in vector form.
        self._last_rates = np.full(64, np.nan, dtype=np.float64)
        self._num_rows = 0
        self._dead_rows = 0
        self._row_of: Dict[FlowId, int] = {}
        self._flow_of: List[Optional[FlowId]] = []
        #: Number of compactions performed (observable for tests).
        self.compactions = 0

    def __len__(self) -> int:
        return self._num_rows - self._dead_rows

    def __contains__(self, flow: FlowId) -> bool:
        return flow in self._row_of

    @property
    def nnz(self) -> int:
        """Live entries currently in the column buffer."""
        return self._nnz - self._dead_nnz

    def add(self, flow: FlowId, cols: np.ndarray, demand: float) -> int:
        """Append a row for *flow*; returns its (current) row id."""
        if flow in self._row_of:
            raise SimulationError(f"flow {flow!r} already has a row")
        row = self._num_rows
        length = len(cols)
        self._starts = _grow(self._starts, row + 1)
        self._lengths = _grow(self._lengths, row + 1)
        self._demands = _grow(self._demands, row + 1)
        self._last_rates = _grow(self._last_rates, row + 1)
        self._cols = _grow(self._cols, self._nnz + length)
        self._entry_alive = _grow(self._entry_alive, self._nnz + length)
        self._starts[row] = self._nnz
        self._lengths[row] = length
        self._demands[row] = demand
        self._last_rates[row] = np.nan
        self._cols[self._nnz : self._nnz + length] = cols
        self._entry_alive[self._nnz : self._nnz + length] = True
        self._nnz += length
        self._num_rows += 1
        self._row_of[flow] = row
        self._flow_of.append(flow)
        return row

    def remove(self, flow: FlowId) -> None:
        """Tombstone the row of *flow*; compact when slack dominates."""
        row = self._row_of.pop(flow, None)
        if row is None:
            raise SimulationError(f"flow {flow!r} has no row")
        self._flow_of[row] = None
        start = self._starts[row]
        length = self._lengths[row]
        self._entry_alive[start : start + length] = False
        self._dead_nnz += int(length)
        self._dead_rows += 1
        if (
            self._nnz >= self.min_compact_nnz
            and self._dead_nnz > self.compact_slack * self._nnz
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstoned rows/entries with one vectorized gather."""
        alive_rows = np.fromiter(
            (
                row
                for row in range(self._num_rows)
                if self._flow_of[row] is not None
            ),
            dtype=np.int64,
        )
        cols, lengths = self._gather_rows(alive_rows)
        count = len(alive_rows)
        self._cols = cols if len(cols) else np.empty(256, dtype=np.int64)
        self._nnz = int(lengths.sum()) if count else 0
        if len(self._cols) < 256:
            self._cols = _grow(self._cols, 256)
        self._entry_alive = np.ones(max(len(self._cols), 256), dtype=bool)
        self._dead_nnz = 0
        starts = np.zeros(max(count, 64), dtype=np.int64)
        if count:
            starts[1:count] = np.cumsum(lengths)[:-1]
        new_lengths = np.zeros(max(count, 64), dtype=np.int64)
        new_lengths[:count] = lengths
        new_demands = np.empty(max(count, 64), dtype=np.float64)
        new_demands[:count] = self._demands[alive_rows]
        new_last = np.full(max(count, 64), np.nan, dtype=np.float64)
        new_last[:count] = self._last_rates[alive_rows]
        flow_of = [self._flow_of[row] for row in alive_rows]
        self._starts = starts
        self._lengths = new_lengths
        self._demands = new_demands
        self._last_rates = new_last
        self._flow_of = flow_of
        self._num_rows = count
        self._dead_rows = 0
        self._row_of = {flow: row for row, flow in enumerate(flow_of)}
        self.compactions += 1

    def _gather_rows(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenated column ids + per-row lengths for *rows*.

        Fully vectorized (the repeat/offset trick): no Python loop over
        rows, so gathering a component is O(component nnz) numpy work.
        """
        lengths = self._lengths[rows]
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), lengths
        starts = self._starts[rows]
        offsets = np.zeros(len(rows), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        index = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, lengths
        )
        return self._cols[index], lengths

    def gather(
        self, flows: Sequence[FlowId], with_rows: bool = False
    ):
        """``(cols, row_lengths, demands)`` for *flows*, in order.

        With ``with_rows=True`` the (current) row ids come back as a
        fourth array, for callers that want to
        :meth:`diff_and_store_rates` after filling.
        """
        row_of = self._row_of
        rows = np.fromiter(
            (row_of[flow] for flow in flows), dtype=np.int64, count=len(flows)
        )
        cols, lengths = self._gather_rows(rows)
        demands = self._demands[rows].copy()
        if with_rows:
            return cols, lengths, demands, rows
        return cols, lengths, demands

    def diff_and_store_rates(
        self, rows: np.ndarray, rates: np.ndarray
    ) -> np.ndarray:
        """Positions in *rows* whose rate differs from the last fill.

        Stores *rates* as the new per-row baseline.  Rows never filled
        before hold NaN and therefore always report as changed, so a
        caller returning only the diff still reports every fresh flow.
        """
        prev = self._last_rates[rows]
        self._last_rates[rows] = rates
        return np.nonzero(rates != prev)[0]

    def live_flows(self) -> List[FlowId]:
        """Live flow ids in row order.

        Rows are appended in arrival order and compaction preserves
        relative order, so this is the population in arrival order —
        the invariant the INRP fill's reroute sequencing relies on.
        """
        return [flow for flow in self._flow_of if flow is not None]

    def check_consistency(self) -> None:
        """Invariant checks for tests: spans and tombstones line up."""
        live = 0
        for flow, row in self._row_of.items():
            if self._flow_of[row] is not flow and self._flow_of[row] != flow:
                raise SimulationError(f"row map corrupt for flow {flow!r}")
            start, length = self._starts[row], self._lengths[row]
            if not self._entry_alive[start : start + length].all():
                raise SimulationError(f"dead entries inside live row {row}")
            live += int(length)
        if live != self.nnz:
            raise SimulationError(
                f"live entry count drifted: {live} != {self.nnz}"
            )



def _maxmin_rounds(
    active_left,
    active_flag,
    order,
    num_ordered,
    demands_list,
    rates,
    starts_list,
    lengths_list,
    counts,
    residual,
    steps,
    sat_mask,
    scratch,
    lcols,
    entry_row,
    width,
):
    """The round loop of :func:`maxmin_fill` (split out so the
    caller can scope the errstate suppression around it)."""
    cursor = 0
    # Column-to-crossing-rows index, built lazily on first saturation:
    # rows of each column's entries, contiguous per column.  A row's
    # liveness is read off ``active_flag`` directly, so no per-entry
    # state needs maintaining when rows freeze.
    col_rows = None
    col_bounds = None
    level = 0.0
    # Conservative lower bound on the current saturation step.  After a
    # round of size ``step`` every carrying column's headroom shrinks by
    # at most ``step`` (freezes only raise it), so the bound decays by
    # ``step`` plus a slack dwarfing float rounding yet far below the
    # freeze tolerance.  While the bound exceeds the demand step the
    # exact divide+min is provably a no-op and is skipped; whenever the
    # bound cannot rule saturation out, the exact computation runs, so
    # every freeze decision is bit-identical to the always-exact form.
    sat_bound = -math.inf
    # Bound ufunc machinery once; the loop body is dispatch-bound.
    # Dividing the full width keeps the loop free of where= masking:
    # dead columns come out as inf (headroom left) or nan (0/0), both
    # invisible to fmin's reduction and to the <= saturation test, so
    # carrying columns see bit-identical values either way.
    np_divide = np.divide
    np_less_equal = np.less_equal
    np_multiply = np.multiply
    np_subtract = np.subtract
    fmin_reduce = np.fmin.reduce
    while active_left:
        while not active_flag[order[cursor]]:
            cursor += 1
        demand_step = demands_list[order[cursor]] - level
        if sat_bound > demand_step + _EPS * (1.0 + abs(demand_step)):
            saturation_step = math.inf
        else:
            np_divide(residual, counts, out=steps)
            saturation_step = float(fmin_reduce(steps))
            sat_bound = saturation_step
        step = min(demand_step, saturation_step)
        if step < -_EPS * (1.0 + abs(level)):
            raise SimulationError("negative fill step; inconsistent state")
        step = max(step, 0.0)
        level += step
        np_multiply(counts, step, out=scratch)
        np_subtract(residual, scratch, out=residual)
        if sat_bound != math.inf:  # +inf means no carrying column, ever
            sat_bound = (sat_bound - step) - _EPS * (
                abs(sat_bound) + step + 1.0
            )
        tol = _EPS * (1.0 + abs(level))
        newly: List[int] = []
        while cursor < num_ordered:
            row = order[cursor]
            if not active_flag[row]:
                cursor += 1
                continue
            if demands_list[row] - level <= tol:
                newly.append(row)
                active_flag[row] = False
                cursor += 1
            else:
                break
        if (
            not math.isinf(saturation_step)
            and saturation_step
            <= demand_step + _EPS * (1.0 + abs(demand_step))
        ):
            # The division runs full-width, so dead columns hold inf
            # (headroom left, or zero carriers) or nan (0/0) — both
            # fail this <= test, and carrying columns see the same
            # values a masked divide would give them.
            np_less_equal(
                steps,
                saturation_step + _EPS * (1.0 + abs(saturation_step)),
                out=sat_mask,
            )
            sat_local = sat_mask.nonzero()[0]
            residual[sat_local] = 0.0
            if col_rows is None:
                col_rows = entry_row[np.argsort(lcols, kind="stable")]
                col_bounds = [
                    0,
                    *accumulate(np.bincount(lcols, minlength=width).tolist()),
                ]
            for col in sat_local.tolist():
                for row in col_rows[
                    col_bounds[col] : col_bounds[col + 1]
                ].tolist():
                    if active_flag[row]:
                        newly.append(row)
                        active_flag[row] = False
        if not newly:
            raise SimulationError("progressive filling made no progress")
        if len(newly) == 1:
            row = newly[0]
            demand = demands_list[row]
            rates[row] = level if level < demand else demand
            lo = starts_list[row]
            dead = lcols[lo : lo + lengths_list[row]]
        else:
            segments = []
            for row in newly:
                demand = demands_list[row]
                rates[row] = level if level < demand else demand
                lo = starts_list[row]
                segments.append(lcols[lo : lo + lengths_list[row]])
            dead = np.concatenate(segments)
        np.subtract(
            counts,
            np.bincount(dead, minlength=width),
            out=counts,
        )
        active_left -= len(newly)
    return np.asarray(rates, dtype=np.float64)



def maxmin_fill(
    space: LinkSpace,
    cols: np.ndarray,
    row_lengths: np.ndarray,
    demands: np.ndarray,
) -> np.ndarray:
    """Exact progressive filling, one vector round per freeze event.

    Semantics of :func:`repro.flowsim.allocation.max_min_allocation`
    over the rows described by ``(cols, row_lengths, demands)``: all
    unfrozen rows grow at one common level; each round takes the next
    demand or saturation event, debits every carrying link by
    ``step * carriers``, freezes satisfied rows and every row crossing
    a saturating link.  Returns the per-row rate vector.

    Columns are compressed to the links actually present in ``cols``,
    so per-round cost scales with the component, not the topology.
    Demand events come from a sorted cursor and freezes are applied
    row-by-row, so a round costs O(width) plus work proportional to
    what actually froze — not O(rows + nnz) like a full-mask sweep.
    Every floating-point expression matches the mask-sweep form
    operation for operation, so the returned rates are bit-identical.
    """
    # Per-row state lives in Python lists: the round loop reads it one
    # row at a time, and building it costs no per-call numpy dispatch.
    demands_list = np.asarray(demands, dtype=np.float64).tolist()
    lengths_list = np.asarray(row_lengths, dtype=np.int64).tolist()
    active_flag = [
        length > 0 and demand > _EPS
        for length, demand in zip(lengths_list, demands_list)
    ]
    rates = [
        0.0 if active else demand
        for active, demand in zip(active_flag, demands_list)
    ]
    # Demand events in sorted order: min over active demands is a
    # cursor walk, and (subtraction being monotone) the frozen prefix
    # is exactly the rows the full-mask comparison would freeze.
    order = sorted(
        [row for row, active in enumerate(active_flag) if active],
        key=demands_list.__getitem__,
    )
    num_ordered = len(order)
    if not num_ordered:
        return np.asarray(rates, dtype=np.float64)
    # Local column space: only the component's links.
    unique_cols, lcols = space.compress(np.asarray(cols))
    width = len(unique_cols)
    entry_row = np.repeat(
        np.arange(len(lengths_list), dtype=np.int64), row_lengths
    )
    counts = np.bincount(
        lcols[np.array(active_flag)[entry_row]], minlength=width
    ).astype(np.float64)
    residual = space.capacity[unique_cols]
    steps = np.empty(width, dtype=np.float64)
    sat_mask = np.empty(width, dtype=bool)
    scratch = np.empty(width, dtype=np.float64)
    starts_list = [0, *accumulate(lengths_list)]
    # Full-width division inside the round loop leaves inf (headroom,
    # zero carriers) or nan (0/0 on a drained column) in dead slots;
    # suppress just those warnings around the loop.
    err_state = np.errstate(divide="ignore", invalid="ignore")
    err_state.__enter__()
    try:
        return _maxmin_rounds(
            num_ordered,
            active_flag,
            order,
            num_ordered,
            demands_list,
            rates,
            starts_list,
            lengths_list,
            counts,
            residual,
            steps,
            sat_mask,
            scratch,
            lcols,
            entry_row,
            width,
        )
    finally:
        err_state.__exit__(None, None, None)


def inrp_fill(
    space: LinkSpace,
    flow_ids: Sequence[FlowId],
    paths: Sequence[Path],
    cols: np.ndarray,
    row_lengths: np.ndarray,
    demands: np.ndarray,
    detour_table: DetourTable,
    max_replacements: int = 2,
    option_cache: Optional[Dict] = None,
    path_cols_cache: Optional[Dict] = None,
) -> MultipathAllocation:
    """INRP fluid allocation, one scalar level per filling round.

    Semantics of :func:`repro.flowsim.multipath.inrp_allocation` over
    the flows given *in arrival order*: every unfrozen flow grows its
    active sub-path at the common level; a saturation event reroutes
    the affected flows (oldest first) through the scalar detour-splice
    logic reading the shared residual vector; only flows with no
    usable detour freeze.

    As in :func:`maxmin_fill`, per-flow state lives in Python lists
    and a round does full-width vector work only for its head (step
    and debit) and its saturation test.  All unfrozen flows share one
    scalar ``level``, which is each one's total bit for bit; demand
    freezes come from a demand-sorted cursor.  The flows crossing a
    saturated column come from a bisected argsort of the primary
    entries and, for flows on a detour, from one set-disjointness test
    of the active detour row's columns.  A row's carried rate is
    settled when it retires: ``level`` for a primary row, the left
    fold of the steps it lived through for a detour row -- bit for bit
    the sum a per-round ``carried += step`` builds.

    The working vectors span the full column space (one slot per
    topology link): a per-round numpy pass over a few thousand floats
    costs about as much as one over a hundred, and global columns make
    the per-(u, v) detour options and the per-path column entries
    *persistent across fills* — the caches are built once per
    topology, not once per recompute.

    ``option_cache`` memoizes the per-(u, v) detour options and
    ``path_cols_cache`` the per-path column entries with their splice
    memo, across fills — pass persistent dicts when calling repeatedly
    over one topology.  Neither holds per-fill state, so a fill gives
    the same result with shared or fresh dicts.
    """
    num_flows = len(flow_ids)
    demands = np.asarray(demands, dtype=np.float64)
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    if num_flows and bool((demands < 0).any()):
        bad = int(np.argmax(demands < 0))
        raise SimulationError(f"flow {flow_ids[bad]!r} has negative demand")
    if option_cache is None:
        option_cache = {}
    if path_cols_cache is None:
        path_cols_cache = {}
    index = space.index
    num_links = space.num_links
    floors = space.floor  # read-only view, never mutated

    residual = space.capacity.copy()

    # --- Per-flow state in Python lists (arrival order == row order).
    # Row ``flow`` is the flow's primary path; detour rows appended
    # during the fill get ids from ``num_flows`` up.
    demands_list: List[float] = demands.tolist()
    lengths_list: List[int] = row_lengths.tolist()
    unfrozen = [
        length > 0 and demand > _EPS
        for length, demand in zip(lengths_list, demands_list)
    ]
    # Pre-frozen flows: no path -> rate = demand, else rate 0.0.
    rates = [
        0.0 if length else demand
        for length, demand in zip(lengths_list, demands_list)
    ]
    reasons = ["" if active else "demand" for active in unfrozen]
    active_row = [
        flow if active else -1 for flow, active in enumerate(unfrozen)
    ]
    switches = [0] * num_flows
    max_switches = MAX_SWITCHES_PER_FLOW
    p_cols = np.asarray(cols, dtype=np.int64)
    p_starts = [0, *accumulate(lengths_list)]
    counts = np.bincount(
        p_cols,
        weights=np.repeat(np.array(unfrozen, dtype=np.float64), row_lengths),
        minlength=num_links,
    )
    sub_path: List[Path] = list(paths)
    sub_repl: List[int] = [0] * num_flows
    carried: List[float] = [0.0] * num_flows
    # Per detour row (index ``row - num_flows``): ``(column array,
    # round it was born in)``.
    detours: List[Tuple[np.ndarray, int]] = []
    detour_rows: Dict[int, List[int]] = {}
    # Flow -> column list of its active detour row, for the saturation
    # scan; a flow still on its primary row is not in it.
    on_detour: Dict[int, List[int]] = {}

    # Every unfrozen flow's total; a frozen flow's rate is ``level`` at
    # its freeze.
    level = 0.0
    # Step of every round so far; a detour row's carried rate is the
    # left fold of the steps it lived through (see ``_retire``).
    round_steps: List[float] = []
    # Carrier counts change in one batch per round: the columns of
    # rows retired (freezes, reroute switches) and born (detour rows)
    # queue up here and two ``ufunc.at`` calls apply them at the end
    # of the round.  Nothing reads ``counts`` in between (steps come
    # from the round start, spare checks read ``residual``), so the
    # deferral is invisible to the filling semantics.
    dead: List[np.ndarray] = []
    born: List[np.ndarray] = []

    def _retire(row: int) -> None:
        """Settle *row*'s carried rate and queue its columns."""
        if row < num_flows:
            # A primary row grew from round 1: its carried sum is the
            # level's own sum.
            carried[row] = level
            dead.append(p_cols[p_starts[row] : p_starts[row + 1]])
            return
        # A detour row grew from the round after its birth.  Fold its
        # steps left to right, as a per-round ``+= step`` would have:
        # ``sum()`` (compensated on Python >= 3.12) or a difference of
        # levels would round differently.
        lcols, birth = detours[row - num_flows]
        total = 0.0
        for step in round_steps[birth:]:
            total += step
        carried[row] = total
        dead.append(lcols)

    def _append_row(
        flow: int,
        path: Path,
        path_cols: Tuple[np.ndarray, List[int], Dict],
        replacements: int,
    ) -> int:
        row = len(sub_path)
        lcols = path_cols[0]
        sub_path.append(path)
        sub_repl.append(replacements)
        carried.append(0.0)
        detours.append((lcols, guard))
        born.append(lcols)
        detour_rows.setdefault(flow, []).append(row)
        on_detour[flow] = path_cols[1]
        return row

    def _option_state(u, v) -> List[Tuple]:
        """Persistent per-(u, v) detour options, built once per
        topology: one ``(option, cols, floor, interior)`` entry per
        option, where *floor* is the largest saturation floor on its
        columns and *interior* the frozenset of its inner nodes."""
        key = (u, v)
        entries = option_cache.get(key)
        if entries is None:
            entries = []
            for option in detour_table.options(u, v):
                olinks = cached_path_links(tuple(option))
                ocols = tuple(index[link] for link in olinks)
                ofloor = max(floors.item(col) for col in ocols)
                entries.append((option, ocols, ofloor, frozenset(option[1:-1])))
            option_cache[key] = entries
        return entries

    # Per (u, v): ``(round, live entries, their spares, winner, winner
    # interior)``, refreshed at the first query of each saturation
    # round.  Residual capacity never changes *within* a saturation
    # round (splices and freezes defer their bookkeeping to the
    # end-of-round flush), so the spares are round-constant: every
    # affected flow hitting the same saturated link reads the same
    # ones.  Across rounds residual only *decreases* (growth debits,
    # saturation pins to zero, switches never credit back), so an
    # option at or below its floor is dead for the rest of the fill
    # and each refresh reads only the options the last one kept.
    # A (u, v) has a few options of a few links each, so a spare is a
    # Python ``min`` over ``residual.item`` reads: the same float64
    # values a numpy reduction would compare, at no dispatch cost.
    # The cached winner is the *unconstrained* winner of the scalar
    # running-max loop.  If its interior nodes are disjoint from a
    # caller's exclusion set it is also the constrained winner —
    # excluding non-winning options can only lower the running max,
    # and ``x + _EPS*(1+|x|)`` is monotone, so every acceptance that
    # happened without exclusions still happens with them — which
    # makes the common case O(1).
    fill_options: Dict[Tuple[Hashable, Hashable], Tuple] = {}
    residual_item = residual.item

    def _best_option(u, v, exclude) -> Optional[Path]:
        key = (u, v)
        cached = fill_options.get(key)
        if cached is None or cached[0] != guard:
            entries = _option_state(u, v) if cached is None else cached[1]
            live = []
            spares = []
            winner = None
            winner_interior = None
            best_spare = -1.0
            for entry in entries:
                spare = min(map(residual_item, entry[1]))
                if spare <= entry[2]:
                    continue
                live.append(entry)
                spares.append(spare)
                if spare > best_spare + _EPS * (1.0 + abs(best_spare)):
                    winner, winner_interior = entry[0], entry[3]
                    best_spare = spare
            cached = (guard, live, spares, winner, winner_interior)
            fill_options[key] = cached
        _, live, spares, winner, winner_interior = cached
        if winner is None:
            return None
        if winner_interior.isdisjoint(exclude):
            return winner
        best: Optional[Path] = None
        best_spare = -1.0
        for entry, spare in zip(live, spares):
            if not entry[3].isdisjoint(exclude):
                continue
            # Relative tie tolerance, as in the scalar `_best_option`.
            if spare > best_spare + _EPS * (1.0 + abs(best_spare)):
                best, best_spare = entry[0], spare
        return best

    def _path_cols(path: Path) -> Tuple[np.ndarray, List[int], Dict]:
        """Persistent per-(sub-)path entry ``(array, list, splices)``,
        built once per topology and shared across flows with the same
        route.  The column array feeds the incidence append; the plain
        column list feeds the walk's saturation scan and the on-detour
        scan (paths are ~a handful of links, where a Python
        set-membership scan beats numpy dispatch).  *splices* memoizes
        the walk's splices off this path: ``(position, option) ->
        (spliced path, its entry)``, or ``(None, None)`` when the
        splice would revisit a node.  ``splice_detour`` is pure, so a
        memoized splice is the one the walk would compute."""
        pc = path_cols_cache.get(path)
        if pc is None:
            links = cached_path_links(path)
            arr = np.fromiter(
                (index[link] for link in links),
                dtype=np.int64,
                count=len(links),
            )
            pc = (arr, arr.tolist(), {})
            path_cols_cache[path] = pc
        return pc

    # The walk reads the saturated-column set of the current round
    # (rebuilt in the saturation block).
    sat_cols: AbstractSet[int] = frozenset()

    def _reroute(flow: int) -> bool:
        """Move the flow's growth off saturated links by splicing
        detours until nothing on its path is saturated; False = the
        flow must freeze."""
        row = active_row[flow]
        replacements = sub_repl[row]
        if replacements >= max_replacements:
            # Every affected flow crosses a column zeroed this round,
            # which lies in ``sat_cols``: the walk below would stop at
            # its first budget test.
            return False
        path = candidate = sub_path[row]
        candidate_cols = _path_cols(candidate)
        while True:
            position = -1
            for position_candidate, col in enumerate(candidate_cols[1]):
                if col in sat_cols:
                    position = position_candidate
                    break
            if position < 0:
                break
            if replacements >= max_replacements:
                return False
            option = _best_option(
                candidate[position], candidate[position + 1], candidate
            )
            if option is None:
                return False
            splices = candidate_cols[2]
            spliced = splices.get((position, option))
            if spliced is None:
                spliced_path = splice_detour(candidate, position, option)
                spliced = (
                    (None, None)
                    if spliced_path is None
                    else (spliced_path, _path_cols(spliced_path))
                )
                splices[position, option] = spliced
            candidate, candidate_cols = spliced
            if candidate is None:
                return False
            replacements += 1
        if candidate is path:
            # Not taken: an affected flow crosses a column zeroed this
            # round, and 0 <= floor puts that column in ``sat_cols``.
            # A cheap guard against appending a copy of the active row.
            return True
        _retire(row)
        active_row[flow] = _append_row(
            flow, candidate, candidate_cols, replacements
        )
        switches[flow] += 1
        return True

    def _freeze(flow: int, reason: str) -> None:
        nonlocal active_left
        active_left -= 1
        _retire(active_row[flow])
        active_row[flow] = -1
        on_detour.pop(flow, None)
        unfrozen[flow] = False
        reasons[flow] = reason
        rates[flow] = level

    # Demand events in sorted order: the smallest unfrozen demand is a
    # cursor walk, ``min(d_i - level) == min(d_i) - level`` (float
    # subtraction is monotone), and for the same reason the satisfied
    # flows of a round are a prefix of the order.
    order = sorted(
        [flow for flow, active in enumerate(unfrozen) if active],
        key=demands_list.__getitem__,
    )
    num_ordered = len(order)
    active_left = num_ordered
    cursor = 0
    # Column -> primary rows index, built at the first saturation:
    # the rows of every primary entry sorted by column, bisected.
    col_sorted: Optional[List[int]] = None
    col_rows: List[int] = []
    steps = np.empty(num_links, dtype=np.float64)
    sat_mask = np.empty(num_links, dtype=bool)
    scratch = np.empty(num_links, dtype=np.float64)
    guard = 0
    max_iterations = 16 * (num_flows + num_links) + 64
    # The round head divides full width without ``where=``: a column
    # no row carries yields inf (headroom left) or nan (0/0), both
    # invisible to fmin's reduction and to the <= saturation test, so
    # carrying columns see bit-identical values.  ``-inf`` cannot
    # occur: an unflagged carrying column keeps ``residual > 0`` (its
    # step exceeds the round's by the relative tolerance) and flagged
    # ones are zeroed.
    err_state = np.errstate(divide="ignore", invalid="ignore")
    err_state.__enter__()
    try:
        while active_left:
            guard += 1
            if guard > max_iterations:
                raise SimulationError("INRP allocation did not converge")
            while not unfrozen[order[cursor]]:
                cursor += 1
            demand_step = demands_list[order[cursor]] - level
            np.divide(residual, counts, out=steps)
            saturation_step = float(np.fmin.reduce(steps))
            step = max(0.0, min(demand_step, saturation_step))
            np.multiply(counts, step, out=scratch)
            np.subtract(residual, scratch, out=residual)
            level += step
            round_steps.append(step)

            # Demand events.
            progressed = False
            tol = _EPS * (1.0 + abs(level))
            while cursor < num_ordered:
                flow = order[cursor]
                if unfrozen[flow]:
                    if demands_list[flow] - level > tol:
                        break
                    _freeze(flow, "demand")
                    progressed = True
                cursor += 1

            # Saturation events: reroute or freeze affected flows.
            if not math.isinf(saturation_step) and saturation_step <= (
                demand_step + _EPS * (1.0 + abs(demand_step))
            ):
                np.less_equal(
                    steps,
                    saturation_step + _EPS * (1.0 + abs(saturation_step)),
                    out=sat_mask,
                )
                sat_now = sat_mask.nonzero()[0]
                if len(sat_now):
                    progressed = True
                    residual[sat_now] = 0.0
                    sat_cols = set((residual <= floors).nonzero()[0].tolist())
                    if col_sorted is None:
                        by_col = np.argsort(p_cols, kind="stable")
                        col_sorted = p_cols[by_col].tolist()
                        col_rows = np.repeat(
                            np.arange(num_flows, dtype=np.int64), row_lengths
                        )[by_col].tolist()
                    # A primary row counts while it is its unfrozen
                    # flow's active row (freezing resets
                    # ``active_row``, a switch moves the flow into
                    # ``on_detour``).
                    sat_list = sat_now.tolist()
                    affected = set()
                    for col in sat_list:
                        for row in col_rows[
                            bisect_left(col_sorted, col) : bisect_right(
                                col_sorted, col
                            )
                        ]:
                            if active_row[row] == row:
                                affected.add(row)
                    if on_detour:
                        sat_set = set(sat_list)
                        for flow, detour_cols in on_detour.items():
                            if not sat_set.isdisjoint(detour_cols):
                                affected.add(flow)
                    # Ascending flow ids are arrival order: older flows
                    # reroute first (the id-type invariant).
                    for flow in sorted(affected):
                        if switches[flow] >= max_switches or not _reroute(flow):
                            _freeze(flow, "no-detour")
            if dead:
                np.subtract.at(counts, _joined(dead), 1.0)
                dead.clear()
            if born:
                np.add.at(counts, _joined(born), 1.0)
                born.clear()
            if not progressed:
                raise SimulationError("INRP allocation made no progress")
    finally:
        err_state.__exit__(None, None, None)

    splits: Dict[FlowId, List[Tuple[Path, float]]] = {}
    for flow in range(num_flows):
        parts = [(sub_path[flow], carried[flow])]
        for row in detour_rows.get(flow, ()):
            if carried[row] > _EPS:
                parts.append((sub_path[row], carried[row]))
        splits[flow_ids[flow]] = parts
    return MultipathAllocation(
        rates=dict(zip(flow_ids, rates)),
        splits=splits,
        switches=sum(switches),
        freeze_reasons=dict(zip(flow_ids, reasons)),
        flow_switches=dict(zip(flow_ids, switches)),
    )
