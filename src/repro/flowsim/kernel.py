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
  :func:`repro.flowsim.multipath.inrp_allocation`): the filling rounds
  are vectorized, while the rare detour-replacement decisions reuse
  the scalar splice/option logic against the shared residual vector.

The two fills pick different column layouts.  :func:`maxmin_fill`
*compresses columns*: its working vectors cover only the links the
component actually touches, so a component of 30 flows on a 2000-link
map pays for ~100 columns per round.  :func:`inrp_fill` works
*full-width* over the global column space instead: per-round vector
ops over a few thousand columns cost about the same as over a few
hundred, and global column ids make the per-``(u, v)`` detour-option
arrays and per-path column arrays *persistent across fills* (built
once per topology and cached by the allocator), which removes the
per-fill rebuild work that dominated the reroute-heavy INRP profile.

Exactness is the contract: both fills perform the *same float
arithmetic in the same order per link and per flow* as their scalar
counterparts (level and residual accumulate identical step sequences),
so the results agree bit-for-bit except in degenerate tie-tolerance
corner cases, and the randomized churn tests plus ``verify=True``
cross-checks hold them to <= 1e-9 of the scratch solvers.
"""

from __future__ import annotations

import math
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
from repro.flowsim.multipath import MultipathAllocation, splice_detour
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

    __slots__ = ("index", "links", "capacity", "floor", "num_links")

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

    def columns(self, links: Sequence[LinkId]) -> np.ndarray:
        """Column ids for *links* (raises ``KeyError`` on unknown)."""
        index = self.index
        return np.fromiter(
            (index[link] for link in links), dtype=np.int64, count=len(links)
        )


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
    lazy-invalidation pattern the event core uses for its departure
    heap.  Once dead entries exceed ``compact_slack`` of the buffer
    (and the buffer is big enough for compaction to matter), the
    arrays are compacted in one vectorized gather and rows are
    renumbered; callers address rows only through flow ids, so the
    renumbering is invisible.

    ``demand`` rides along as a per-row vector so a component fill can
    gather demands without touching Python dicts.
    """

    def __init__(
        self,
        space: LinkSpace,
        compact_slack: float = 0.5,
        min_compact_nnz: int = 4096,
    ):
        if not 0.0 < compact_slack < 1.0:
            raise SimulationError(
                f"compact_slack must be in (0, 1), got {compact_slack}"
            )
        self.space = space
        self.compact_slack = compact_slack
        self.min_compact_nnz = min_compact_nnz
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

    def set_demand(self, flow: FlowId, demand: float) -> None:
        self._demands[self._row_of[flow]] = demand

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
                bounds_arr = np.zeros(width + 1, dtype=np.int64)
                np.cumsum(
                    np.bincount(lcols, minlength=width), out=bounds_arr[1:]
                )
                col_bounds = bounds_arr.tolist()
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
    num_rows = len(row_lengths)
    rates_arr = np.zeros(num_rows, dtype=np.float64)
    demands = np.asarray(demands, dtype=np.float64)
    row_lengths = np.asarray(row_lengths, dtype=np.int64)
    active = (row_lengths > 0) & (demands > _EPS)
    inactive = ~active
    rates_arr[inactive] = demands[inactive]
    if not active.any():
        return rates_arr
    # Local column space: only the component's links.
    unique_cols, lcols = np.unique(np.asarray(cols), return_inverse=True)
    width = len(unique_cols)
    entry_row = np.repeat(np.arange(num_rows, dtype=np.int64), row_lengths)
    counts = np.bincount(lcols[active[entry_row]], minlength=width).astype(
        np.float64
    )
    residual = space.capacity[unique_cols].copy()
    steps = np.empty(width, dtype=np.float64)
    sat_mask = np.empty(width, dtype=bool)
    scratch = np.empty(width, dtype=np.float64)
    row_starts = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(row_lengths, out=row_starts[1:])
    # Demand events in sorted order: min over active demands is a
    # cursor walk, and (subtraction being monotone) the frozen prefix
    # is exactly the rows the full-mask comparison would freeze.
    act_rows = np.flatnonzero(active)
    order = act_rows[np.argsort(demands[act_rows], kind="stable")].tolist()
    num_ordered = len(order)
    active_left = num_ordered
    # Python-native mirrors for the scalar-indexed hot path; the numpy
    # arrays keep serving the vector ops.
    demands_list = demands.tolist()
    active_flag = active.tolist()
    rates = rates_arr.tolist()
    starts_list = row_starts.tolist()
    lengths_list = row_lengths.tolist()
    # Full-width division inside the round loop leaves inf (headroom,
    # zero carriers) or nan (0/0 on a drained column) in dead slots;
    # suppress just those warnings around the loop.
    err_state = np.errstate(divide="ignore", invalid="ignore")
    err_state.__enter__()
    try:
        return _maxmin_rounds(
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
    max_switches_per_flow: int = 16,
    in_reach: Optional[AbstractSet[int]] = None,
    pinned: Optional[Sequence[Tuple[int, float]]] = None,
    capacity_count: Optional[int] = None,
    option_cache: Optional[Dict] = None,
    path_cols_cache: Optional[Dict] = None,
) -> MultipathAllocation:
    """INRP fluid allocation with vectorized filling rounds.

    Semantics of :func:`repro.flowsim.multipath.inrp_allocation` over
    the flows given *in arrival order*: every unfrozen flow grows its
    active sub-path at the common level; a saturation event reroutes
    the affected flows (oldest first) through the scalar detour-splice
    logic reading the shared residual vector; only flows with no
    usable detour freeze.

    The working vectors span the full column space (one slot per
    topology link): a per-round numpy pass over a few thousand floats
    costs about as much as one over a hundred, and global columns make
    the per-(u, v) detour-option arrays and the per-path column arrays
    *persistent across fills* — the caches are built once per
    topology, not once per recompute.

    ``in_reach`` names the columns of the component-restricted
    capacity map of the scalar path; the fill only uses it to validate
    ``pinned``, because by the closure invariant (every link a
    component fill can read lies inside some member's closure, hence
    inside the reach) the restriction itself is unobservable.
    ``pinned`` debits
    ``(column, used)`` pairs from starting residuals (the
    ``pinned_usage`` guard of the incremental allocator);
    ``capacity_count`` sizes the non-convergence guard like the scalar
    ``len(capacities)``.  ``option_cache`` and ``path_cols_cache``
    memoize per-(u, v) detour option columns and per-path column
    arrays across fills — pass persistent dicts when calling
    repeatedly over one topology.
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
    if pinned:
        for col, used in pinned:
            if used < 0:
                raise SimulationError(
                    f"negative pinned usage on link column {col}"
                )
            if in_reach is not None and col not in in_reach:
                raise SimulationError(
                    f"pinned usage on unknown link column {col}"
                )
            residual[col] = max(residual[col] - used, 0.0)
    steps = np.empty(num_links, dtype=np.float64)

    # --- Bulk row/entry setup (arrival order == row order). ---
    no_path = row_lengths == 0
    pre_frozen = no_path | (demands <= _EPS)
    unfrozen = ~pre_frozen
    totals = np.zeros(num_flows, dtype=np.float64)
    totals[no_path] = demands[no_path]
    reasons = [""] * num_flows
    for flow in np.flatnonzero(pre_frozen):
        reasons[flow] = "demand"
    e_cols = np.asarray(cols, dtype=np.int64).copy()
    e_flow = np.repeat(np.arange(num_flows, dtype=np.int64), row_lengths)
    e_active = unfrozen[e_flow]
    e_nnz = len(e_cols)
    counts = np.bincount(e_cols[e_active], minlength=num_links)
    offsets = np.zeros(num_flows, dtype=np.int64)
    if num_flows:
        np.cumsum(row_lengths[:-1], out=offsets[1:])
    sub_start: List[int] = offsets.tolist()
    sub_len: List[int] = row_lengths.tolist()
    sub_path: List[Path] = list(paths)
    sub_repl: List[int] = [0] * num_flows
    carried = np.zeros(max(num_flows, 16), dtype=np.float64)
    num_rows = num_flows
    active_row = np.where(
        unfrozen, np.arange(num_flows, dtype=np.int64), -1
    )
    rows_of_flow: List[List[int]] = [[flow] for flow in range(num_flows)]
    switches = np.zeros(num_flows, dtype=np.int64)

    def _append_row(
        flow: int, path: Path, lcols: np.ndarray, replacements: int
    ) -> int:
        nonlocal e_cols, e_flow, e_active, e_nnz, num_rows, carried
        row = num_rows
        length = len(lcols)
        e_cols = _grow(e_cols, e_nnz + length)
        e_flow = _grow(e_flow, e_nnz + length)
        e_active = _grow(e_active, e_nnz + length)
        e_cols[e_nnz : e_nnz + length] = lcols
        e_flow[e_nnz : e_nnz + length] = flow
        e_active[e_nnz : e_nnz + length] = True
        sub_start.append(e_nnz)
        sub_len.append(length)
        sub_path.append(path)
        sub_repl.append(replacements)
        carried = _grow(carried, row + 1)
        carried[row] = 0.0
        e_nnz += length
        num_rows += 1
        rows_of_flow[flow].append(row)
        counts[lcols] += 1
        return row

    # Row retirement (freezes and reroute switches) is batched: rows
    # queue up here and one gather + bincount at the end of the round
    # clears their entries and carrier counts.  Nothing reads
    # ``e_active``/``counts`` between the queueing and the flush
    # (steps come from the round start, spare checks read ``residual``),
    # so the deferral is invisible to the filling semantics.
    dead_rows: List[int] = []

    def _flush_dead() -> None:
        count = len(dead_rows)
        if not count:
            return
        if count <= 8:
            # Typical rounds retire a handful of rows; per-row slice
            # updates beat assembling the gather index arrays.
            for row in dead_rows:
                start, length = sub_start[row], sub_len[row]
                if not length:
                    continue
                e_active[start : start + length] = False
                np.subtract.at(counts, e_cols[start : start + length], 1)
            dead_rows.clear()
            return
        starts = np.fromiter(
            (sub_start[row] for row in dead_rows), dtype=np.int64, count=count
        )
        lengths = np.fromiter(
            (sub_len[row] for row in dead_rows), dtype=np.int64, count=count
        )
        total = int(lengths.sum())
        dead_rows.clear()
        if not total:
            return
        offsets = np.zeros(count, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        entry = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, lengths
        )
        dead_cols = e_cols[entry]
        e_active[entry] = False
        np.subtract(
            counts, np.bincount(dead_cols, minlength=num_links), out=counts
        )

    def _option_state(u, v) -> List:
        """Persistent per-(u, v) option arrays, built once per topology:
        ``[entries, flat_cols, starts, floors_arr]`` where *entries* is
        the ``(option, cols, floor)`` list and the arrays let one
        ``minimum.reduceat`` read every option's spare at once.

        No per-fill pruning state is needed: residual capacity only
        ever *decreases* within a fill (growth debits, saturation pins
        to zero, switches never credit back), so an option at or below
        its floor excludes itself from every later spare check too.
        """
        key = (u, v)
        state = option_cache.get(key)
        if state is None:
            entries = []
            for option in detour_table.options(u, v):
                olinks = cached_path_links(tuple(option))
                ocols = tuple(index[link] for link in olinks)
                ofloor = max(floors[col] for col in ocols)
                entries.append((option, ocols, ofloor, frozenset(option[1:-1])))
            flat = np.fromiter(
                (col for entry in entries for col in entry[1]),
                dtype=np.int64,
            )
            lengths = np.fromiter(
                (len(entry[1]) for entry in entries),
                dtype=np.int64,
                count=len(entries),
            )
            starts = np.zeros(len(entries), dtype=np.int64)
            if len(entries):
                np.cumsum(lengths[:-1], out=starts[1:])
            floors_arr = np.fromiter(
                (entry[2] for entry in entries),
                dtype=np.float64,
                count=len(entries),
            )
            state = [entries, flat, starts, floors_arr]
            option_cache[key] = state
        return state

    # Residual capacity never changes *within* a saturation round
    # (splices and freezes defer their bookkeeping to the end-of-round
    # flush), so per-(u, v) spare vectors are round-constant: every
    # affected flow hitting the same saturated link reads the same
    # spares.  Cache them per round (keyed by the round counter),
    # together with the *unconstrained* winner of the scalar running-
    # max loop.  If that winner's interior nodes are disjoint from a
    # caller's exclusion set it is also the constrained winner —
    # excluding non-winning options can only lower the running max,
    # and ``x + _EPS*(1+|x|)`` is monotone, so every acceptance that
    # happened without exclusions still happens with them — which
    # makes the common case O(1).
    round_spares: Dict[Tuple[Hashable, Hashable], Tuple] = {}
    # Per-fill surviving options per (u, v): residual only decreases
    # within a fill, so an option at or below its floor is dead for
    # the rest of the fill and its columns drop out of every later
    # spare refresh (freeze-heavy late rounds then cost O(1) here).
    fill_options: Dict[Tuple[Hashable, Hashable], List] = {}

    def _best_option(u, v, exclude) -> Optional[Path]:
        key = (u, v)
        cached = round_spares.get(key)
        if cached is None or cached[0] != guard:
            state = fill_options.get(key)
            if state is None:
                entries, flat, starts, floors_arr = _option_state(u, v)
                state = [
                    entries,
                    list(range(len(entries))),
                    flat,
                    starts,
                    floors_arr,
                ]
                fill_options[key] = state
            entries, positions, flat, starts, floors_arr = state
            live_spares = None
            if positions:
                spares = np.minimum.reduceat(residual[flat], starts)
                live = spares > floors_arr
                if live.all():
                    live_spares = spares.tolist()
                else:
                    keep = np.flatnonzero(live)
                    positions = [positions[i] for i in keep]
                    live_spares = spares[keep].tolist()
                    cols_per_option = [entries[p][1] for p in positions]
                    flat = np.fromiter(
                        (c for cols in cols_per_option for c in cols),
                        dtype=np.int64,
                    )
                    lengths = np.fromiter(
                        (len(cols) for cols in cols_per_option),
                        dtype=np.int64,
                        count=len(cols_per_option),
                    )
                    starts = np.zeros(len(cols_per_option), dtype=np.int64)
                    if len(cols_per_option):
                        np.cumsum(lengths[:-1], out=starts[1:])
                    floors_arr = np.fromiter(
                        (entries[p][2] for p in positions),
                        dtype=np.float64,
                        count=len(positions),
                    )
                    state[1:] = [positions, flat, starts, floors_arr]
            winner = None
            winner_interior = None
            best_spare = -1.0
            if positions:
                for spot, position in enumerate(positions):
                    spare = live_spares[spot]
                    if spare > best_spare + _EPS * (1.0 + abs(best_spare)):
                        entry = entries[position]
                        winner, winner_interior = entry[0], entry[3]
                        best_spare = spare
            cached = (
                guard,
                entries,
                positions,
                live_spares,
                winner,
                winner_interior,
            )
            round_spares[key] = cached
        _, entries, positions, live_spares, winner, winner_interior = cached
        if winner is None:
            return None
        if winner_interior.isdisjoint(exclude):
            return winner
        best: Optional[Path] = None
        best_spare = -1.0
        for spot, position in enumerate(positions):
            entry = entries[position]
            if not entry[3].isdisjoint(exclude):
                continue
            spare = live_spares[spot]
            # Relative tie tolerance, as in the scalar `_best_option`.
            if spare > best_spare + _EPS * (1.0 + abs(best_spare)):
                best, best_spare = entry[0], spare
        return best

    def _path_cols(path: Path) -> Tuple[np.ndarray, List[int]]:
        """Column ids per (sub-)path — ``(array, list)`` — persistent
        across fills and shared across flows with the same route.  The
        array feeds the incidence append; the plain list feeds the
        reroute walk's saturation scan (paths are ~a handful of links,
        where a Python set-membership scan beats numpy dispatch)."""
        pc = path_cols_cache.get(path)
        if pc is None:
            links = cached_path_links(path)
            arr = np.fromiter(
                (index[link] for link in links),
                dtype=np.int64,
                count=len(links),
            )
            pc = (arr, arr.tolist())
            path_cols_cache[path] = pc
        return pc

    # The reroute walk below is a pure function of the round's frozen
    # residual: given (path, replacements) it always splices the same
    # detours in the same order.  Affected flows sharing a route share
    # the walk, so the whole outcome is memoized per round alongside
    # the saturated-column set (both rebuilt in the saturation block).
    sat_cols: AbstractSet[int] = frozenset()
    reroute_memo: Dict[Tuple[Path, int], Optional[Tuple[Path, int]]] = {}

    def _walk(
        candidate: Path, replacements: int
    ) -> Optional[Tuple[Path, int]]:
        """Splice detours until nothing on ``candidate`` is saturated;
        ``None`` means the flow must freeze."""
        cols_list = _path_cols(candidate)[1]
        while True:
            position = -1
            for position_candidate, col in enumerate(cols_list):
                if col in sat_cols:
                    position = position_candidate
                    break
            if position < 0:
                return candidate, replacements
            if replacements >= max_replacements:
                return None
            option = _best_option(
                candidate[position], candidate[position + 1], candidate
            )
            if option is None:
                return None
            spliced = splice_detour(candidate, position, option)
            if spliced is None:
                return None
            candidate = spliced
            replacements += 1
            cols_list = _path_cols(candidate)[1]

    _MISS = object()

    def _reroute(flow: int) -> bool:
        """Move the flow's growth off saturated links; False = freeze."""
        row = int(active_row[flow])
        path = sub_path[row]
        replacements = sub_repl[row]
        key = (path, replacements)
        outcome = reroute_memo.get(key, _MISS)
        if outcome is _MISS:
            outcome = _walk(path, replacements)
            reroute_memo[key] = outcome
        if outcome is None:
            return False
        candidate, replacements = outcome
        if candidate == path:
            return True  # nothing saturated after all
        dead_rows.append(row)
        new_row = _append_row(
            flow, candidate, _path_cols(candidate)[0], replacements
        )
        active_row[flow] = new_row
        switches[flow] += 1
        return True

    def _freeze(flow: int, reason: str) -> None:
        dead_rows.append(int(active_row[flow]))
        active_row[flow] = -1
        unfrozen[flow] = False
        reasons[flow] = reason

    guard = 0
    links_in_play = (
        capacity_count if capacity_count is not None else space.num_links
    )
    max_iterations = 16 * (num_flows + links_in_play) + 64
    while unfrozen.any():
        guard += 1
        if guard > max_iterations:
            raise SimulationError("INRP allocation did not converge")
        demand_step = float(np.min((demands - totals)[unfrozen]))
        carrying = counts > 0
        steps.fill(np.inf)
        np.divide(residual, counts, out=steps, where=carrying)
        saturation_step = float(steps.min()) if num_links else math.inf
        step = max(0.0, min(demand_step, saturation_step))

        residual -= step * counts
        totals[unfrozen] += step
        carried[active_row[unfrozen]] += step

        # Demand events.
        satisfied = unfrozen & (
            demands - totals <= _EPS * (1.0 + np.abs(totals))
        )
        satisfied_flows = np.flatnonzero(satisfied)
        for flow in satisfied_flows:
            _freeze(int(flow), "demand")

        # Saturation events: reroute or freeze affected flows.
        any_saturated = False
        if not math.isinf(saturation_step) and saturation_step <= (
            demand_step + _EPS * (1.0 + abs(demand_step))
        ):
            saturated = carrying & (
                steps
                <= saturation_step + _EPS * (1.0 + abs(saturation_step))
            )
            if saturated.any():
                any_saturated = True
                residual[saturated] = 0.0
                sat_cols = set(np.flatnonzero(residual <= floors).tolist())
                reroute_memo.clear()
                hit = e_active[:e_nnz] & saturated[e_cols[:e_nnz]]
                affected = np.unique(e_flow[:e_nnz][hit])
                # ``affected`` is ascending == arrival order: older
                # flows reroute first (the id-type invariant).  Flows
                # demand-frozen above still carry live entries until
                # the end-of-round flush, so re-check here.
                for flow in affected:
                    flow = int(flow)
                    if not unfrozen[flow]:
                        continue
                    if switches[
                        flow
                    ] >= max_switches_per_flow or not _reroute(flow):
                        _freeze(flow, "no-detour")
        _flush_dead()
        if not any_saturated and not len(satisfied_flows):
            raise SimulationError("INRP allocation made no progress")

    rates = {flow_ids[flow]: float(totals[flow]) for flow in range(num_flows)}
    splits: Dict[FlowId, List[Tuple[Path, float]]] = {}
    for flow in range(num_flows):
        rows = rows_of_flow[flow]
        splits[flow_ids[flow]] = [
            (sub_path[row], float(carried[row]))
            for row in rows
            if carried[row] > _EPS or row == rows[0]
        ]
    return MultipathAllocation(
        rates=rates,
        splits=splits,
        switches=int(switches.sum()),
        freeze_reasons={
            flow_ids[flow]: reasons[flow] for flow in range(num_flows)
        },
        flow_switches=dict(zip(flow_ids, switches.tolist())),
    )
