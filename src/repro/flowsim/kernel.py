"""Vectorized CSR allocation kernel: one progressive-filling loop.

The incremental allocators of :mod:`repro.flowsim.allocation` re-fill
only the dirty component; this module makes each filling round inside
that re-fill a handful of numpy vector operations over a CSR-style
representation of the flow-link incidence:

- :class:`LinkSpace` interns link ids into a stable column space with
  capacity and saturation-floor vectors;
- the caller hands a component in as the concatenation of its flows'
  column arrays (each flow's, computed once when it arrives), with
  per-flow row lengths and demands as Python lists;
- one round loop fills both sharing models.  All unfrozen flows grow
  at one scalar level; a round takes the next demand or saturation
  event, debits every carrying column, freezes satisfied flows and
  reroutes or freezes the flows crossing a saturated column.  Both
  fills have the semantics of the one scalar solver,
  :func:`repro.flowsim.multipath.inrp_allocation`: :func:`inrp_fill`
  runs the loop over the global column space with detours;
  :func:`maxmin_fill` is the same loop with no detour table and a
  replacement budget of 0, over the component's compressed columns.
  Max-min is INRP's zero-pooling end, not a second algorithm.

Exactness is the contract: the loop performs the *same float
arithmetic in the same order per link and per flow* as the scalar
solver, so results agree bit-for-bit except in degenerate
tie-tolerance corner cases; the randomized churn tests and
``verify=True`` hold them to <= 1e-9 of the scalar solver, and two
sha256 goldens pin both fills bit for bit.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
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
from repro.routing.paths import Path

FlowId = Hashable
LinkId = Hashable

_EPS = 1e-9


class LinkSpace:
    """Stable link-id <-> column interning over a fixed topology.

    Built once per allocator from the capacity map; columns never move,
    so a flow's column array stays valid for the allocator's lifetime.
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


class _PathEntry:
    """The detour walk's state for one (sub-)path, kept across fills.

    *cols* holds the path's columns once, as a tuple of the
    :attr:`LinkSpace.index` values themselves, so an entry boxes no int
    of its own; the walk's and the on-detour scans read it.  *array* is
    the same columns as int64 for the carrier counts, built the first
    time a detour row on the path freezes: a switch moves the counts by
    its splices' columns alone, so primary paths, the candidates a walk
    passes through and detour rows that switch away never need one.
    *splices*, made
    at the first splice, memoizes the pure ``splice_detour`` off this
    path: ``option -> entry of the spliced path``, or ``False`` when
    the splice would revisit a node.  The option alone is the key: the
    walk splices at the first saturated link, so the path and the
    option's first hop fix the position.
    """

    __slots__ = ("path", "cols", "array", "splices")

    def __init__(self, path: Path, cols: Tuple[int, ...]):
        self.path = path
        self.cols = cols
        self.array: Optional[np.ndarray] = None
        self.splices: Optional[Dict[Path, object]] = None


def _fill(
    residual: np.ndarray,
    floors: np.ndarray,
    cols: np.ndarray,
    row_lengths: List[int],
    demands: List[float],
    paths: Sequence[Path] = (),
    index: Optional[Mapping[LinkId, int]] = None,
    detour_table: Optional[DetourTable] = None,
    max_replacements: int = 0,
    option_cache: Optional[Dict] = None,
    path_cols_cache: Optional[Dict] = None,
):
    """The progressive-filling round loop both entries run.

    The column space is the caller's: *residual* (consumed) and
    *floors* are per-column capacity and saturation floor, *cols* the
    rows' concatenated column ids in it, *row_lengths* and *demands*
    per-row lists, and *index* maps a link to its
    column for the detour walk.  Row ``flow`` is flow ``flow``'s
    primary path; detour rows appended during the fill get ids from
    ``len(row_lengths)`` up.  *floors*, *paths*, *index*,
    *detour_table* and the two caches are read only by a walk, and
    none runs while *max_replacements* is 0.

    A round costs what its events cost, not what the fill holds:

    - the flows crossing a saturated column come from a column ->
      primary rows index, a counting sort built at the fill's first
      saturation: the per-column entry count (which is also the
      carrier count when every row starts unfrozen) gives the bucket
      bounds by a running sum, and one sort of the entries by column
      fills the buckets.  A column's rows are one slice;
    - the walk scans a path for its first saturated column and, after
      a splice, resumes past the option: the columns before the splice
      held no saturated one, and every column of a live option has
      residual above the option's floor, the largest floor on its
      columns, so none of them is saturated either.  The scan exits
      through a C-level ``isdisjoint`` once the spliced path is clear.
      Resuming skips only columns that a rescan would pass, so every
      walk splices where the scalar walk does;
    - the saturated-column set grows within a fill (residual only
      falls), so each round adds to it instead of rebuilding it;
    - a switch moves the carrier counts by the splices' columns alone,
      and frozen rows' columns leave in one ``ufunc.at`` per round
      (none when the freeze ends the fill).  Counts are small
      integers, exact in float64, so neither the order nor the
      batching of these updates changes any value.

    Returns ``(rates, reasons, switches, carried, detour_flows,
    detour_paths)``: per flow its rate (``level`` at its freeze, at most
    its demand when it froze on demand, or its demand when it never
    grew), freeze reason and detour switches; per row its carried rate
    (a flow that never grew carries its demand on its primary row); per
    detour row (index ``row - len(row_lengths)``, in birth order) its
    flow and its path.
    """
    num_flows = len(row_lengths)
    width = len(residual)
    # --- Per-row state in Python lists: the round loop reads it one row
    # at a time, and building it costs no per-call numpy dispatch.
    unfrozen = [
        length > 0 and demand > _EPS
        for length, demand in zip(row_lengths, demands)
    ]
    # A flow with no path or a demand within _EPS of 0 never grows: it
    # gets its demand, and its primary row carries it.
    rates = [
        0.0 if active else demand
        for active, demand in zip(unfrozen, demands)
    ]
    reasons = ["" if active else "demand" for active in unfrozen]
    active_row = [
        flow if active else -1 for flow, active in enumerate(unfrozen)
    ]
    # Demand events in sorted order: the smallest unfrozen demand is a
    # cursor walk, ``min(d_i - level) == min(d_i) - level`` (float
    # subtraction is monotone), and for the same reason the satisfied
    # flows of a round are a prefix of the order.
    order = sorted(
        [flow for flow, active in enumerate(unfrozen) if active],
        key=demands.__getitem__,
    )
    num_ordered = len(order)
    switches = [0] * num_flows
    # An unfrozen flow's primary row settles when it retires.
    carried = rates.copy()
    if not num_ordered:
        return rates, reasons, switches, carried, [], []
    p_starts = [0, *accumulate(row_lengths)]
    # Primary entries per column: the column index's bucket sizes (see
    # ``col_rows``), and the carrier counts when every row starts
    # unfrozen (every fill of the perfbench workloads).  Carriers are
    # float64, as every round's arithmetic is; a fill holding a no-path
    # or zero-demand row weighs each row by whether it is unfrozen.
    col_entries = np.bincount(cols, minlength=width)
    if num_ordered == num_flows:
        counts = col_entries.astype(np.float64)
    else:
        counts = np.bincount(
            cols,
            weights=np.repeat(np.array(unfrozen, dtype=np.float64), row_lengths),
            minlength=width,
        )
    sub_repl: List[int] = [0] * num_flows
    # Per detour row (index ``row - num_flows``): ``(path entry, round
    # it was born in, flow)``.
    detours: List[Tuple[_PathEntry, int, int]] = []
    # Flow -> column list of its active detour row, for the saturation
    # scan; a flow still on its primary row is not in it.
    on_detour: Dict[int, Tuple[int, ...]] = {}
    active_left = num_ordered

    # Every unfrozen flow's total; a frozen flow's rate is ``level`` at
    # its freeze.
    level = 0.0
    # Step of every round so far; a detour row's carried rate is the
    # left fold of the steps it lived through (see ``_settle``).
    round_steps: List[float] = []
    # Carrier counts hold small integers, exact in float64, so the
    # order of their +-1 updates is free, and nothing reads them between
    # a round's head and its end (steps come from the round start,
    # spare checks read ``residual``).  A frozen row's columns queue up
    # here for one ``ufunc.at`` at the end of the round; a switch moves
    # its flow's count at once (see ``_reroute``).
    dead: List[np.ndarray] = []
    counts_item = counts.item

    def _settle(row: int) -> _PathEntry:
        """Settle detour row *row*'s carried rate; returns its entry.

        A detour row grew from the round after its birth.  Fold its
        steps left to right, as a per-round ``+= step`` would have:
        ``sum()`` (compensated on Python >= 3.12) or a difference of
        levels would round differently."""
        entry, birth, _ = detours[row - num_flows]
        total = 0.0
        for step in round_steps[birth:]:
            total += step
        carried[row] = total
        return entry

    def _freeze(flows: List[int], reason: str) -> None:
        """Freeze *flows* at the current level.  A freeze that ends the
        fill queues no columns: no round reads the counts after it."""
        nonlocal active_left
        active_left -= len(flows)
        for flow in flows:
            row = active_row[flow]
            if row == flow:
                # A primary row grew from round 1: its carried sum is
                # the level's own sum.
                carried[row] = level
                if active_left:
                    dead.append(cols[p_starts[row] : p_starts[row + 1]])
            else:
                entry = _settle(row)
                if active_left:
                    row_cols = entry.array
                    if row_cols is None:
                        row_cols = entry.array = np.array(
                            entry.cols, dtype=np.int64
                        )
                    dead.append(row_cols)
                del on_detour[flow]
            active_row[flow] = -1
            unfrozen[flow] = False
            reasons[flow] = reason
            rates[flow] = level

    def _option_state(col: int, u, v) -> List[Tuple]:
        """Persistent detour options of column *col*, the link
        ``(u, v)``, built once per topology: one ``(option, cols,
        floor, interior)`` entry per option, where *cols* are its
        columns, *floor* the largest saturation floor on them and
        *interior* the frozenset of its inner nodes."""
        entries = option_cache.get(col)
        if entries is None:
            entries = []
            for option in detour_table.options(u, v):
                ocols = tuple(index[link] for link in zip(option, option[1:]))
                ofloor = max(map(floors.item, ocols))
                entries.append((option, ocols, ofloor, frozenset(option[1:-1])))
            option_cache[col] = entries
        return entries

    # Per saturated column: ``(round, live entries, their spares,
    # winner entry)``, refreshed at the first query of each saturation
    # round.  Residual never changes within a round (neither freezes
    # nor splices touch it), so the spares are round-constant; across
    # rounds it only falls, so an option at or below its floor is dead
    # for the rest of the fill.  A spare is a Python ``min`` over
    # ``residual.item`` reads: the float64 values a numpy reduction
    # would compare, at no dispatch cost.  The cached
    # winner is the *unconstrained* winner of the scalar running-max
    # loop; when its interior misses the walked path it is also the
    # constrained one (excluding losers can only lower the running max,
    # and the tie tolerance is monotone).
    fill_options: Dict[int, Tuple] = {}
    residual_item = residual.item

    def _live_options(col: int, path: Path, position: int, cached) -> Tuple:
        """Refresh column *col*'s ``fill_options`` entry for this round;
        *col* is *path*'s link at *position*."""
        entries = (
            _option_state(col, path[position], path[position + 1])
            if cached is None
            else cached[1]
        )
        live = []
        spares = []
        winner = None
        best_spare = -1.0
        for entry in entries:
            spare = min(map(residual_item, entry[1]))
            if spare <= entry[2]:
                continue
            live.append(entry)
            spares.append(spare)
            if spare > best_spare + _EPS * (1.0 + abs(best_spare)):
                winner = entry
                best_spare = spare
        cached = fill_options[col] = (guard, live, spares, winner)
        return cached

    def _disjoint_option(live, spares, path: Path) -> Optional[Tuple]:
        """The scalar ``_best_option`` over the live options whose
        interior misses *path*: the winner's entry, or None."""
        best: Optional[Tuple] = None
        best_spare = -1.0
        for entry, spare in zip(live, spares):
            if not entry[3].isdisjoint(path):
                continue
            # Relative tie tolerance, as in the scalar `_best_option`.
            if spare > best_spare + _EPS * (1.0 + abs(best_spare)):
                best, best_spare = entry, spare
        return best

    def _path_cols(path: Path) -> _PathEntry:
        """*path*'s :class:`_PathEntry` in *path_cols_cache*, made with
        its column tuple alone at the first walk over it; it lives as
        long as the cache's owner keeps it (see :func:`inrp_fill`)."""
        entry = path_cols_cache.get(path)
        if entry is None:
            entry = path_cols_cache[path] = _PathEntry(
                path, tuple(map(index.__getitem__, zip(path, path[1:])))
            )
        return entry

    # The saturated columns (``residual <= floors``) the walk avoids.
    # Residual only falls, so the set only grows within a fill: the
    # round's first walk adds the columns zeroed this round, and reads
    # the full comparison back only when its count shows another column
    # fell to its floor.
    sat_cols: Set[int] = set()
    sat_stale = False

    def _reroute(flow: int, row: int) -> bool:
        """Move the flow's growth off saturated links by splicing
        detours until nothing on its path is saturated; False = the
        flow must freeze.  The caller has checked that *replacements*
        is within budget: every affected flow crosses a column zeroed
        this round, which lies in ``sat_cols``, so an exhausted walk
        would stop at its first budget test."""
        nonlocal sat_stale
        if sat_stale:
            sat_stale = False
            sat_cols.update(sat_list)
            at_floor = residual <= floors
            if np.count_nonzero(at_floor) != len(sat_cols):
                sat_cols.update(at_floor.nonzero()[0].tolist())
        entry = (
            _path_cols(paths[row])
            if row < num_flows
            else detours[row - num_flows][0]
        )
        path_cols = entry.cols
        for col in path_cols:
            if col in sat_cols:
                break
        else:
            # Not taken: an affected flow crosses a column zeroed this
            # round, and 0 <= floor puts that column in ``sat_cols``.
            # A cheap guard against appending a copy of the active row.
            return True
        position = path_cols.index(col)
        candidate = entry.path
        replacements = sub_repl[row]
        # ``(saturated column, option columns)`` of each splice so far.
        taken = []
        while True:
            if replacements >= max_replacements:
                return False
            cached = fill_options.get(col)
            if cached is None or cached[0] != guard:
                cached = _live_options(col, candidate, position, cached)
            choice = cached[3]
            if choice is None:
                return False
            option = choice[0]
            splices = entry.splices
            spliced = None if splices is None else splices.get(option)
            if not spliced:
                # A memoized splice of the winner shows its interior
                # misses the path; otherwise test it.
                if not choice[3].isdisjoint(candidate):
                    choice = _disjoint_option(cached[1], cached[2], candidate)
                    if choice is None:
                        return False
                    option = choice[0]
                    spliced = None if splices is None else splices.get(option)
                if spliced is None:
                    if splices is None:
                        splices = entry.splices = {}
                    spliced_path = splice_detour(candidate, position, option)
                    spliced = splices[option] = (
                        False
                        if spliced_path is None
                        else _path_cols(spliced_path)
                    )
            if spliced is False:
                return False
            entry = spliced
            candidate = entry.path
            path_cols = entry.cols
            replacements += 1
            taken.append((col, choice[1]))
            if sat_cols.isdisjoint(path_cols):
                break
            # Resume past the option: the prefix held no saturated
            # column, and a live option's columns are above their floors.
            position += len(option) - 1
            col = path_cols[position]
            while col not in sat_cols:
                position += 1
                col = path_cols[position]
        if row < num_flows:
            carried[row] = level
        else:
            _settle(row)
        # The new row is the old one with each saturated column swapped
        # for its option's columns (splices keep the rest of the path),
        # so the switch moves the flow's count on those columns alone.
        for col, option_cols in taken:
            counts[col] = counts_item(col) - 1.0
            for option_col in option_cols:
                counts[option_col] = counts_item(option_col) + 1.0
        new_row = num_flows + len(detours)
        detours.append((entry, guard, flow))
        sub_repl.append(replacements)
        carried.append(0.0)
        on_detour[flow] = path_cols
        active_row[flow] = new_row
        switches[flow] += 1
        return True

    cursor = 0
    # Column -> primary rows index, a counting sort built at the first
    # saturation: one sort of the primary entries by column, and the
    # running sum of ``col_entries`` as bucket bounds.  The rows crossing
    # column ``col`` are ``col_rows[col_bounds[col]:col_bounds[col +
    # 1]]``, empty for a column no primary row crosses.
    col_rows: Optional[np.ndarray] = None
    steps = np.empty(width, dtype=np.float64)
    sat_mask = np.empty(width, dtype=bool)
    scratch = np.empty(width, dtype=np.float64)
    guard = 0
    max_iterations = 16 * (num_flows + width) + 64
    # The round head divides full width without ``where=``: a column
    # no row carries yields inf (headroom left) or nan (0/0), both
    # invisible to fmin's reduction and to the <= saturation test, so
    # carrying columns see bit-identical values.  ``-inf`` cannot
    # occur: an unflagged carrying column keeps ``residual > 0`` (its
    # step exceeds the round's by the relative tolerance) and flagged
    # ones are zeroed.
    with np.errstate(divide="ignore", invalid="ignore"):
        while active_left:
            guard += 1
            if guard > max_iterations:
                raise SimulationError("progressive filling did not converge")
            while not unfrozen[order[cursor]]:
                cursor += 1
            demand_step = demands[order[cursor]] - level
            np.divide(residual, counts, out=steps)
            saturation_step = float(np.fmin.reduce(steps))
            step = min(demand_step, saturation_step)
            if step < -_EPS * (1.0 + abs(level)):
                raise SimulationError("negative fill step; inconsistent state")
            step = max(step, 0.0)
            np.multiply(counts, step, out=scratch)
            np.subtract(residual, scratch, out=residual)
            level += step
            round_steps.append(step)

            # Demand events.
            tol = _EPS * (1.0 + abs(level))
            frozen = []
            while cursor < num_ordered:
                flow = order[cursor]
                if unfrozen[flow]:
                    if demands[flow] - level > tol:
                        break
                    frozen.append(flow)
                cursor += 1
            progressed = bool(frozen)
            if frozen:
                _freeze(frozen, "demand")
                # The level can end an ulp above a finite demand: a flow
                # frozen at its demand gets no more than it.
                for flow in frozen:
                    rates[flow] = min(level, demands[flow])

            # Saturation events: reroute or freeze affected flows.  Once
            # every flow froze on demand, none is left to affect.
            if (
                active_left
                and not math.isinf(saturation_step)
                and saturation_step
                <= demand_step + _EPS * (1.0 + abs(demand_step))
            ):
                np.less_equal(
                    steps,
                    saturation_step + _EPS * (1.0 + abs(saturation_step)),
                    out=sat_mask,
                )
                sat_now = sat_mask.nonzero()[0]
                residual[sat_now] = 0.0
                progressed = True
                sat_stale = True
                if col_rows is None:
                    # Row order within a column is free (a flow's turn
                    # comes from ``sorted(affected)``), so any sort
                    # does: a stable one over the smallest dtype that
                    # holds a column is numpy's radix sort.
                    by_col = np.argsort(
                        cols.astype(np.min_scalar_type(width)), kind="stable"
                    )
                    col_rows = np.repeat(
                        np.arange(num_flows, dtype=np.int64), row_lengths
                    )[by_col]
                    col_bounds = np.zeros(width + 1, dtype=np.int64)
                    np.cumsum(col_entries, out=col_bounds[1:])
                    col_entries = None  # the bounds hold all it told
                    bound = col_bounds.item
                # A primary row counts while it is its unfrozen flow's
                # active row (freezing resets ``active_row``, a switch
                # moves the flow into ``on_detour``).
                sat_list = sat_now.tolist()
                affected = set()
                for col in sat_list:
                    for row in col_rows[bound(col) : bound(col + 1)].tolist():
                        if active_row[row] == row:
                            affected.add(row)
                if on_detour:
                    sat_set = set(sat_list)
                    for flow, detour_cols in on_detour.items():
                        if not sat_set.isdisjoint(detour_cols):
                            affected.add(flow)
                # Ascending flow ids are arrival order: older flows
                # reroute first (the id-type invariant).  A flow with
                # no replacement or switch left freezes unwalked.
                frozen = []
                for flow in sorted(affected):
                    row = active_row[flow]
                    if (
                        sub_repl[row] >= max_replacements
                        or switches[flow] >= MAX_SWITCHES_PER_FLOW
                        or not _reroute(flow, row)
                    ):
                        frozen.append(flow)
                if frozen:
                    _freeze(frozen, "no-detour")
            if not progressed:
                raise SimulationError("progressive filling made no progress")
            if dead and active_left:
                np.subtract.at(counts, _joined(dead), 1.0)
                dead.clear()
    detour_flows = [flow for _, _, flow in detours]
    detour_paths = [entry.path for entry, _, _ in detours]
    return rates, reasons, switches, carried, detour_flows, detour_paths


def maxmin_fill(
    space: LinkSpace,
    cols: np.ndarray,
    row_lengths: List[int],
    demands: List[float],
) -> List[float]:
    """Exact progressive filling: the INRP fill with no detour.

    Semantics of :func:`repro.flowsim.multipath.inrp_allocation` with
    no detour table over the rows described by ``(cols, row_lengths,
    demands)`` (the rows' concatenated column ids, and per row its
    length and demand as lists): all
    unfrozen rows grow at one common level; each round takes the next
    demand or saturation event, debits every carrying link by
    ``step * carriers``, freezes satisfied rows and every row crossing
    a saturating link.  Returns the per-row rates as a list of Python
    floats, each at most its demand (a row frozen at its demand gets
    ``min(level, demand)``, as in the scalar solver): the caller reads
    them one flow at a time, so no vector is built and converted back.

    Columns are compressed to the links actually present in ``cols``,
    so per-round cost scales with the component, not the topology.
    """
    unique, local = space.compress(cols)
    return _fill(
        space.capacity[unique], space.floor[unique], local, row_lengths, demands
    )[0]


def inrp_fill(
    space: LinkSpace,
    flow_ids: Sequence[FlowId],
    paths: Sequence[Path],
    cols: np.ndarray,
    row_lengths: List[int],
    demands: List[float],
    detour_table: DetourTable,
    max_replacements: int = 2,
    option_cache: Optional[Dict] = None,
    path_cols_cache: Optional[Dict] = None,
) -> MultipathAllocation:
    """INRP fluid allocation, one scalar level per filling round.

    Semantics of :func:`repro.flowsim.multipath.inrp_allocation` over
    the flows given *in arrival order* (*cols*, *row_lengths* and
    *demands* as for :func:`maxmin_fill`): every unfrozen flow grows its
    active sub-path at the common level; a saturation event reroutes
    the affected flows (oldest first) through the scalar detour-splice
    logic reading the shared residual vector; only flows with no
    usable detour freeze.

    The working vectors span the full column space (one slot per
    topology link): a per-round numpy pass over a few thousand floats
    costs about as much as one over a hundred, and global columns make
    the per-(u, v) detour options and the per-path column entries
    *persistent across fills*: a cache is not rebuilt per recompute.

    ``option_cache`` memoizes the detour options of each link the walk
    met saturated; it is keyed by the link's column, so the topology
    bounds it.  ``path_cols_cache`` maps each path the walk has passed
    through (a flow's primary or a splice) to its :class:`_PathEntry`:
    the path's columns as a tuple of ``space.index``'s own ints, an
    int64 copy made only once a detour row on the path freezes, and a
    splice memo made at its first splice.  Entries stay until the caller drops them;
    :class:`~repro.flowsim.allocation.IncrementalInrp` clears them at
    every component-tracker rebuild, so they never outgrow the flows of
    one epoch.  Pass persistent dicts when calling repeatedly over one
    topology.  Neither holds per-fill state, so a fill gives the same
    result with shared or fresh dicts.
    """
    for flow, demand in zip(flow_ids, demands):
        if demand < 0:
            raise SimulationError(f"flow {flow!r} has negative demand")
    num_flows = len(flow_ids)
    rates, reasons, switches, carried, detour_flows, detour_paths = _fill(
        space.capacity.copy(),
        space.floor,
        np.asarray(cols, dtype=np.int64),
        row_lengths,
        demands,
        paths,
        space.index,
        detour_table,
        max_replacements,
        {} if option_cache is None else option_cache,
        {} if path_cols_cache is None else path_cols_cache,
    )
    splits: Dict[FlowId, List[Tuple[Path, float]]] = {
        flow: [(path, part)]
        for flow, path, part in zip(flow_ids, paths, carried)
    }
    # Detour rows in birth order: each flow's in the order it took them.
    for flow, path, part in zip(
        detour_flows, detour_paths, carried[num_flows:]
    ):
        if part > _EPS:
            splits[flow_ids[flow]].append((path, part))
    return MultipathAllocation(
        rates=dict(zip(flow_ids, rates)),
        splits=splits,
        switches=sum(switches),
        freeze_reasons=dict(zip(flow_ids, reasons)),
        flow_switches=dict(zip(flow_ids, switches)),
    )
