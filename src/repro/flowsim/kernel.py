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
  replacement budget of 0, over the component's columns numbered in
  order of first appearance.  Max-min is INRP's zero-pooling end, not
  a second algorithm.

A fill pays per call only for what scales with its rows: no
full-width scratch vector outlives a round, and the detour walk's
closures and state (:func:`_detour_walk`) are built only for a fill
with a replacement budget.

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
    cols: np.ndarray,
    row_lengths: List[int],
    demands: List[float],
    floors: Optional[np.ndarray] = None,
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
    column for the detour walk.  The loop does each column's arithmetic
    apart from every other column's, so the numbering of the columns
    changes no bit of the result.  Row ``flow`` is flow ``flow``'s
    primary path; detour rows appended during the fill get ids from
    ``len(row_lengths)`` up.  *floors*, *paths*, *index*,
    *detour_table* and the two caches are read only by the detour walk,
    which is not even built while *max_replacements* is 0.  A NaN or
    negative demand raises :class:`SimulationError`; ``inf`` is legal.

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

    Returns ``(rates, reasons, switches, carried, detours)``: per flow
    its rate (``level`` at its freeze, at most its demand when it froze
    on demand, or its demand when it never grew), freeze reason and
    detour switches; per row its carried rate (a flow that never
    switched carries its rate on its primary row); per detour row
    (index ``row - len(row_lengths)``, in birth order) its ``(path
    entry, birth round, flow)``.
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
    # gets its demand, and its primary row carries it.  Every other
    # flow's rate, reason and primary carried rate are set when it
    # freezes (or, for the carried rate, when it switches).
    rates = list(demands)
    reasons = ["demand"] * num_flows
    carried = list(demands)
    active_row = list(range(num_flows))
    active_flows = active_row
    if False in unfrozen:
        # ``demand > _EPS`` is false for a NaN or negative demand, so
        # only a row that starts frozen can hold one.
        for row, active in enumerate(unfrozen):
            if not active:
                if not demands[row] >= 0:
                    raise SimulationError(
                        f"fill row {row} has demand {demands[row]!r}; "
                        "a demand must be a number >= 0"
                    )
                active_row[row] = -1
        active_flows = [flow for flow, active in enumerate(unfrozen) if active]
    # Demand events in sorted order: the smallest unfrozen demand is a
    # cursor walk, ``min(d_i - level) == min(d_i) - level`` (float
    # subtraction is monotone), and for the same reason the satisfied
    # flows of a round are a prefix of the order.
    order = sorted(active_flows, key=demands.__getitem__)
    num_ordered = len(order)
    switches = [0] * num_flows
    if not num_ordered:
        return rates, reasons, switches, carried, []
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

    def _freeze(flows: List[int], reason: str) -> None:
        """Freeze *flows* at the current level.  The level can end an
        ulp above a finite demand, so a flow frozen on its demand gets
        no more than it.  A freeze that ends the fill queues no
        columns: no round reads the counts after it."""
        nonlocal active_left
        active_left -= len(flows)
        on_demand = reason == "demand"
        for flow in flows:
            rate = min(level, demands[flow]) if on_demand else level
            row = active_row[flow]
            if row == flow:
                # A primary row grew from round 1, so its carried sum is
                # the level's own sum: the flow never switched, and the
                # row carries exactly its rate.
                carried[row] = rate
                if active_left:
                    dead.append(cols[p_starts[row] : p_starts[row + 1]])
            else:
                entry = settle(row)
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
            rates[flow] = rate

    # A fill with no replacement budget never walks (every affected
    # flow fails the budget test first), so it builds no walk.
    reroute = settle = None
    if max_replacements:
        reroute, settle = _detour_walk(
            residual,
            floors,
            counts,
            paths,
            index,
            detour_table,
            max_replacements,
            option_cache,
            path_cols_cache,
            carried,
            detours,
            sub_repl,
            on_detour,
            active_row,
            switches,
            round_steps,
        )

    cursor = 0
    # Column -> primary rows index, a counting sort built at the first
    # saturation: one sort of the primary entries by column, and the
    # running sum of ``col_entries`` as bucket bounds.  The rows crossing
    # column ``col`` are ``col_rows[col_bounds[col]:col_bounds[col +
    # 1]]``, empty for a column no primary row crosses.
    col_rows: Optional[np.ndarray] = None
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
            steps = residual / counts
            saturation_step = float(np.fmin.reduce(steps))
            step = min(demand_step, saturation_step)
            if step < -_EPS * (1.0 + abs(level)):
                raise SimulationError("negative fill step; inconsistent state")
            step = max(step, 0.0)
            residual -= counts * step
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

            # Saturation events: reroute or freeze affected flows.  Once
            # every flow froze on demand, none is left to affect.
            if (
                active_left
                and not math.isinf(saturation_step)
                and saturation_step
                <= demand_step + _EPS * (1.0 + abs(demand_step))
            ):
                sat_now = (
                    steps <= saturation_step + _EPS * (1.0 + abs(saturation_step))
                ).nonzero()[0]
                residual[sat_now] = 0.0
                progressed = True
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
                        or not reroute(flow, row, guard, level, sat_list)
                    ):
                        frozen.append(flow)
                if frozen:
                    _freeze(frozen, "no-detour")
            if not progressed:
                raise SimulationError("progressive filling made no progress")
            if dead and active_left:
                np.subtract.at(counts, _joined(dead), 1.0)
                dead.clear()
    return rates, reasons, switches, carried, detours


def _disjoint_option(live, spares, path: Path) -> Optional[Tuple]:
    """The scalar ``_best_option`` over the live options whose interior
    misses *path*: the winner's entry, or None."""
    best: Optional[Tuple] = None
    best_spare = -1.0
    for entry, spare in zip(live, spares):
        if not entry[3].isdisjoint(path):
            continue
        # Relative tie tolerance, as in the scalar `_best_option`.
        if spare > best_spare + _EPS * (1.0 + abs(best_spare)):
            best, best_spare = entry, spare
    return best


def _detour_walk(
    residual: np.ndarray,
    floors: np.ndarray,
    counts: np.ndarray,
    paths: Sequence[Path],
    index: Mapping[LinkId, int],
    detour_table: DetourTable,
    max_replacements: int,
    option_cache: Dict,
    path_cols_cache: Dict,
    carried: List[float],
    detours: List[Tuple[_PathEntry, int, int]],
    sub_repl: List[int],
    on_detour: Dict[int, Tuple[int, ...]],
    active_row: List[int],
    switches: List[int],
    round_steps: List[float],
):
    """The detour walk of one :func:`_fill`: returns its ``(reroute,
    settle)`` closures over the fill's vectors and per-row lists, which
    they update in place.  Only a fill with a replacement budget makes
    one, so a fill that cannot walk pays for none of its state.

    ``reroute(flow, row, round, level, sat_list)`` takes the fill's
    round number, level and the columns zeroed this round;
    ``settle(row)`` settles a detour row's carried rate.
    """
    # One entry per primary row until the first switch appends more.
    num_flows = len(sub_repl)
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
        cached = fill_options[col] = (synced, live, spares, winner)
        return cached

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
    # fell to its floor.  ``synced`` is the round it last did so.
    sat_cols: Set[int] = set()
    synced = 0

    # ``_reroute`` closes over 19 variables.  Keep it off 20: CPython
    # 3.11 parks a freed 20-tuple in a free list it never takes one
    # from, so a 20-cell closure made per fill holds its cell tuple for
    # good (up to 2,000 of them, ~0.4 MB of peak RSS on ``inrp-local``).
    def _reroute(
        flow: int, row: int, guard: int, level: float, sat_list: List[int]
    ) -> bool:
        """Move the flow's growth off saturated links by splicing
        detours until nothing on its path is saturated; False = the
        flow must freeze.  The caller has checked that *replacements*
        is within budget: every affected flow crosses a column zeroed
        this round, which lies in ``sat_cols``, so an exhausted walk
        would stop at its first budget test."""
        nonlocal synced
        if synced != guard:
            synced = guard
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

    return _reroute, _settle


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
    numbered in order of first appearance by one pass over the entries,
    so per-call and per-round cost scale with the component, not the
    topology.  No floor vector is built: only a detour walk reads one.
    """
    entries = cols.tolist()
    local: Dict[int, int] = {}
    for col in entries:
        if col not in local:
            local[col] = len(local)
    return _fill(
        space.capacity.take(list(local)),
        np.array([local[col] for col in entries], dtype=np.int64),
        row_lengths,
        demands,
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
    topology link).  That is not free: a round head over sprint's 4,310
    columns costs about three times one over 150.  Global columns pay
    because they keep the per-(u, v) detour options and the per-path
    column entries *valid across fills*: the walk's caches are not
    rebuilt per recompute, and a fill-local column space, remapped at
    every switch, measured slower.

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
    num_flows = len(flow_ids)
    rates, reasons, switches, carried, detours = _fill(
        space.capacity.copy(),
        np.asarray(cols, dtype=np.int64),
        row_lengths,
        demands,
        space.floor,
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
    for (entry, _, flow), part in zip(detours, carried[num_flows:]):
        if part > _EPS:
            splits[flow_ids[flow]].append((entry.path, part))
    return MultipathAllocation(
        rates=dict(zip(flow_ids, rates)),
        splits=splits,
        switches=sum(switches),
        freeze_reasons=dict(zip(flow_ids, reasons)),
        flow_switches=dict(zip(flow_ids, switches)),
    )
