"""Property tests for the vectorized CSR allocation kernel.

The kernel (`repro.flowsim.kernel`) must be a drop-in for the scratch
solvers: randomized add/remove churn — including tombstone-compaction
boundaries, tracker rebuilds, and empty / single-flow components —
must stay within 1e-9 of `max_min_allocation` / `inrp_allocation`
after every event.
"""

import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import reference_run

from repro.flowsim import FlowLevelSimulator, make_strategy
from repro.flowsim import kernel as _kernel
from repro.flowsim.allocation import (
    IncrementalInrp,
    IncrementalMaxMin,
    max_min_allocation,
)
from repro.flowsim.kernel import IncidenceStore, LinkSpace
from repro.flowsim.multipath import inrp_allocation
from repro.routing.detour import DetourTable
from repro.routing.paths import cached_path_links
from repro.topology import mesh_topology
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads import FlowWorkload, uniform_pairs

TOL = 1e-9


def _relative_deviation(got, want):
    worst = 0.0
    assert got.keys() == want.keys()
    for flow, rate in want.items():
        worst = max(worst, abs(got[flow] - rate) / max(1.0, abs(rate)))
    return worst


def _churn_step(rng, live, next_id, topo, strategy, remove_probability=0.4):
    """One churn event: remove a random live flow or route a new one."""
    nodes = list(topo.nodes())
    if live and rng.random() < remove_probability:
        return ("remove", rng.choice(sorted(live)), None, None)
    source, destination = rng.sample(nodes, 2)
    path = tuple(strategy.route(next_id, source, destination))
    demand = rng.choice([math.inf, mbps(200.0), mbps(50.0), 0.0])
    return ("add", next_id, path, demand)


@pytest.mark.parametrize("seed", [0, 3])
def test_maxmin_kernel_matches_scratch_under_churn(seed):
    """Vectorized max-min stays within 1e-9 of the scratch solver
    across add/remove churn, with compaction forced often (tiny
    ``min_compact_nnz``) so the tombstone boundaries are crossed
    mid-sequence."""
    topo = mesh_topology(24, extra_links=24, seed=seed, capacity=mbps(10))
    strategy = make_strategy("sp", topo)
    alloc = IncrementalMaxMin(
        topo.directed_capacities(),
        min_compact_nnz=8,
        compact_slack=0.2,
    )
    rng = random.Random(seed)
    flow_links, demands, live = {}, {}, set()
    next_id = 0
    for _ in range(140):
        action, flow, path, demand = _churn_step(rng, live, next_id, topo, strategy)
        if action == "remove":
            live.discard(flow)
            del flow_links[flow], demands[flow]
            alloc.remove_flow(flow)
        else:
            links = cached_path_links(path)
            flow_links[flow], demands[flow] = links, demand
            alloc.add_flow(flow, links, demand)
            live.add(flow)
            next_id += 1
        alloc.recompute()
        scratch = max_min_allocation(topo.directed_capacities(), flow_links, demands)
        assert _relative_deviation(alloc.rates, scratch) <= TOL
    alloc._store.check_consistency()
    assert alloc._store.compactions > 0, "churn never crossed a compaction"


@pytest.mark.parametrize("seed", [1, 4])
def test_inrp_kernel_matches_scratch_under_churn(seed):
    """Vectorized INRP (detour splicing included) stays within 1e-9 of
    scratch ``inrp_allocation`` across churn; the run must also cross
    tombstone compactions and at least one tracker rebuild."""
    topo = mesh_topology(16, extra_links=14, seed=seed, capacity=mbps(10))
    table = DetourTable(topo)
    strategy = make_strategy("inrp", topo)
    alloc = IncrementalInrp(
        topo.directed_capacities(),
        table,
        min_compact_nnz=8,
        compact_slack=0.2,
    )
    alloc._tracker.slack = 0.05  # rebuild eagerly so churn crosses one
    rng = random.Random(seed)
    flow_paths, demands, live = {}, {}, set()
    next_id = 0
    for _ in range(110):
        action, flow, path, demand = _churn_step(rng, live, next_id, topo, strategy)
        if action == "remove":
            live.discard(flow)
            del flow_paths[flow], demands[flow]
            alloc.remove_flow(flow)
        else:
            flow_paths[flow], demands[flow] = path, demand
            alloc.add_flow(flow, path, demand)
            live.add(flow)
            next_id += 1
        alloc.recompute()
        scratch = inrp_allocation(
            topo.directed_capacities(), flow_paths, demands, table
        )
        assert _relative_deviation(alloc.rates, scratch.rates) <= TOL
    alloc._primary_store.check_consistency()
    assert alloc._primary_store.compactions > 0
    assert alloc._tracker.rebuilds > 0


@pytest.mark.parametrize("kernel_cls", ["sp", "inrp"])
def test_empty_and_single_flow_components(kernel_cls):
    """Degenerate shapes: no flows at all, a single flow, a zero-demand
    flow, and removal back down to empty."""
    topo = mesh_topology(8, extra_links=4, seed=0, capacity=mbps(10))
    if kernel_cls == "sp":
        alloc = IncrementalMaxMin(topo.directed_capacities())
    else:
        alloc = IncrementalInrp(topo.directed_capacities(), DetourTable(topo))
    alloc.recompute()
    assert alloc.rates == {}

    strategy = make_strategy(kernel_cls, topo)
    nodes = list(topo.nodes())
    path = tuple(strategy.route(0, nodes[0], nodes[-1]))
    if kernel_cls == "sp":
        alloc.add_flow(0, cached_path_links(path), math.inf)
        expected = max_min_allocation(
            topo.directed_capacities(), {0: cached_path_links(path)}, {0: math.inf}
        )[0]
    else:
        alloc.add_flow(0, path, math.inf)
        # A lone INRP flow detours past its saturated primary path and
        # pools extra capacity, so compare against the scratch solver.
        expected = inrp_allocation(
            topo.directed_capacities(), {0: path}, {0: math.inf}, DetourTable(topo)
        ).rates[0]
    alloc.recompute()
    assert alloc.rates[0] == pytest.approx(expected, rel=1e-9)
    assert expected >= mbps(10) * (1 - 1e-9)

    # A second, zero-demand flow rides along at rate 0.
    other = tuple(strategy.route(1, nodes[1], nodes[-2]))
    if kernel_cls == "sp":
        alloc.add_flow(1, cached_path_links(other), 0.0)
    else:
        alloc.add_flow(1, other, 0.0)
    alloc.recompute()
    assert alloc.rates[1] == 0.0

    alloc.remove_flow(0)
    alloc.remove_flow(1)
    alloc.recompute()
    assert alloc.rates == {}


def test_incidence_store_compaction_preserves_rows():
    """Direct store-level check: tombstoned rows vanish, live rows keep
    their columns and demands across a forced compaction."""
    space = LinkSpace({("a", "b"): 1.0, ("b", "c"): 2.0, ("c", "d"): 3.0})
    ab, bc, cd = (
        space.index[("a", "b")],
        space.index[("b", "c")],
        space.index[("c", "d")],
    )
    store = IncidenceStore(space, compact_slack=0.2, min_compact_nnz=2)
    store.add(0, [ab, bc], 5.0)
    store.add(1, [bc, cd], 7.0)
    store.add(2, [ab], 9.0)
    store.remove(0)
    store.remove(1)
    store.add(3, [cd], 11.0)  # triggers compaction over tombstones
    store.check_consistency()
    assert store.compactions >= 1
    assert sorted(store.live_flows()) == [2, 3]
    cols, lengths, demands = store.gather([2, 3])
    assert list(lengths) == [1, 1]
    assert list(demands) == [9.0, 11.0]
    assert list(cols) == [space.index[("a", "b")], space.index[("c", "d")]]


_COMPRESS_LINKS = 40
_COLUMN_MULTISETS = st.lists(st.integers(0, _COMPRESS_LINKS - 1), max_size=60)


@settings(deadline=None, max_examples=200)
@given(first=_COLUMN_MULTISETS, second=_COLUMN_MULTISETS)
@example(first=[], second=[3, 3])
@example(first=[7, 2, 7, 39, 0], second=[5])
def test_link_space_compress_matches_unique(first, second):
    """``LinkSpace.compress`` is ``np.unique(..., return_inverse=True)``,
    also on duplicates, one column and no columns, and two calls in a
    row do not see each other's columns."""
    space = LinkSpace({(i, i + 1): 1.0 for i in range(_COMPRESS_LINKS)})
    for cols in (first, second, first[:1]):
        cols = np.asarray(cols, dtype=np.int64)
        unique, inverse = space.compress(cols)
        want_unique, want_inverse = np.unique(cols, return_inverse=True)
        assert np.array_equal(unique, want_unique)
        assert np.array_equal(inverse, want_inverse)
        assert len(inverse) == len(cols)


class _CountingBudget(int):
    """``max_replacements`` that counts exhausted budgets.

    The fill's budget test ``replacements >= max_replacements`` has a
    plain int on the left, so Python dispatches it to this subclass's
    reflected ``__le__``: every true result is one walk that ran out
    of replacements, i.e. one ``max_replacements`` freeze.
    """

    def __new__(cls, value):
        budget = super().__new__(cls, value)
        budget.exhausted = 0
        return budget

    def __le__(self, other):
        exhausted = int.__le__(self, other)
        self.exhausted += exhausted
        return exhausted


def _inrp_churn_fills(monkeypatch, topo, seed, events, verify):
    """Every ``inrp_fill`` result of a seeded add/remove churn through
    ``IncrementalInrp``, recomputing after each
    event; ~80 flows stay live, deep in overload.  Returns the results
    and the number of exhausted replacement budgets.

    With *verify*, each fill is repeated with half the capacity of the
    first primary link pinned: the allocator's own pinned usage is
    zero by construction, so this is what exercises the debit."""
    fills, budgets = [], []
    fill = _kernel.inrp_fill

    def capture(*args, **kwargs):
        budget = _CountingBudget(kwargs["max_replacements"])
        budgets.append(budget)
        kwargs["max_replacements"] = budget
        result = fill(*args, **kwargs)
        fills.append(result)
        space, cols = args[0], args[3]
        if verify and len(cols):
            col = int(cols[0])
            kwargs["pinned"] = [(col, space.capacity[col] / 2)]
            fills.append(fill(*args, **kwargs))
        return result

    monkeypatch.setattr(_kernel, "inrp_fill", capture)
    strategy = make_strategy("inrp", topo)
    alloc = IncrementalInrp(
        topo.directed_capacities(), DetourTable(topo), verify=verify
    )
    rng = random.Random(seed)
    nodes = list(topo.nodes())
    live, next_id = [], 0
    for _ in range(events):
        if live and rng.random() < 0.3:
            alloc.remove_flow(live.pop(rng.randrange(len(live))))
        else:
            source, destination = rng.sample(nodes, 2)
            path = tuple(strategy.route(next_id, source, destination))
            demand = rng.choice([math.inf, mbps(10), mbps(2), 0.0])
            alloc.add_flow(next_id, path, demand)
            live.append(next_id)
            next_id += 1
        alloc.recompute()
    monkeypatch.undo()
    return fills, sum(budget.exhausted for budget in budgets)


def _fill_profile(fills, max_switches=16):
    """What the fills did, read off their results.

    ``long_rows`` counts detour rows provably alive for >= 2 rounds:
    a one-switch flow's detour row is born at the level its primary
    row retired at (``splits[0]``, exactly the level) and retires at
    the flow's rate; another round's level strictly between the two
    proves a round in between.
    """
    counts = {
        "fills": len(fills),
        "switches": 0,
        "demand": 0,
        "no_detour": 0,
        "switch_cap": 0,
        "long_rows": 0,
    }
    for result in fills:
        counts["switches"] += result.switches
        levels = set()
        for flow, reason in result.freeze_reasons.items():
            rate = result.rates[flow]
            if reason == "no-detour" or (reason == "demand" and rate > 0):
                levels.add(rate)
            if result.flow_switches[flow]:
                levels.add(result.splits[flow][0][1])
            if reason == "demand" and rate > 0:
                counts["demand"] += 1
            elif reason == "no-detour":
                counts["no_detour"] += 1
                if result.flow_switches[flow] >= max_switches:
                    counts["switch_cap"] += 1
        for flow, switches in result.flow_switches.items():
            if switches == 1:
                born, retired = result.splits[flow][0][1], result.rates[flow]
                if any(born < level < retired for level in levels):
                    counts["long_rows"] += 1
    return counts


def _fills_digest(fills):
    digest = hashlib.sha256()
    for result in fills:
        for flow, rate in result.rates.items():
            digest.update(repr((
                flow,
                rate.hex(),
                [(tuple(path), part.hex()) for path, part in result.splits[flow]],
                result.flow_switches[flow],
                result.freeze_reasons[flow],
            )).encode())
    return digest.hexdigest()


#: sha256 of every fill below.  Any change to a rate, split, switch or
#: freeze reason, down to the last bit, changes it: re-record it only
#: for a deliberate change of results.
_INRP_FILL_GOLDEN = (
    "4b6e8b81c53d714236a8cc67283744cd2c5402fe75492e803a52b7ca4de43246"
)


def test_inrp_fill_bit_for_bit_golden(monkeypatch):
    """``inrp_fill`` outputs stay bit-identical: overload churn on
    exodus and a small mesh, plus a ``verify=True`` run (in-reach
    columns and a pinned debit), hashed to one digest.  The instance
    must hit every freeze kind, detour switches and multi-round detour
    rows, so a change in how any of them settles shows in the digest."""
    mesh = mesh_topology(16, extra_links=14, seed=1, capacity=mbps(10))
    fills, budget = [], 0
    for topo, seed, events, verify in (
        (build_isp_topology("exodus", seed=0), 0, 200, False),
        (mesh, 1, 200, False),
        (mesh, 2, 100, True),
    ):
        run_fills, run_budget = _inrp_churn_fills(
            monkeypatch, topo, seed, events, verify
        )
        fills += run_fills
        budget += run_budget
    counts = _fill_profile(fills)
    assert counts == {
        "fills": 595,
        "switches": 6160,
        "demand": 4230,
        "no_detour": 9895,
        "switch_cap": 0,
        "long_rows": 2804,
    }
    # Walks that ran out of budget; the rest of the no-detour freezes
    # found no live option.  (A walk shared by flows on one route may
    # be counted once, so only the signs are pinned.)
    assert budget > 0
    assert counts["no_detour"] - counts["switch_cap"] - budget > 0
    assert _fills_digest(fills) == _INRP_FILL_GOLDEN


def test_inrp_cross_core_overload_equivalence():
    """Oracle vs event-loop INRP records at deep overload (spanning
    components, heavy detour churn).  ``total_switches`` is excluded:
    the event loop re-fills only dirty components and so does not
    re-count the switches of untouched components."""
    topo = mesh_topology(14, extra_links=12, seed=2, capacity=mbps(10))
    workload = FlowWorkload(
        topo,
        arrival_rate=600.0,
        mean_size_bits=4e6,
        demand_bps=mbps(10),
        seed=2,
        pair_sampler=uniform_pairs(topo, seed=3),
    )
    specs = workload.generate(max_flows=70)
    ref = reference_run(topo, make_strategy("inrp", topo), specs)
    vec = FlowLevelSimulator(topo, make_strategy("inrp", topo), specs).run()
    assert len(ref.records) == len(vec.records)
    for a, b in zip(ref.records, vec.records):
        assert a.flow_id == b.flow_id
        assert a.completed == b.completed
        if a.completed:
            assert b.fct == pytest.approx(a.fct, rel=1e-6, abs=1e-9)
        assert b.delivered_bits == pytest.approx(
            a.delivered_bits, rel=1e-6, abs=1e-3
        )
    assert vec.unfinished == ref.unfinished
    assert vec.network_throughput == pytest.approx(
        ref.network_throughput, rel=1e-6
    )


def test_inrp_cross_core_calibrated_point_equivalence():
    """Oracle vs event-loop INRP records at the Fig. 4 calibrated
    operating point (seed 42, 10 Mbps demands, locality-weighted pairs
    with ``max_hops=5``, ``detour_depth=2`` — the knobs of
    ``run_snapshot_cell``).  The overload test above exercises the
    saturated regime; this one pins the moderate-load regime, where
    every flow completes but detour switching is still active."""
    from repro.rng import derive_seed
    from repro.workloads.traffic import local_pairs

    topo = mesh_topology(14, extra_links=12, seed=42, capacity=mbps(10))
    workload = FlowWorkload(
        topo,
        arrival_rate=40.0,
        mean_size_bits=4e6,
        demand_bps=mbps(10),
        seed=42,
        pair_sampler=local_pairs(topo, derive_seed(42, "local"), max_hops=5),
    )
    specs = workload.generate(max_flows=60)
    ref = reference_run(topo, make_strategy("inrp", topo, detour_depth=2), specs)
    vec = FlowLevelSimulator(
        topo, make_strategy("inrp", topo, detour_depth=2), specs
    ).run()
    # Regime guard: this must stay the moderate-load complement of the
    # overload test — everything finishes, nothing is starved.
    assert all(record.completed for record in ref.records)
    assert ref.unfinished == 0
    assert len(ref.records) == len(vec.records)
    for a, b in zip(ref.records, vec.records):
        assert a.flow_id == b.flow_id
        assert a.completed == b.completed
        assert b.fct == pytest.approx(a.fct, rel=1e-6, abs=1e-9)
        assert b.delivered_bits == pytest.approx(
            a.delivered_bits, rel=1e-6, abs=1e-3
        )
        assert b.stretch == pytest.approx(a.stretch, rel=1e-6, abs=1e-9)
    assert vec.unfinished == ref.unfinished


@pytest.mark.parametrize("strategy_name", ["sp", "ecmp", "inrp"])
def test_vectorized_core_verified_inside_simulator(strategy_name):
    """``verify_allocator=True`` cross-checks every recompute (each a
    CSR-kernel fill) against the scratch solver inside the simulator
    loop."""
    topo = mesh_topology(14, extra_links=10, seed=1, capacity=mbps(10))
    workload = FlowWorkload(
        topo,
        arrival_rate=120.0,
        mean_size_bits=2e6,
        demand_bps=mbps(10),
        seed=1,
        pair_sampler=uniform_pairs(topo, seed=2),
    )
    specs = workload.generate(max_flows=40)
    result = FlowLevelSimulator(
        topo,
        make_strategy(strategy_name, topo),
        specs,
        verify_allocator=True,
    ).run()
    assert result.max_verify_deviation is not None
    assert result.max_verify_deviation <= TOL
