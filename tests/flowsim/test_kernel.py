"""Property tests for the vectorized CSR allocation kernel.

The kernel (`repro.flowsim.kernel`) must be a drop-in for the scratch
solver: randomized add/remove churn — including tracker rebuilds and
empty / single-flow components — must stay within 1e-9 of
`inrp_allocation` (with no detour table for max-min) after every
event.
"""

import hashlib
import math
import random
from itertools import accumulate

import numpy as np
import pytest
from oracles import reference_run

from repro.errors import SimulationError
from repro.flowsim import FlowLevelSimulator, make_strategy
from repro.flowsim import kernel as _kernel
from repro.flowsim.allocation import IncrementalInrp
from repro.flowsim.kernel import LinkSpace
from repro.flowsim.multipath import inrp_allocation
from repro.metrics import max_min_violations
from repro.routing.detour import DetourTable
from repro.routing.paths import path_links
from repro.topology import Topology, mesh_topology
from repro.topology.isp import build_isp_topology
from repro.units import mbps
from repro.workloads import FlowWorkload, local_pairs, uniform_pairs

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
    across add/remove churn."""
    topo = mesh_topology(24, extra_links=24, seed=seed, capacity=mbps(10))
    strategy = make_strategy("sp", topo)
    alloc = IncrementalInrp(topo.directed_capacities(), None, max_replacements=0)
    rng = random.Random(seed)
    flow_paths, demands, live = {}, {}, set()
    next_id = 0
    for _ in range(140):
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
            topo.directed_capacities(), flow_paths, demands, None
        )
        assert _relative_deviation(alloc.rates, scratch.rates) <= TOL


@pytest.mark.parametrize("seed", [1, 4])
def test_inrp_kernel_matches_scratch_under_churn(seed):
    """Vectorized INRP (detour splicing included) stays within 1e-9 of
    scratch ``inrp_allocation`` across churn; the run must also cross
    at least one tracker rebuild."""
    topo = mesh_topology(16, extra_links=14, seed=seed, capacity=mbps(10))
    table = DetourTable(topo)
    strategy = make_strategy("inrp", topo)
    alloc = IncrementalInrp(topo.directed_capacities(), table)
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
    assert alloc._tracker.rebuilds > 0


@pytest.mark.parametrize("kernel_cls", ["sp", "inrp"])
def test_empty_and_single_flow_components(kernel_cls):
    """Degenerate shapes: no flows at all, a single flow, a zero-demand
    flow, and removal back down to empty."""
    topo = mesh_topology(8, extra_links=4, seed=0, capacity=mbps(10))
    if kernel_cls == "sp":
        alloc = IncrementalInrp(topo.directed_capacities(), None, max_replacements=0)
    else:
        alloc = IncrementalInrp(topo.directed_capacities(), DetourTable(topo))
    alloc.recompute()
    assert alloc.rates == {}

    strategy = make_strategy(kernel_cls, topo)
    nodes = list(topo.nodes())
    path = tuple(strategy.route(0, nodes[0], nodes[-1]))
    alloc.add_flow(0, path, math.inf)
    # A lone INRP flow detours past its saturated primary path and
    # pools extra capacity; a lone max-min flow fills its bottleneck.
    table = None if kernel_cls == "sp" else DetourTable(topo)
    expected = inrp_allocation(
        topo.directed_capacities(), {0: path}, {0: math.inf}, table
    ).rates[0]
    alloc.recompute()
    assert alloc.rates[0] == pytest.approx(expected, rel=1e-9)
    assert expected >= mbps(10) * (1 - 1e-9)

    # A second, zero-demand flow rides along at rate 0.
    other = tuple(strategy.route(1, nodes[1], nodes[-2]))
    alloc.add_flow(1, other, 0.0)
    alloc.recompute()
    assert alloc.rates[1] == 0.0

    alloc.remove_flow(0)
    alloc.remove_flow(1)
    alloc.recompute()
    assert alloc.rates == {}


def _random_rows(rng, width):
    """A random fill over *width* columns: rows of distinct columns, with
    no-path rows (length 0) and zero-demand rows among them."""
    rows, demands = [], []
    for _ in range(rng.randint(1, 14)):
        length = rng.choice([0, 1, 2, 3, 4]) if rng.random() < 0.9 else 0
        rows.append(rng.sample(range(width), length))
        demands.append(
            rng.choice([math.inf, math.inf, 0.0, mbps(rng.uniform(0.5, 6.0))])
        )
    return rows, demands


def test_fill_is_bit_identical_under_any_column_numbering():
    """``maxmin_fill`` numbers a fill's columns in first-appearance
    order, which is exact only if the numbering changes no bit: each
    column's arithmetic is its own, the fmin reduction skips the nan
    and inf of uncarried columns, and saturated columns reach their
    flows through a sorted set.  ``_fill`` over a randomly permuted
    column space returns the same rates, reasons, switches and carried
    rates bit for bit, and ``maxmin_fill`` over its compressed columns
    returns the rates of ``_fill`` over the whole space.  The fills
    take several saturation rounds and hold no-path and zero-demand
    rows."""
    width = 12
    rng = random.Random(7)
    rounds, no_path, zero_demand = [], 0, 0
    for _ in range(150):
        space = LinkSpace(
            {(i, i + 1): mbps(rng.choice([1, 2, 3, 5, 8])) for i in range(width)}
        )
        rows, demands = _random_rows(rng, width)
        lengths = [len(row) for row in rows]
        cols = np.array([col for row in rows for col in row], dtype=np.int64)
        want = _kernel._fill(space.capacity.copy(), cols, lengths, demands)

        perm = np.array(rng.sample(range(width), width), dtype=np.int64)
        residual = np.empty(width)
        residual[perm] = space.capacity
        got = _kernel._fill(residual, perm[cols], lengths, demands)
        for name, a, b in zip(
            ("rates", "reasons", "switches", "carried"), want, got
        ):
            assert list(map(repr, a)) == list(map(repr, b)), name
        compressed = _kernel.maxmin_fill(space, cols, lengths, demands)
        assert list(map(float.hex, compressed)) == list(map(float.hex, want[0]))

        reasons, rates = want[1], want[0]
        rounds.append(
            len({rate for rate, why in zip(rates, reasons) if why == "no-detour"})
        )
        no_path += lengths.count(0)
        zero_demand += demands.count(0.0)
    assert max(rounds) >= 3 and no_path and zero_demand


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


def _overload_churn(alloc, topo, strategy_name, seed, events):
    """A seeded add/remove churn through *alloc*, recomputing after
    each event; ~80 flows stay live, deep in overload."""
    strategy = make_strategy(strategy_name, topo)
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


def _inrp_churn_fills(monkeypatch, topo, seed, events, verify):
    """Every ``inrp_fill`` result of :func:`_overload_churn` through
    ``IncrementalInrp``.  Returns the results and the number of
    exhausted replacement budgets.  *verify* only adds the allocator's
    scratch comparison: the fills are the same."""
    fills, budgets = [], []
    fill = _kernel.inrp_fill

    def capture(*args, **kwargs):
        budget = _CountingBudget(kwargs["max_replacements"])
        budgets.append(budget)
        kwargs["max_replacements"] = budget
        result = fill(*args, **kwargs)
        fills.append(result)
        return result

    monkeypatch.setattr(_kernel, "inrp_fill", capture)
    alloc = IncrementalInrp(
        topo.directed_capacities(), DetourTable(topo), verify=verify
    )
    _overload_churn(alloc, topo, "inrp", seed, events)
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
#: for a deliberate change of results.  Recorded with the third run
#: unverified, so it also pins that verifying leaves the fills alone.
_INRP_FILL_GOLDEN = (
    "beb159be73bacecbf2cb535388e27bbb79bc9c3d91f53f84170b0aee8650cd4e"
)


def test_inrp_fill_bit_for_bit_golden(monkeypatch):
    """``inrp_fill`` outputs stay bit-identical: overload churn on
    exodus and a small mesh, plus a ``verify=True`` run that must fill
    exactly as an unverified one, hashed to one digest.  The instance
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
        "fills": 496,
        "switches": 5669,
        "demand": 3773,
        "no_detour": 9347,
        "switch_cap": 0,
        "long_rows": 2645,
    }
    # Walks that ran out of budget; the rest of the no-detour freezes
    # found no live option.  (A walk shared by flows on one route may
    # be counted once, so only the signs are pinned.)
    assert budget > 0
    assert counts["no_detour"] - counts["switch_cap"] - budget > 0
    assert _fills_digest(fills) == _INRP_FILL_GOLDEN


def _maxmin_churn_fills(monkeypatch, topo, seed, events):
    """Every ``maxmin_fill`` over :func:`_overload_churn` through the
    allocator with no detours (as SP builds it), as ``(space, rows, demands, rates)``: its
    link space, each row's column list, and the demand and rate
    vectors."""
    fills = []
    fill = _kernel.maxmin_fill

    def capture(space, cols, row_lengths, demands):
        rates = fill(space, cols, row_lengths, demands)
        ends = list(accumulate(row_lengths))
        rows = [
            cols[end - length : end].tolist()
            for end, length in zip(ends, row_lengths)
        ]
        fills.append((space, rows, np.array(demands), np.array(rates)))
        return rates

    monkeypatch.setattr(_kernel, "maxmin_fill", capture)
    alloc = IncrementalInrp(topo.directed_capacities(), None, max_replacements=0)
    _overload_churn(alloc, topo, "sp", seed, events)
    monkeypatch.undo()
    return fills


#: sha256 of every SP fill below, each rate as ``float.hex``: pins the
#: max-min fill bit for bit, as :data:`_INRP_FILL_GOLDEN` pins the
#: INRP fill.  Re-record it only for a deliberate change of results.
_SP_FILL_GOLDEN = (
    "25f02f4b4e7119ca3910a5c7f0333a61716be2f8214b6b63e6336222195c81b8"
)


def _golden_maxmin_fills(monkeypatch):
    """The fills :data:`_SP_FILL_GOLDEN` pins: seeded SP overload churn
    on exodus and a 16-node mesh."""
    mesh = mesh_topology(16, extra_links=14, seed=1, capacity=mbps(10))
    fills = []
    for topo, seed, events in (
        (build_isp_topology("exodus", seed=0), 0, 200),
        (mesh, 1, 200),
    ):
        fills += _maxmin_churn_fills(monkeypatch, topo, seed, events)
    return fills


def test_maxmin_fill_bit_for_bit_golden(monkeypatch):
    """``maxmin_fill`` outputs stay bit-identical over seeded SP
    overload churn on exodus and a 16-node mesh.  The fills must freeze
    rows on both events: at a finite demand, and below it at a
    saturated link."""
    fills = _golden_maxmin_fills(monkeypatch)
    at_demand = saturated = 0
    digest = hashlib.sha256()
    for _, _, demands, rates in fills:
        finite = (demands > 0) & np.isfinite(demands)
        at_demand += int((finite & (rates == demands)).sum())
        saturated += int((rates < demands).sum())
        digest.update(repr([rate.hex() for rate in rates.tolist()]).encode())
    assert (len(fills), at_demand, saturated) == (380, 1791, 6220)
    assert digest.hexdigest() == _SP_FILL_GOLDEN


def test_maxmin_fills_pass_the_fairness_certificate(monkeypatch):
    """Every production SP fill of the golden churn passes
    :func:`~repro.metrics.fairness.max_min_violations`, the max-min
    check that shares no code with the fills or the scratch solver:
    no link overloaded, and every flow below its demand holds the
    largest rate on some saturated link.  The tolerance is the kernel's
    saturation floor on the fill's links (1e-9 relative, 0.01 bit/s at
    10 Mbps): within it the kernel counts a link as saturated."""
    fills = _golden_maxmin_fills(monkeypatch)
    flows = 0
    for space, rows, demands, rates in fills:
        used = sorted({col for row in rows for col in row})
        capacities = dict(zip(used, space.capacity[used].tolist()))
        violations = max_min_violations(
            dict(enumerate(rates.tolist())),
            dict(enumerate(demands.tolist())),
            dict(enumerate(rows)),
            capacities,
            tolerance=float(space.floor[used].max()),
        )
        assert violations == []
        flows += len(rows)
    assert (len(fills), flows) == (380, 10094)


def test_inrp_fill_caches_carry_no_results_across_fills(monkeypatch):
    """The caches an allocator shares across fills (per-(u, v) options,
    per-path columns and their splice memo) change no fill: one seeded
    overload churn replayed through ``inrp_fill`` with one pair of
    cache dicts for every fill, then with fresh dicts for each fill,
    hashes to the same digest."""
    calls = []
    fill = _kernel.inrp_fill

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return fill(*args, **kwargs)

    monkeypatch.setattr(_kernel, "inrp_fill", record)
    topo = build_isp_topology("exodus", seed=0)
    strategy = make_strategy("inrp", topo)
    alloc = IncrementalInrp(topo.directed_capacities(), DetourTable(topo))
    rng = random.Random(5)
    nodes = list(topo.nodes())
    live, next_id = [], 0
    for _ in range(120):
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

    shared_options, shared_paths = {}, {}
    shared = [
        fill(
            *args,
            **dict(
                kwargs,
                option_cache=shared_options,
                path_cols_cache=shared_paths,
            ),
        )
        for args, kwargs in calls
    ]
    fresh = [
        fill(*args, **dict(kwargs, option_cache={}, path_cols_cache={}))
        for args, kwargs in calls
    ]
    # Detours were taken in many fills, so the shared caches were read
    # back across fills, not only filled.
    assert sum(1 for result in shared if result.switches) > 20
    assert _fills_digest(shared) == _fills_digest(fresh)


def _random_component(rng, space, prefix, num_links=6, num_flows=8):
    """Rows of *num_flows* flows over links ``(prefix, i)``: each row a
    random set of 1-3 of them, each demand inf or random."""
    rows, demands = [], []
    for _ in range(num_flows):
        links = rng.sample(range(num_links), rng.randint(1, 3))
        rows.append(np.array([space.index[prefix, link] for link in links]))
        demands.append(rng.choice([math.inf, mbps(rng.uniform(0.5, 20.0))]))
    return rows, demands


def test_union_of_disjoint_components_fills_within_verify_bar():
    """Filling two disjoint components together gives each flow its
    separate-fill rate within the verify bar (relative 1e-9), not bit
    for bit: the level's step sums run over both components.  That is
    why the union-find tracker's schedule is part of the output."""
    rng = random.Random(0)
    differ = 0
    for _ in range(200):
        capacities = {
            (prefix, link): mbps(rng.uniform(1.0, 20.0))
            for prefix in "ab"
            for link in range(6)
        }
        space = LinkSpace(capacities)
        parts = [_random_component(rng, space, prefix) for prefix in "ab"]
        separate = []
        for rows, demands in parts:
            lengths = [len(row) for row in rows]
            separate += _kernel.maxmin_fill(
                space, np.concatenate(rows), lengths, demands
            )
        rows = parts[0][0] + parts[1][0]
        demands = parts[0][1] + parts[1][1]
        union = _kernel.maxmin_fill(
            space, np.concatenate(rows), [len(row) for row in rows], demands
        )
        for got, want in zip(union, separate):
            assert abs(got - want) <= TOL * max(1.0, abs(want))
        differ += union != separate
    assert differ > 0


@pytest.mark.parametrize("num_flows", [1, 20, 200])
def test_inrp_fill_without_detours_is_maxmin_fill(num_flows):
    """With no replacement allowed, the INRP fill is progressive
    filling: ``inrp_fill(max_replacements=0)`` gives ``maxmin_fill``'s
    rates bit for bit on random sprint populations."""
    topo = build_isp_topology("sprint", seed=0)
    strategy = make_strategy("sp", topo)
    space = LinkSpace(topo.directed_capacities())
    rng = random.Random(num_flows)
    nodes = list(topo.nodes())
    paths, demands = [], []
    for flow in range(num_flows):
        source, destination = rng.sample(nodes, 2)
        paths.append(tuple(strategy.route(flow, source, destination)))
        demands.append(rng.choice([math.inf, mbps(50), mbps(5), 0.0]))
    cols = np.array(
        [space.index[link] for path in paths for link in path_links(path)]
    )
    lengths = [len(path) - 1 for path in paths]
    want = _kernel.maxmin_fill(space, cols, lengths, demands)
    got = _kernel.inrp_fill(
        space,
        list(range(num_flows)),
        paths,
        cols,
        lengths,
        demands,
        DetourTable(topo),
        max_replacements=0,
    )
    assert got.switches == 0
    assert [got.rates[flow].hex() for flow in range(num_flows)] == [
        rate.hex() for rate in want
    ]


@pytest.mark.parametrize("demand", [1e-10, 1e-9, 0.0])
def test_tiny_demand_gets_its_demand_in_every_solver(demand):
    """A flow with a path and a demand within ``_EPS`` of 0 never grows
    and gets its demand, under both sharing models and in both the
    scratch solver and the kernel; INRP at depth 0 is then SP bit for
    bit on such a population."""
    topo = mesh_topology(8, extra_links=4, seed=0, capacity=mbps(10))
    strategy = make_strategy("sp", topo)
    nodes = list(topo.nodes())
    paths = [
        tuple(strategy.route(0, nodes[0], nodes[-1])),
        tuple(strategy.route(1, nodes[1], nodes[-2])),
    ]
    demands = [demand, math.inf]
    capacities = topo.directed_capacities()
    space = LinkSpace(capacities)
    table = DetourTable(topo)
    cols = np.array(
        [space.index[link] for path in paths for link in path_links(path)]
    )
    lengths = [len(path) - 1 for path in paths]
    scratch_inrp = inrp_allocation(
        capacities, dict(enumerate(paths)), dict(enumerate(demands)), table
    )
    kernel_inrp = _kernel.inrp_fill(
        space, [0, 1], paths, cols, lengths, demands, table
    )
    scratch_maxmin = inrp_allocation(
        capacities, dict(enumerate(paths)), dict(enumerate(demands)), None
    )
    rates = {
        "inrp_allocation without a table": scratch_maxmin.rates[0],
        "maxmin_fill": _kernel.maxmin_fill(space, cols, lengths, demands)[0],
        "inrp_allocation": scratch_inrp.rates[0],
        "inrp_fill": kernel_inrp.rates[0],
    }
    assert rates == dict.fromkeys(rates, demand)
    assert scratch_inrp.freeze_reasons[0] == "demand"
    assert kernel_inrp.freeze_reasons[0] == "demand"

    flows = {flow: (path, demands[flow]) for flow, path in enumerate(paths)}
    sp = make_strategy("sp", topo).allocate(flows).rates
    depth0 = make_strategy("inrp", topo, detour_depth=0).allocate(flows).rates
    assert sp[0] == demand
    assert {flow: rate.hex() for flow, rate in depth0.items()} == {
        flow: rate.hex() for flow, rate in sp.items()
    }


@pytest.mark.parametrize("demand", [-1.0, math.nan])
def test_every_solver_rejects_a_nan_or_negative_demand(demand):
    """A NaN demand passes every ``demand < 0`` test, and a negative one
    once came back from ``maxmin_fill`` as a rate.  All five entry
    points raise :class:`SimulationError` for both, on a flow with a
    path and next to a flow with a legal demand; ``inf`` stays legal."""
    topo = mesh_topology(6, extra_links=3, seed=0, capacity=mbps(10))
    strategy = make_strategy("sp", topo)
    nodes = list(topo.nodes())
    paths = [
        tuple(strategy.route(0, nodes[0], nodes[-1])),
        tuple(strategy.route(1, nodes[1], nodes[-2])),
    ]
    demands = [math.inf, demand]
    capacities = topo.directed_capacities()
    space = LinkSpace(capacities)
    table = DetourTable(topo)
    cols = np.array(
        [space.index[link] for path in paths for link in path_links(path)],
        dtype=np.int64,
    )
    lengths = [len(path) - 1 for path in paths]
    solvers = {
        "maxmin_fill": lambda: _kernel.maxmin_fill(space, cols, lengths, demands),
        "inrp_fill": lambda: _kernel.inrp_fill(
            space, [0, 1], paths, cols, lengths, demands, table
        ),
        "inrp_allocation": lambda: inrp_allocation(
            capacities, dict(enumerate(paths)), dict(enumerate(demands)), table
        ),
        "IncrementalInrp.add_flow (budget 0)": lambda: IncrementalInrp(
            capacities, None, max_replacements=0
        ).add_flow(1, paths[1], demand),
        "IncrementalInrp.add_flow": lambda: IncrementalInrp(
            capacities, table
        ).add_flow(1, paths[1], demand),
    }
    for solver, call in solvers.items():
        with pytest.raises(SimulationError, match="a demand must be"):
            call()
            pytest.fail(f"{solver} accepted demand {demand!r}")
    assert _kernel.maxmin_fill(space, cols, lengths, [math.inf, math.inf])


def test_demand_frozen_rate_never_exceeds_the_demand_in_any_solver():
    """A flow frozen at its finite demand gets ``min(level, demand)``:
    on this random telstra SP population the level ends one ulp above
    one flow's demand (``0x1.962b3d7f02c41p+20`` bit/s).  The scratch
    solver with no detour table, ``maxmin_fill`` and ``inrp_fill``
    without replacements all hold every rate at or below its demand,
    and agree bit for bit.  In both INRP solvers, with and without
    detours, a flow that never switched carries exactly its rate on its
    one split, so its splits never sum above its demand."""
    topo = build_isp_topology("telstra", seed=0)
    strategy = make_strategy("sp", topo)
    nodes = list(topo.nodes())
    rng = random.Random(10)
    paths, demands = [], []
    for flow in range(rng.randint(1, 150)):
        if rng.random() < 0.05:
            paths.append((rng.choice(nodes),))
        else:
            source, destination = rng.sample(nodes, 2)
            paths.append(tuple(strategy.route(flow, source, destination)))
        demands.append(
            rng.choice(
                [math.inf, 0.0, 1e-12, mbps(10), mbps(rng.uniform(0.1, 20.0))]
            )
        )
    assert float.fromhex("0x1.962b3d7f02c41p+20") in demands
    flows = list(range(len(paths)))
    capacities = topo.directed_capacities()
    space = LinkSpace(capacities)
    table = DetourTable(topo)
    cols = np.array(
        [space.index[link] for path in paths for link in path_links(path)],
        dtype=np.int64,
    )
    lengths = [len(path) - 1 for path in paths]
    scratch = {
        budget: inrp_allocation(
            capacities,
            dict(zip(flows, paths)),
            dict(zip(flows, demands)),
            table if budget else None,
            max_replacements=budget,
        )
        for budget in (0, 2)
    }
    kernel = {
        budget: _kernel.inrp_fill(
            space,
            flows,
            paths,
            cols,
            lengths,
            demands,
            table,
            max_replacements=budget,
        )
        for budget in (0, 2)
    }
    rates = {
        "inrp_allocation": [scratch[0].rates[flow] for flow in flows],
        "maxmin_fill": _kernel.maxmin_fill(space, cols, lengths, demands),
        "inrp_fill": [kernel[0].rates[flow] for flow in flows],
    }
    for solver, got in rates.items():
        assert all(map(float.__le__, got, demands)), solver
        assert [rate.hex() for rate in got] == [
            rate.hex() for rate in rates["inrp_allocation"]
        ], solver
    for allocation in (*scratch.values(), *kernel.values()):
        for flow in flows:
            if not allocation.flow_switches[flow]:
                assert allocation.splits[flow] == [
                    (paths[flow], allocation.rates[flow])
                ], flow


def test_walk_resumes_past_its_option_within_one_round():
    """One flow splices twice in one walk: links ``a-b`` and ``b-c``
    saturate in the same round, the walk takes ``a-x-b`` around the
    first, and in the spliced path the second saturated link comes
    right after that option, where the resumed scan must find it and
    take ``b-y-c``.  A zero-demand flow crossing both links (and the
    earlier ``x-a``) and a flow whose source is its destination make
    the fill weigh its carrier counts, so the column index reads its
    bucket sizes from the separate entry count.  The kernel matches
    the scratch solver bit for bit."""
    topo = Topology()
    topo.add_link("x", "a", capacity=mbps(10))
    topo.add_link("a", "b", capacity=mbps(1))
    topo.add_link("b", "c", capacity=mbps(1))
    for u, v in (("x", "b"), ("b", "y"), ("y", "c")):
        topo.add_link(u, v, capacity=mbps(10))
    paths = [("x", "a", "b", "c"), ("a", "b", "c"), ("y",)]
    demands = [0.0, math.inf, mbps(3)]
    flows = [0, 1, 2]
    capacities = topo.directed_capacities()
    table = DetourTable(topo)
    space = LinkSpace(capacities)
    cols = np.array(
        [space.index[link] for path in paths for link in path_links(path)],
        dtype=np.int64,
    )
    kernel = _kernel.inrp_fill(
        space, flows, paths, cols, [len(path) - 1 for path in paths], demands, table
    )
    scratch = inrp_allocation(
        capacities, dict(zip(flows, paths)), dict(zip(flows, demands)), table
    )
    assert kernel.splits[1] == [
        (("a", "b", "c"), mbps(1)),
        (("a", "x", "b", "y", "c"), mbps(10)),
    ]
    assert kernel.flow_switches == {0: 0, 1: 1, 2: 0}
    assert kernel.rates == {0: 0.0, 1: mbps(11), 2: mbps(3)}
    assert _fills_digest([kernel]) == _fills_digest([scratch])


def test_inrp_splits_sum_to_each_rate():
    """A flow that never grows carries its rate on its primary split,
    as SP reports it: a tiny demand on a path, a flow whose source is
    its destination, and a zero demand (split 0.0), in ``allocate``
    and in the scratch solver."""
    mesh = mesh_topology(8, extra_links=4, seed=0, capacity=mbps(10))
    path = tuple(make_strategy("sp", mesh).route(0, 0, 7))
    flows = {0: (path, 1e-10), 1: ((2,), 5.0), 2: (path, 0.0)}
    scratch = inrp_allocation(
        mesh.directed_capacities(),
        {flow: path for flow, (path, _) in flows.items()},
        {flow: demand for flow, (_, demand) in flows.items()},
        DetourTable(mesh),
    )
    for outcome in (
        make_strategy("sp", mesh).allocate(flows),
        make_strategy("inrp", mesh).allocate(flows),
        scratch,
    ):
        assert outcome.rates == {0: 1e-10, 1: 5.0, 2: 0.0}
        assert outcome.splits == {
            flow: [(path, demand)] for flow, (path, demand) in flows.items()
        }


@pytest.mark.parametrize("strategy_name", ["sp", "inrp"])
@pytest.mark.parametrize("recompute_between", [False, True])
def test_readded_flow_is_reported_at_an_unchanged_rate(
    strategy_name, recompute_between
):
    """A flow id removed and added again is reported by the next
    ``recompute`` even though its rate comes out as before: the
    simulator and ``allocate`` set a flow's rate only from a report."""
    topo = mesh_topology(8, extra_links=4, seed=0, capacity=mbps(10))
    strategy = make_strategy(strategy_name, topo)
    path = tuple(strategy.route(0, 0, 7))
    alloc = strategy.incremental_allocator()
    alloc.add_flow(0, path, mbps(2))
    alloc.add_flow(1, path, mbps(2))
    first = alloc.recompute()[0]
    assert first == {0: mbps(2), 1: mbps(2)}
    alloc.remove_flow(0)
    if recompute_between:
        alloc.recompute()
    alloc.add_flow(0, path, mbps(2))
    again = alloc.recompute()[0]
    assert again[0] == mbps(2)
    if strategy_name == "sp":
        # Max-min reports only what moved: flow 1 kept its rate.
        assert again == {0: mbps(2)}


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


def _mesh_uniform_case():
    topo = mesh_topology(14, extra_links=10, seed=1, capacity=mbps(10))
    workload = FlowWorkload(
        topo,
        arrival_rate=120.0,
        mean_size_bits=2e6,
        demand_bps=mbps(10),
        seed=1,
        pair_sampler=uniform_pairs(topo, seed=2),
    )
    return topo, workload.generate(max_flows=40)


def _ebone_local_case():
    topo = build_isp_topology("ebone", seed=0)
    workload = FlowWorkload(
        topo,
        arrival_rate=800.0,
        mean_size_bits=2.5e6,
        demand_bps=mbps(10),
        seed=0,
        pair_sampler=local_pairs(topo, seed=1, max_hops=2),
    )
    return topo, workload.generate(max_flows=150)


@pytest.mark.parametrize(
    "build, strategy_name",
    [
        pytest.param(_mesh_uniform_case, "sp", id="sp"),
        pytest.param(_mesh_uniform_case, "ecmp", id="ecmp"),
        pytest.param(_mesh_uniform_case, "inrp", id="inrp"),
        pytest.param(_ebone_local_case, "inrp", id="inrp-ebone-local"),
    ],
)
def test_vectorized_core_verified_inside_simulator(build, strategy_name):
    """``verify_allocator=True`` cross-checks every recompute (each a
    CSR-kernel fill) against the scratch solver inside the simulator
    loop, and changes nothing else: the verified run's result is the
    unverified run's, bit for bit."""
    topo, specs = build()
    verified, plain = (
        FlowLevelSimulator(
            topo,
            make_strategy(strategy_name, topo),
            specs,
            verify_allocator=verify,
        ).run()
        for verify in (True, False)
    )
    assert verified.max_verify_deviation is not None
    assert verified.max_verify_deviation <= TOL
    assert plain.max_verify_deviation is None
    assert verified.records == plain.records
    assert verified.total_switches == plain.total_switches
    assert verified.allocations == plain.allocations
    assert verified.full_refills == plain.full_refills
    assert verified.network_throughput == plain.network_throughput
