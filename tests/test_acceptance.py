"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and the reported desk-scale quality statistics.
"""

import random
import time
from fractions import Fraction

import pytest

from groupcent import centrality, checks, closeness, graph, harmonic
from groupcent.centrality import group_farness_raw, group_harmonic
from groupcent.checks import (DIRECTED_FLOOR, UNDIRECTED_FLOOR, bound_check,
                              closeness_sweep, harmonic_sweep,
                              submodularity_check)
from groupcent.generators import (directed_strongly_connected, path_graph,
                                  random_graph, undirected_connected)
from groupcent.graph import Graph
from groupcent.harmonic import greedy_harmonic, local_search_harmonic
from groupcent.closeness import greedy_closeness, local_search_closeness
from groupcent.oracles import exhaustive_best
from groupcent.reporting import AlgoConfig
from reference import (per_pair_closeness, per_pair_harmonic,
                       plain_greedy_closeness, plain_greedy_harmonic,
                       radius_milp)

FLOOR_SLACK = 1e-9


def _criterion(number, label, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {number:>2}: {label} {detail}".rstrip())
    assert passed, f"criterion {number} failed: {label} {detail}"


@pytest.fixture(scope="module")
def directed_sweep():
    t0 = time.perf_counter()
    rows = harmonic_sweep(directed=True)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def undirected_sweep():
    t0 = time.perf_counter()
    rows = harmonic_sweep(directed=False)
    return rows, time.perf_counter() - t0


@pytest.fixture(scope="module")
def swap_sweep():
    t0 = time.perf_counter()
    rows = closeness_sweep()
    return rows, time.perf_counter() - t0


def _floor_report(rows, floor_const):
    ratios = []
    worst_slack = float("inf")
    ok = True
    for row in rows:
        ratio = row["greedy"] / row["opt"] if row["opt"] > 0 else 1.0
        ratios.append(ratio)
        slack = ratio - row["lam"] * floor_const
        worst_slack = min(worst_slack, slack)
        if slack < -FLOOR_SLACK:
            ok = False
    return ok, ratios, worst_slack


def test_criterion_01_directed_greedy_floor(directed_sweep):
    rows, elapsed = directed_sweep
    ok, ratios, worst = _floor_report(rows, DIRECTED_FLOOR)
    mean = sum(ratios) / len(ratios)
    detail = (f"({len(rows)} instances, min slack {worst:.4f}, "
              f"mean ratio {mean:.4f}, sweep {elapsed:.1f}s)")
    assert len(rows) >= 300
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    _criterion(1, "directed greedy ratio above lambda*(1-2/e)", ok, detail)


def test_criterion_02_undirected_greedy_floor(undirected_sweep):
    rows, elapsed = undirected_sweep
    ok, ratios, worst = _floor_report(rows, UNDIRECTED_FLOOR)
    mean = sum(ratios) / len(ratios)
    detail = (f"({len(rows)} instances, min slack {worst:.4f}, "
              f"mean ratio {mean:.4f}, sweep {elapsed:.1f}s)")
    assert len(rows) >= 300
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    _criterion(2, "undirected greedy ratio above (lambda/2)*(1-1/e)", ok, detail)


def test_criterion_03_local_search_harmonic_dominance(directed_sweep,
                                                      undirected_sweep):
    dominated = True
    greedy_ratios = []
    ls_ratios = []
    for rows, _ in (directed_sweep, undirected_sweep):
        for row in rows:
            if row["ls"] < row["greedy"] - 1e-12:
                dominated = False
            if row["opt"] > 0:
                greedy_ratios.append(row["greedy"] / row["opt"])
                ls_ratios.append(row["ls"] / row["opt"])
    greedy_mean = sum(greedy_ratios) / len(greedy_ratios)
    ls_mean = sum(ls_ratios) / len(ls_ratios)
    ok = dominated and ls_mean >= greedy_mean - 1e-12
    detail = f"(ls mean {ls_mean:.4f} vs greedy mean {greedy_mean:.4f})"
    _criterion(3, "local search never below greedy, mean ratio at least as good",
               ok, detail)


def test_criterion_04_single_swap_closeness_ratio(swap_sweep):
    rows, elapsed = swap_sweep
    ok = True
    worst = 0.0
    for row in rows:
        ratio = row["ls_raw"] / row["opt_raw"]
        worst = max(worst, ratio)
        if row["ls_raw"] > 5 * row["opt_raw"]:
            ok = False
    detail = (f"({len(rows)} instances, worst farness ratio {worst:.3f}, "
              f"sweep {elapsed:.1f}s)")
    assert elapsed < 180.0, f"sweep took {elapsed:.1f}s"
    _criterion(4, "single-swap farness within 5x optimum at eps=0.001", ok, detail)


def test_criterion_05_weighted_path_golden_rationals():
    g = path_graph([2, 1, 1])
    raws = (group_farness_raw(g, [0]), group_farness_raw(g, [1]),
            group_farness_raw(g, [0, 1]))
    values_ok = raws == (9, 5, 3)
    late = Fraction(4, raws[2]) - Fraction(4, raws[0])
    early = Fraction(4, raws[1]) - Fraction(0)
    comparison_ok = late == Fraction(8, 9) and early == Fraction(4, 5) and late > early
    _criterion(5, "weighted 4-path raw farness 9/5/3 and 8/9 > 4/5 exactly",
               values_ok and comparison_ok, f"(raws {raws})")


def test_criterion_06_submodularity_sampling():
    outcome = submodularity_check(num_graphs=50, min_triples=1000)
    detail = f"({outcome.checked} triples, {len(outcome.violations)} violations)"
    _criterion(6, "harmonic diminishing returns, zero violations at 1e-9",
               outcome.passed, detail)


def test_criterion_07_bound_soundness(monkeypatch):
    outcome = bound_check(cases_per_regime=200)
    detail = (f"({outcome.checked} recorded bounds, "
              f"{len(outcome.violations)} violations)")

    # the suite covers the round-1 bounds of either objective, over the
    # empty group's base, and the weighted bounds over a group's base: an
    # unsound one must fail it (a farness lower bound one too high is an
    # upper bound on -farness one too low)
    def undershooting(objective, slack, base):
        def kernel(g, dist, v, c, suffix=None, stop_below=None, record=None):
            res = centrality.marginal_value(g, dist, v, c, suffix)
            if c is objective and record is not None and base(g, dist):
                record.append(res.value - slack)
            return res
        return kernel

    def empty(g, dist):
        return min(dist) == graph.UNREACHABLE

    def weighted(g, dist):
        return not g.unit_weights and min(dist) == 0

    # and the swap rows: a row off by one must fail it
    def off_by_one(state, c, table=None):
        row = centrality.swap_rows(state, c, table)

        def corrupted(v):
            common, entry = row(v)
            return common + 1, entry
        return corrupted

    # and a harmonic row off by far less, whose farness rows are right
    def harmonic_off(state, c, table=None):
        row = centrality.swap_rows(state, c, table)
        if c is not harmonic._harmonic_term:
            return row

        def corrupted(v):
            common, entry = row(v)
            return common + 1e-6, entry
        return corrupted

    # and the removal pass: one whose costs are off by one must fail it
    def off_by_one_pass(state, c):
        objective, cost = centrality.removal_cost(state, c)
        return objective, {u: x + 1 for u, x in cost.items()}

    # and the reach counts those round-1 bounds rest on
    def understated(g):
        return [r - 1 for r in graph.reachable_counts(g)]

    # and greedy's first bounds: one without the out-degree term,
    # (r - 1) c(2), must fail it
    def loose_first_bounds(g, k, objective, stats):
        group, gains, dist, _ = centrality.greedy(g, k, objective, stats)
        c2 = objective.c(2)
        return group, gains, dist, [(r - 1) * c2
                                    for r in graph.reachable_counts(g)]

    # and the harmonic gain bounds: one below the exact gain must fail it
    def undershooting_gain(g, dist, v, suffix=None, stop_below=None, record=None):
        res = centrality.marginal_value(g, dist, v, harmonic._harmonic_term)
        if record is not None:
            record.append(res.value - 0.5)
        return res

    monkeypatch.setattr(checks, "marginal_value",
                        undershooting(harmonic._harmonic_term, 0.5, empty))
    harmonic_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(checks, "marginal_value",
                        undershooting(closeness._farness_term, 1, empty))
    farness_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(closeness, "marginal_value",
                        undershooting(closeness._farness_term, 1, weighted))
    weighted_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(checks, "swap_rows", off_by_one)
    rows_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(checks, "swap_rows", harmonic_off)
    harmonic_rows_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(checks, "removal_cost", off_by_one_pass)
    pass_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(checks, "reachable_counts", understated)
    reach_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(checks, "greedy", loose_first_bounds)
    first_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()
    monkeypatch.setattr(harmonic, "pruned_marginal_gain", undershooting_gain)
    gain_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()

    # and the values from the ball table: one off by one must fail it
    def off_by_one_table(g, dist, v, c, suffix=None, stop_below=None,
                         record=None):
        res = centrality.marginal_value(g, dist, v, c, suffix, stop_below,
                                        record)
        if isinstance(suffix, centrality.BallSuffix):
            return res._replace(value=res.value + 1)
        return res

    monkeypatch.setattr(checks, "marginal_value", off_by_one_table)
    table_gated = not bound_check(cases_per_regime=5).passed
    monkeypatch.undo()

    # and the state: one that gives a vertex tied between members the
    # largest of them must fail it (the removal pass and rows cannot tell)
    def largest_id_ties(g, group):
        state = centrality.state_init(g, group)
        tables = [(graph.sssp(g, u), u) for u in state.members]
        for x, (a, b) in enumerate(zip(state.dist_nearest, state.dist_second)):
            if a == b != graph.UNREACHABLE:
                state.nearest_member[x] = max(u for t, u in tables if t[x] == a)
        return state

    monkeypatch.setattr(checks, "state_init", largest_id_ties)
    state_gated = not bound_check(cases_per_regime=5).passed
    _criterion(7, "pruning bounds (farness decrease, weighted decrease, "
               "harmonic gain, harmonic start, singleton farness, reach "
               "counts, greedy's first bounds), the ball-table values, the "
               "nearest/second-nearest state, the removal pass and swap "
               "rows of both objectives are sound and gated",
               outcome.passed and harmonic_gated and farness_gated
               and weighted_gated and rows_gated and harmonic_rows_gated
               and pass_gated and reach_gated and first_gated and gain_gated
               and table_gated and state_gated, detail)


def test_criterion_08_pruning_transparency():
    rng = random.Random(800)
    greedy_ok = True
    for trial in range(100):
        weights = (1,) if trial % 2 else (1, 2)
        g = random_graph(rng.randrange(10, 41), rng,
                         directed=bool(trial % 3 == 0), weights=weights)
        k = rng.randrange(2, 6)
        cfg = AlgoConfig(k=k)
        if greedy_harmonic(g, k, cfg).group != plain_greedy_harmonic(g, k):
            greedy_ok = False
            break
    lazy_c_ok = True
    rng = random.Random(802)
    for trial in range(100):
        weights = (1,) if trial % 2 else (1, 2)
        n = rng.randrange(8, 31)
        g = (directed_strongly_connected(n, rng, weights=weights) if trial % 3 == 0
             else undirected_connected(n, rng, weights=weights))
        k = rng.randrange(2, 6)
        if greedy_closeness(g, k, AlgoConfig(k=k)).group != plain_greedy_closeness(g, k):
            lazy_c_ok = False
            break
    swaps_ok = True
    done = 0
    rng = random.Random(801)
    while done < 50:
        directed = bool(done % 3 == 0)
        weights = (1,) if done % 2 else (1, 2)
        n = rng.randrange(8, 16)
        g = (directed_strongly_connected(n, rng, weights=weights) if directed
             else undirected_connected(n, rng, weights=weights))
        k = rng.randrange(1, 4)
        if k >= g.n:
            continue
        cfg = AlgoConfig(k=k)
        rows = local_search_closeness(g, k, cfg)
        group, swaps = per_pair_closeness(g, k, cfg.eps)
        if rows.swap_sequence != swaps or rows.group != group:
            swaps_ok = False
            break
        done += 1
    rng = random.Random(803)
    for trial in range(50):
        weights = (1,) if trial % 2 else (1, 2)
        g = random_graph(rng.randrange(8, 16), rng, directed=bool(trial % 3 == 0),
                         weights=weights)
        k = rng.randrange(1, 4)
        cfg = AlgoConfig(k=k)
        rows = local_search_harmonic(g, k, cfg)
        group, swaps = per_pair_harmonic(g, k, cfg.eps)
        if rows.swap_sequence != swaps or rows.group != group:
            swaps_ok = False
            break
    _criterion(8, "pruned greedy selects what unpruned greedy selects, and swap "
               "rows commit the swaps of per-pair scans", greedy_ok and lazy_c_ok
               and swaps_ok, "(100 greedy-h graphs, 100 greedy-c graphs, "
               "50 ls-c and 50 ls-h swap instances)")


def test_criterion_09_ilp_self_check():
    # the radius MILP's optimum is the exhaustive one: the same raw
    # farness, and the same harmonic value up to float rounding
    pytest.importorskip("scipy.optimize")
    rng = random.Random(900)
    ok = True
    worst = 0.0
    for trial in range(30):
        directed = bool(trial % 3 == 0)
        weights = (1, 2) if trial % 2 else (1,)
        n = rng.randrange(5, 9)
        g = (directed_strongly_connected(n, rng, weights=weights) if directed
             else undirected_connected(n, rng, weights=weights))
        k = rng.randrange(1, 4)
        opt = exhaustive_best(g, k, "harmonic").objective_value
        err = abs(radius_milp(g, k, harmonic._harmonic_term)[1] - opt)
        worst = max(worst, err / max(1.0, opt))
        raw = exhaustive_best(g, k, "closeness").raw_farness
        if worst > 1e-9 or radius_milp(g, k, closeness._farness_term)[1] != -raw:
            ok = False
    _criterion(9, "MILP optimum equals the exhaustive optimum, both objectives",
               ok, f"(30 instances, worst harmonic relative error {worst:.2e})")


def test_criterion_10_non_monotonicity_regression():
    g = Graph(2, [(0, 1, 1)])
    one = group_harmonic(g, [0]).value
    zero = group_harmonic(g, [0, 1]).value
    _criterion(10, "single edge: value 1 for one endpoint, 0 for both",
               one == 1.0 and zero == 0.0, f"(got {one}, {zero})")
