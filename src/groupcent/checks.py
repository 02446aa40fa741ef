"""Property-check suites runnable from the CLI and reused by the test suite.

Three families: diminishing-returns sampling for the harmonic objective,
instrumented soundness checks run alike for each ``oracles.OBJECTIVES``
record (marginal-value bounds and greedy's first bounds never undershoot;
marginal values, from a traversal, the unit-weight ball table or the ball
sweep, swap rows and the removal pass match a from-scratch recomputation)
and for local search's nearest/second-nearest state, and
greedy/local-search quality floors against the exhaustive oracle on small
sweeps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .centrality import (ball_suffix, base_suffixes, greedy, group_harmonic,
                         marginal_value, removal_cost, state_init,
                         swap_rows, sweep_values, unit_table)
from .closeness import local_search_closeness
from .generators import (directed_strongly_connected, layered_dag,
                         mixed_regime_graphs, undirected_connected)
from .graph import (UNREACHABLE, is_connected, multi_source_sssp,
                    reachable_counts, sssp)
from .harmonic import greedy_harmonic, local_search_harmonic
from .oracles import OBJECTIVES, exhaustive_best, outside_sum
from .reporting import AlgoConfig

DIRECTED_FLOOR = 1 - 2 / math.e
UNDIRECTED_FLOOR = (1 - 1 / math.e) / 2
FLOOR_SLACK = 1e-9
ROUNDING = 1e-12  # relative slack: bounds and values sum floats in different orders


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    checked: int
    violations: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{status} {self.name}: {self.checked} checks, {len(self.violations)} violations"
        return line


def submodularity_check(num_graphs: int = 50, min_triples: int = 1000,
                        seed: int = 1, graphs=None) -> CheckOutcome:
    """Diminishing returns of the harmonic objective: adding a vertex to a
    subset gains at least as much as adding it to a superset. Given graphs
    with fewer than 3 vertices are skipped."""
    rng = random.Random(seed)
    out = CheckOutcome(name="submodularity", passed=True, checked=0)
    if graphs is not None:
        graphs = [g for g in graphs if g.n >= 3]
        if not graphs:
            out.notes.append("no given graph has 3 or more vertices; "
                             "checked on generated graphs")
            graphs = None
    if graphs is None:
        graphs = mixed_regime_graphs(num_graphs, seed=seed + 1)
    per_graph = max(1, -(-min_triples // len(graphs)))
    for g in graphs:
        n = g.n
        for _ in range(per_graph):
            size_t = rng.randrange(1, min(n - 1, 6))
            t_set = sorted(rng.sample(range(n), size_t))
            size_s = rng.randrange(1, size_t + 1)
            s_set = sorted(rng.sample(t_set, size_s))
            v = rng.choice([x for x in range(n) if x not in t_set])
            gh_s = group_harmonic(g, s_set).value
            gh_sv = group_harmonic(g, s_set + [v]).value
            gh_t = group_harmonic(g, t_set).value
            gh_tv = group_harmonic(g, t_set + [v]).value
            out.checked += 1
            if (gh_sv - gh_s) < (gh_tv - gh_t) - 1e-9:
                out.passed = False
                out.violations.append(
                    f"S={s_set} T={t_set} v={v}: {gh_sv - gh_s} < {gh_tv - gh_t} "
                    f"on edges {g.edges()}")
    return out


def bound_check(cases_per_regime: int = 200, seed: int = 2,
                graphs=None) -> CheckOutcome:
    """Each case draws a group S, a member u and an outside vertex v. For
    every record of ``oracles.OBJECTIVES``, what the solvers compute must
    match the objective recomputed by ``oracles.outside_sum`` over a
    from-scratch ``multi_source_sssp``: exactly for closeness's integer
    -farness, and up to the relative ``ROUNDING`` for harmonic's floats
    (the records with a nonzero ``margin``). v's marginal value over the
    base of S - u, from the record's ``gain``, and from the ball table on
    unit weights or the ball sweep otherwise, must match the recomputed
    one, and every bound the gain's traversal checks must be at least it;
    v's swap row, from a traversal and on unit weights from the ball table,
    must give the objective of S - u + v, and the removal pass those of S
    and of S - u. The group's nearest/second-nearest state must match one
    ``sssp`` per member. For v in greedy's first round, greedy's first
    bound and every bound of v's traversal over the empty group's base must
    be at least v's singleton value, and that traversal's value, the
    table's value and swap row on unit weights and the sweep's value
    otherwise, must match it; so must those of a vertex of a generated DAG,
    where no vertex reaches all. Given graphs that are not (strongly)
    connected or have fewer than 3 vertices are skipped."""
    out = CheckOutcome(name="bounds", passed=True, checked=0)
    rng = random.Random(seed)
    dag_rng = random.Random(seed + 1)
    if graphs is not None:
        graphs = [g for g in graphs if g.n >= 3 and is_connected(g)]
        if not graphs:
            out.notes.append("no given graph is (strongly) connected with 3 or "
                             "more vertices; bounds checked on generated graphs")
            graphs = None
    # weights 5 and 10 put arcs several levels ahead of the one they leave
    for weights in ((1,), (1, 2, 3), (1, 5, 10)):
        done = 0
        while done < cases_per_regime:
            if graphs is not None:
                g = graphs[done % len(graphs)]
            else:
                directed = bool(rng.randrange(2))
                g = (directed_strongly_connected(rng.randrange(6, 14), rng, weights=weights)
                     if directed else
                     undirected_connected(rng.randrange(6, 14), rng, weights=weights))
            k = rng.randrange(2, min(4, g.n))
            group = sorted(rng.sample(range(g.n), k))
            state = state_init(g, group)
            _state_lists(state, out)
            u = rng.choice(group)  # connected: the others still cover every vertex
            v = rng.choice([x for x in range(g.n) if x not in group])
            done += 1
            table = unit_table(g)
            for name, objective in OBJECTIVES.items():
                _swap_case(state, u, v, table, name, objective, out)
            _singleton_bounds(g, v, out)
            if graphs is None:
                dag = layered_dag(dag_rng, dag_rng.randrange(2, 5),
                                  dag_rng.randrange(2, 5), weights=weights)
                _singleton_bounds(dag, dag_rng.randrange(dag.n), out)
    return out


def _expect(out, objective, values, bounds, exact, where):
    """Each (what, got, want) of ``values`` must have got equal to want,
    and each of ``bounds`` must be at least ``exact``: exactly for a record
    of ``margin`` 0, else up to the relative ``ROUNDING``. A NaN fails."""
    slack = ROUNDING if objective.margin else 0
    out.checked += len(values) + len(bounds)
    for what, got, want in values:
        if not abs(got - want) <= slack * max(1.0, abs(want)):
            out.passed = False
            out.violations.append(f"{where}: {what} {got} != oracle {want}")
    for b in bounds:
        if not b >= exact - slack * max(1.0, abs(exact)):
            out.passed = False
            out.violations.append(f"{where}: bound {b} < exact {exact}")


def _state_lists(state, out):
    """The state's three lists against one ``sssp`` per member: at every
    vertex the nearest distance, the nearest member (the smallest id at
    that distance, -1 when none reaches it) and the smallest distance from
    the other members."""
    g = state.graph
    tables = [(u, sssp(g, u)) for u in state.members]
    lists = state.dist_nearest, state.nearest_member, state.dist_second
    out.checked += len(lists)
    for x in range(g.n):
        d, u = min((t[x], u) for u, t in tables)
        if d == UNREACHABLE:
            u = -1
        second = min((t[x] for m, t in tables if m != u), default=UNREACHABLE)
        got = tuple(a[x] for a in lists)
        if got != (d, u, second):
            out.passed = False
            out.violations.append(
                f"state (nearest, member, second) {got} != oracle "
                f"{(d, u, second)} at x={x} S={list(state.members)} "
                f"edges={g.edges()}")


def _swap_case(state, u, v, table, name, objective, out):
    """One case for one objective: v's marginal value over the base of S -
    u, from ``objective.gain``, whose bounds are recorded, and from
    ``table``, or from the ball sweep where it is None; v's swap row for
    (u, v), from a traversal and from ``table``; and the removal pass."""
    g, c, members = state.graph, objective.c, state.members
    without_u = [m for m in members if m != u]
    dbase = multi_source_sssp(g, without_u)
    before = outside_sum(c, dbase, without_u)
    after, whole = (outside_sum(c, multi_source_sssp(g, s), s)
                    for s in (without_u + [v], members))
    gain = after - before
    rec = []
    common, entry = swap_rows(state, c)(v)
    value, cost = removal_cost(state, c)
    values = [("gain", objective.gain(g, dbase, v, None, None, rec).value, gain),
              ("swap row", before + common + entry.get(u, 0), after),
              ("removal pass", value, whole),
              ("removal pass without u", value - cost[u], before)]
    if table:
        common, entry = swap_rows(state, c, table)(v)
        values += [("table value", marginal_value(
                        g, dbase, v, c, ball_suffix(table, without_u, c)).value,
                    gain),
                   ("table swap row", before + common + entry.get(u, 0), after)]
    else:
        values += _swept(g, dbase, v, c, "sweep value", gain)
    _expect(out, objective, values, rec, gain,
            f"{name} u={u} v={v} S={list(members)} edges={g.edges()}")


def _singleton_bounds(g, v, out):
    """Vertex v in greedy's first round, against its singleton value of
    each objective, recomputed as in ``_swap_case``. v's traversal over the
    empty group's base, with v's reach count as the suffix, must give that
    value, as must the ball table on unit weights, both as a marginal value
    and as the table swap row of v for the next vertex u of the group {u},
    where every second distance is UNREACHABLE, and the ball sweep
    otherwise; every bound the traversal checks must be at least it, as
    must greedy's first bound for v."""
    reach = reachable_counts(g)
    nowhere = [UNREACHABLE] * g.n
    table = unit_table(g)
    u = (v + 1) % g.n
    for name, objective in OBJECTIVES.items():
        c = objective.c
        exact = outside_sum(c, sssp(g, v), (v,))
        bases, _, total, cdist = base_suffixes(nowhere, c)
        rec = []
        values = [("singleton", marginal_value(
            g, nowhere, v, c, (bases, [reach[v]], total, cdist),
            record=rec).value, exact)]
        rec.append(greedy(g, 0, objective, {})[3][v])
        if table:
            common, entry = swap_rows(state_init(g, (u,)), c, table)(v)
            values += [("singleton table value", marginal_value(
                            g, nowhere, v, c, ball_suffix(table, (), c)).value,
                        exact),
                       ("singleton table swap row", common + entry.get(u, 0),
                        exact)]
        else:
            values += _swept(g, nowhere, v, c, "singleton sweep value", exact)
        _expect(out, objective, values, rec, exact,
                f"{name} v={v} edges={g.edges()}")


def _swept(g, dist, v, c, what, want):
    """v's value from ``sweep_values`` over ``dist``, as a (what, got,
    want) of ``_expect``; none where the sweep is over its budget."""
    swept = sweep_values(g, dist, c)
    return [] if swept is None else [(what, swept[0][v], want)]


def harmonic_sweep(directed: bool, graphs_per_n: int = 24, ns=(5, 6, 7, 8, 9),
                   ks=(1, 2, 3), weights=(1, 2), seed: int = 3):
    """Greedy and local search vs the exhaustive optimum on a deterministic
    family of connected instances. One row per (graph, k)."""
    rows = []
    base_seed = seed + (1000 if directed else 0)
    for n in ns:
        for s in range(graphs_per_n):
            rng = random.Random(base_seed * 100003 + n * 1009 + s)
            g = (directed_strongly_connected(n, rng, weights=weights) if directed
                 else undirected_connected(n, rng, weights=weights))
            for k in ks:
                if k > g.n:
                    continue
                cfg = AlgoConfig(k=k)
                opt = exhaustive_best(g, k, "harmonic").objective_value
                greedy = greedy_harmonic(g, k, cfg)
                rows.append({
                    "n": n, "seed": s, "k": k, "lam": g.lambda_ratio,
                    "opt": opt, "greedy": greedy.objective_value,
                    "ls": local_search_harmonic(g, k, cfg).objective_value,
                    "round_gains": greedy.round_gains, "graph": g,
                })
    return rows


def closeness_sweep(graphs_per_n: int = 20, ns=(5, 6, 7, 8, 9), ks=(1, 2, 3),
                    weights=(1, 2), eps: float = 0.001, seed: int = 4):
    """Single-swap local search vs the exhaustive optimum on connected
    instances, alternating directed and undirected."""
    rows = []
    for n in ns:
        for s in range(graphs_per_n):
            rng = random.Random(seed * 99991 + n * 613 + s)
            directed = bool(s % 2)
            g = (directed_strongly_connected(n, rng, weights=weights) if directed
                 else undirected_connected(n, rng, weights=weights))
            for k in ks:
                if k >= g.n:
                    continue
                cfg = AlgoConfig(k=k, eps=eps)
                opt = exhaustive_best(g, k, "closeness").raw_farness
                ls = local_search_closeness(g, k, cfg)
                rows.append({
                    "n": n, "seed": s, "k": k, "directed": directed,
                    "opt_raw": opt, "ls_raw": ls.raw_farness, "graph": g,
                })
    return rows


def oracle_check(graphs_per_n: int = 4, seed: int = 5) -> CheckOutcome:
    """Reduced-size quality floors: Greedy vs the exhaustive optimum above
    the proven ratio, local search never below greedy, single-swap farness
    within 5x of optimum."""
    out = CheckOutcome(name="oracle", passed=True, checked=0)
    for directed in (True, False):
        floor_const = DIRECTED_FLOOR if directed else UNDIRECTED_FLOOR
        rows = harmonic_sweep(directed, graphs_per_n=graphs_per_n,
                              ns=(5, 7, 9), seed=seed)
        ratios = []
        for row in rows:
            out.checked += 1
            ratio = row["greedy"] / row["opt"] if row["opt"] > 0 else 1.0
            ratios.append(ratio)
            floor = row["lam"] * floor_const
            if ratio < floor - FLOOR_SLACK:
                out.passed = False
                out.violations.append(
                    f"greedy ratio {ratio:.6f} below floor {floor:.6f} on "
                    f"n={row['n']} seed={row['seed']} k={row['k']}")
            if row["ls"] < row["greedy"] - 1e-9:
                out.passed = False
                out.violations.append(
                    f"local search {row['ls']} below greedy {row['greedy']} on "
                    f"n={row['n']} seed={row['seed']} k={row['k']}")
        label = "directed" if directed else "undirected"
        out.notes.append(f"{label} greedy/opt mean ratio "
                         f"{sum(ratios) / len(ratios):.4f} over {len(ratios)} instances")
    for row in closeness_sweep(graphs_per_n=2, ns=(5, 7, 9), seed=seed + 1):
        out.checked += 1
        if row["ls_raw"] > 5 * row["opt_raw"]:
            out.passed = False
            out.violations.append(
                f"swap search farness {row['ls_raw']} exceeds 5x optimum "
                f"{row['opt_raw']} on n={row['n']} seed={row['seed']} k={row['k']}")
    return out


ALL_SUITES = {
    "submodularity": submodularity_check,
    "bounds": bound_check,
    "oracle": oracle_check,
}
