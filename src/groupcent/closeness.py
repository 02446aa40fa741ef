"""Greedy and swap-based local-search minimization of group farness.

The start scan, bounded marginal value, lazy greedy and local search are
the shared ones of ``centrality``; what a vertex at distance d adds is -d.
Farness is kept as the raw integer sum of distances, so every bound,
threshold and acceptance test is exact arithmetic, and pruning never
changes a selection, only how much work is spent rejecting the losers.
This module adds the entry point ``farness_decrease``, the swap scan order
and the Fraction swap threshold (1 - eps/Q) * raw.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import floor as int_floor
from operator import neg

from .centrality import (best_singleton, farness_sum, lazy_greedy,
                         local_search, marginal_value)
from .graph import Graph, UNREACHABLE, is_connected
from .reporting import AlgoConfig, RunReport, solver_report


class DisconnectedGraphError(ValueError):
    """Closeness algorithms require a (strongly) connected graph."""


def add_estimate(state, v: int) -> float:
    """Scan priority for candidate v: far and high-fanout first.

    Pure heuristic, affects evaluation order only."""
    return float(state.dist_nearest[v] * (1 + state.graph.out_degree(v)))


def farness_decrease(g: Graph, dbase, v: int, suffix=None, stop_below=None,
                     record=None):
    """Raw-farness decrease from adding v to the group behind ``dbase``:
    ``marginal_value`` with c = -d, whose bound on unit weights is exact
    integer arithmetic. ``suffix`` is ``base_suffixes(dbase, neg)``; with
    ``stop_below=None`` the result is exact."""
    return marginal_value(g, dbase, v, neg, suffix, stop_below, record)


def _require_connected(g):
    if not is_connected(g):
        raise DisconnectedGraphError(
            "graph is not (strongly) connected; extract the largest component first")


def _closeness_report(g, algorithm, group, dist, cfg, t0, stats, swap_sequence=()):
    """Report of ``group``, whose distances are ``dist``."""
    members = sorted(group)
    raw = farness_sum(dist, set(members))
    return solver_report(g, algorithm, members, g.n / raw if raw else float("inf"),
                         raw, cfg, t0, stats, swap_sequence)


def _closeness_start_vertex(g, reach):
    """Vertex of least farness, the smallest id on ties; ``reach`` as in
    ``best_singleton``."""
    return best_singleton(g, neg, reach, 0)[0]


def _greedy_closeness_core(g, k):
    """Lazy greedy selection without the report. Returns (group, its
    distances, stats).

    Decreases are exact integers, so the queue needs no margin: a
    candidate's traversal aborts once it cannot beat the incumbent, which a
    smaller id wins at a tie and a larger one must strictly beat."""
    stats = {"evaluated": g.n, "pruned": 0, "iterations": k}
    # the solvers only run on (strongly) connected graphs: all reach all
    group, _, dist = lazy_greedy(g, k, _closeness_start_vertex(g, [g.n] * g.n),
                                 [UNREACHABLE] * g.n, neg, farness_decrease,
                                 stats, 0)
    return group, dist, stats


def greedy_closeness(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Plain greedy: each round adds the candidate whose inclusion shrinks
    raw farness the most. Within a round, a candidate's traversal aborts as
    soon as its decrease bound proves it cannot strictly beat the incumbent,
    which keeps ties resolving to the smallest id exactly as an unpruned
    argmin scan would. Rounds are lazy: every decrease or aborted bound
    computed in an earlier round stays a valid upper bound (farness
    decrease is submodular), so a round evaluates candidates in descending
    bound order and stops once no remaining bound can beat the incumbent."""
    cfg = cfg or AlgoConfig(k=k)
    _require_connected(g)
    if not 1 <= k < g.n:
        raise ValueError(f"k={k} out of range for n={g.n} (closeness needs k < n)")
    t0 = time.perf_counter()
    group, dist, stats = _greedy_closeness_core(g, k)
    return _closeness_report(g, "greedy-c", group, dist, cfg, t0, stats)


def _farness_term(d):
    """A vertex's term of -farness, which local search maximizes."""
    return 0 if d == UNREACHABLE else -d  # a group of no members counts 0


def local_search_closeness(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Single-swap local search started from the greedy group.

    ``local_search`` scans members by ascending removal cost; candidates
    go by descending add estimate, and degree-1 candidates are skipped on
    undirected unit-weight graphs, where the unique neighbor always does at
    least as well. The first swap whose exact new farness clears
    (1 - eps/(k(n-k))) * current commits, both loops restart, and the
    search stops when a full pass commits nothing. Removals and swaps are
    scored in integers by ``removal_cost`` and ``swap_rows``; the graph is
    strongly connected, so only k = 1 ever leaves a vertex uncovered, and
    the empty group counts 0."""
    cfg = cfg or AlgoConfig(k=k)
    _require_connected(g)
    if not 1 <= k < g.n:
        raise ValueError(f"k={k} out of range for n={g.n} (closeness needs k < n)")
    t0 = time.perf_counter()
    n = g.n
    group, _, stats = _greedy_closeness_core(g, k)
    stats["iterations"] = 0
    shrink = 1 - Fraction(str(cfg.eps)) / (k * (n - k))
    exclude_deg1 = g.unit_weights and not g.directed

    def plan(state, objective):
        candidates = sorted(
            (v for v in range(n) if v not in state.member_set
             and not (exclude_deg1 and g.out_degree(v) == 1)),
            key=lambda v: (-add_estimate(state, v), v))
        limit = int_floor(shrink * -objective)  # the new farness is an integer
        return candidates, lambda value: -value <= limit

    group, swaps, dist = local_search(g, group, _farness_term, plan, stats)
    return _closeness_report(g, "ls-c", group, dist, cfg, t0, stats,
                             swap_sequence=swaps)
