"""Greedy and swap-based local-search minimization of group farness.

The start scan, lazy greedy and local search are the shared ones of
``centrality``; what a vertex at distance d adds is -d. Farness is kept as
the raw integer sum of distances, so every bound, threshold and acceptance
test is exact arithmetic, and pruning never changes a selection, only how
much work is spent rejecting the losers. This module adds the farness
decrease of a greedy addition, whose BFS over the group's distances stops
on an integer upper bound on unit weights and which on weighted graphs is
the shared exact ``marginal_value``, and the Fraction swap threshold
(1 - eps/Q) * raw.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from fractions import Fraction
from math import floor as int_floor
from operator import neg
from typing import NamedTuple

from .centrality import (best_singleton, group_farness_raw, lazy_greedy,
                         local_search, marginal_value, removal_cost)
from .graph import Graph, UNREACHABLE, closer_levels, is_connected
from .reporting import AlgoConfig, RunReport, solver_report


class DisconnectedGraphError(ValueError):
    """Closeness algorithms require a (strongly) connected graph."""


class SwapCandidate(NamedTuple):
    remove_vertex: int
    add_vertex: int
    removal_cost: int


class DecreaseResult(NamedTuple):
    is_exact: bool
    value: int  # exact farness decrease, or a still-valid upper bound


class LevelBuckets:
    """Suffix count/sum queries over a snapshot of base distances.

    Kept sorted by (distance, vertex id); members sit at distance 0 and
    never enter the suffixes the bounds query.
    """

    __slots__ = ("pairs", "_dists", "_suffix_sum")

    def __init__(self, pairs):
        self.pairs = pairs
        self._dists = [d for d, _ in pairs]
        total = 0
        suffix = [0] * (len(pairs) + 1)
        for i in range(len(pairs) - 1, -1, -1):
            total += self._dists[i]
            suffix[i] = total
        self._suffix_sum = suffix

    @classmethod
    def from_distances(cls, dists):
        pairs = sorted((d, x) for x, d in enumerate(dists))
        if pairs and pairs[-1][0] == UNREACHABLE:
            raise ValueError("unreachable vertex in farness context")
        return cls(pairs)

    def count_ge(self, t: int) -> int:
        return len(self.pairs) - bisect_left(self._dists, t)

    def sum_ge(self, t: int) -> int:
        return self._suffix_sum[bisect_left(self._dists, t)]


def add_estimate(state, v: int) -> float:
    """Scan priority for candidate v: far and high-fanout first.

    Pure heuristic, affects evaluation order only."""
    return float(state.dist_nearest[v] * (1 + state.graph.out_degree(v)))


def farness_decrease(g: Graph, dbase, buckets: LevelBuckets, v: int,
                     stop_below=None, record=None) -> DecreaseResult:
    """Raw-farness decrease from adding v to the group behind ``dbase``.

    On unit weights the traversal aborts (returning the current upper
    bound) as soon as the bound drops below ``stop_below``; with
    ``stop_below=None`` the result is exact. ``record`` collects every
    bound checked. The bound is checked after counting each BFS level d: at
    most the level's fan-out of the uncounted vertices with base distance
    d+2 or more move to d+1, and every other uncounted vertex is at least
    d+2 away. The counted vertices are kept as counts per base distance:
    past level 0, a vertex at level d' has base distance d'+1 or more, so
    once level d is counted, those at d+1 or less are final and the rest
    are the running totals minus them.

    Weighted graphs return the exact decrease and check no bound: a
    settle-by-settle bound cost more than the evaluations it saved.
    """
    if not g.unit_weights:
        return DecreaseResult(True, marginal_value(g, dbase, v, neg))
    dec = 0
    adj = g.adj
    back = 0 if g.directed else 1  # undirected: one arc leads to the parent
    at = {}           # counted vertices per base distance
    cnt = total = 0   # all counted: count, sum of base distances
    lcnt = lsum = 0   # counted at base distance d+1 or less
    for d, level in closer_levels(g, dbase, v):
        fanout = 0
        for x in level:
            dx = dbase[x]
            dec += dx - d
            at[dx] = at.get(dx, 0) + 1
            total += dx
            fanout += len(adj[x])
        cnt += len(level)
        if d:
            fanout -= back * len(level)
        else:
            lcnt = at.get(0, 0)  # v itself, when it is a member
        m = at.get(d + 1, 0)
        lcnt += m
        lsum += (d + 1) * m
        ecnt2 = cnt - lcnt
        avail_next = buckets.count_ge(d + 2) - ecnt2
        promoted = fanout if fanout < avail_next else avail_next
        m = at.get(d + 2, 0)
        ucnt3 = buckets.count_ge(d + 3) - (ecnt2 - m)
        usum3 = buckets.sum_ge(d + 3) - (total - lsum - (d + 2) * m)
        # every vertex promoted to the next level is worth exactly one
        # more than its parked value, so only the promoted count matters
        bound = dec + promoted + (usum3 - (d + 2) * ucnt3)
        if record is not None:
            record.append(bound)
        if stop_below is not None and bound < stop_below:
            return DecreaseResult(False, bound)
    return DecreaseResult(True, dec)


def _require_connected(g):
    if not is_connected(g):
        raise DisconnectedGraphError(
            "graph is not (strongly) connected; extract the largest component first")


def _closeness_report(g, algorithm, group, cfg, t0, stats, swap_sequence=()):
    members = sorted(group)
    raw = group_farness_raw(g, members)
    return solver_report(g, algorithm, members, g.n / raw if raw else float("inf"),
                         raw, cfg, t0, stats, swap_sequence)


def _closeness_start_vertex(g, reach):
    """Vertex of least farness, the smallest id on ties; ``reach`` as in
    ``best_singleton``."""
    return best_singleton(g, neg, reach, 0)[0]


def _greedy_closeness_core(g, k):
    """Lazy greedy selection without the report. Returns (group, stats).

    Decreases are exact integers, so the queue needs no margin: a
    candidate's traversal aborts once it cannot beat the incumbent, which a
    smaller id wins at a tie and a larger one must strictly beat."""
    stats = {"evaluated": g.n, "pruned": 0, "iterations": k}

    def kernel(dbase):
        buckets = LevelBuckets.from_distances(dbase)
        return lambda v, best, best_v: farness_decrease(
            g, dbase, buckets, v, best + (v > best_v))

    # the solvers only run on (strongly) connected graphs: all reach all
    group, _ = lazy_greedy(g, k, _closeness_start_vertex(g, [g.n] * g.n),
                           [UNREACHABLE] * g.n, kernel, stats, 0)
    return group, stats


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
    group, stats = _greedy_closeness_core(g, k)
    return _closeness_report(g, "greedy-c", group, cfg, t0, stats)


def _farness_term(d):
    """A vertex's term of -farness, which local search maximizes."""
    return 0 if d == UNREACHABLE else -d  # a group of no members counts 0


def local_search_closeness(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Single-swap local search started from the greedy group.

    Members are scanned by ascending removal cost, candidates by descending
    add estimate; degree-1 candidates are skipped on undirected unit-weight
    graphs, where the unique neighbor always does at least as well. The
    first swap whose exact new farness clears (1 - eps/(k(n-k))) * current
    commits, both loops restart, and the search stops when a full pass
    commits nothing. Swaps are scored in integers by ``swap_rows``."""
    cfg = cfg or AlgoConfig(k=k)
    _require_connected(g)
    if not 1 <= k < g.n:
        raise ValueError(f"k={k} out of range for n={g.n} (closeness needs k < n)")
    t0 = time.perf_counter()
    n = g.n
    group, stats = _greedy_closeness_core(g, k)
    stats["iterations"] = 0
    shrink = 1 - Fraction(str(cfg.eps)) / (k * (n - k))
    exclude_deg1 = g.unit_weights and not g.directed
    costs = []  # every member's removal cost, one dict per pass

    def plan(state):
        raw = state.raw_farness
        # strongly connected: with k > 1, no removal leaves a vertex uncovered
        cost = {u: removal_cost(state, u) if k > 1 else 0 for u in state.members}
        costs.append(cost)
        members = [(u, -(raw + cost[u]) if k > 1 else 0)
                   for u in sorted(cost, key=lambda u: (cost[u], u))]
        candidates = sorted(
            (v for v in range(n) if v not in state.member_set
             and not (exclude_deg1 and g.out_degree(v) == 1)),
            key=lambda v: (-add_estimate(state, v), v))
        limit = int_floor(shrink * raw)  # the new farness is an integer
        return members, candidates, lambda u, v, value: -value <= limit

    group, pairs = local_search(g, group, _farness_term, plan, stats)
    swaps = [SwapCandidate(u, v, cost[u]) for (u, v), cost in zip(pairs, costs)]
    return _closeness_report(g, "ls-c", group, cfg, t0, stats, swap_sequence=swaps)
