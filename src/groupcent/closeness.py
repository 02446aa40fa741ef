"""Greedy and swap-based local-search minimization of group farness.

Farness is kept as the raw integer sum of distances, so every bound,
threshold, and acceptance test below is exact arithmetic: swap acceptance
compares integers against a Fraction threshold (1 - eps/Q) * raw, and the
pruning certificates are integer bounds on the farness (decrease) a
candidate can deliver. Pruning therefore never changes a selection, only
how much work is spent rejecting the losers.

Greedy starts from the vertex of least farness, found by a degree-ordered
scan whose traversals stop on an integer lower bound, and keeps every
decrease (or aborted upper bound) as a lazy bound for its later rounds.

Every traversal is one of the closer-than-base traversals of ``graph``:
``closer_levels`` (BFS) for unit weights, ``closer_settled`` (Dijkstra)
otherwise. For a greedy addition the base is the group; for the start scan
it is all UNREACHABLE. Unit weights check the bound after counting each
BFS level d, promoting at most the level's fan-out of uncounted vertices to
d+1 and parking the rest at d+2. Weighted traversals check it before
counting each settled vertex: every uncounted vertex is at least that
vertex's distance d away.

Local search shares ``centrality.local_search`` with harmonic.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import floor as int_floor
from typing import NamedTuple

from .centrality import group_farness_raw, local_search, removal_cost
from .graph import (Graph, UNREACHABLE, closer_levels, closer_settled,
                    is_connected, multi_source_sssp)
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


class _SuffixTracker:
    """Count/sum of recorded values at or above a nondecreasing threshold."""

    __slots__ = ("_heap", "cnt", "total")

    def __init__(self):
        self._heap = []
        self.cnt = 0
        self.total = 0

    def add(self, value):
        heappush(self._heap, value)
        self.cnt += 1
        self.total += value

    def stats_ge(self, t):
        h = self._heap
        while h and h[0] < t:
            self.cnt -= 1
            self.total -= heappop(h)
        return self.cnt, self.total


def add_estimate(state, v: int) -> float:
    """Scan priority for candidate v: far and high-fanout first.

    Pure heuristic, affects evaluation order only."""
    return float(state.dist_nearest[v] * (1 + state.graph.out_degree(v)))


def farness_decrease(g: Graph, dbase, buckets: LevelBuckets, v: int,
                     stop_below=None, record=None) -> DecreaseResult:
    """Raw-farness decrease from adding v to the group behind ``dbase``.

    Aborts (returning the current upper bound) as soon as the bound drops
    below ``stop_below``; with ``stop_below=None`` the result is exact.
    ``record`` collects every bound checked.

    Unit weights check the bound after counting each BFS level d: at most
    the level's fan-out of the uncounted vertices with base distance d+2 or
    more move to d+1, and every other uncounted vertex is at least d+2
    away. Weighted graphs check it before counting each settled vertex:
    every uncounted vertex is at least d away, so it saves at most
    dbase - d.
    """
    dec = 0
    if g.unit_weights:
        indptr = g.indptr
        back = 0 if g.directed else 1  # undirected: one arc leads to the parent
        near = _SuffixTracker()   # counted, queried at threshold d+2
        far = _SuffixTracker()    # counted, queried at threshold d+3
        for d, level in closer_levels(g, dbase, v):
            fanout = 0
            for x in level:
                dx = dbase[x]
                dec += dx - d
                near.add(dx)
                far.add(dx)
                fanout += indptr[x + 1] - indptr[x]
            if d:
                fanout -= back * len(level)
            ecnt2, _ = near.stats_ge(d + 2)
            avail_next = buckets.count_ge(d + 2) - ecnt2
            promoted = fanout if fanout < avail_next else avail_next
            ecnt3, esum3 = far.stats_ge(d + 3)
            ucnt3 = buckets.count_ge(d + 3) - ecnt3
            usum3 = buckets.sum_ge(d + 3) - esum3
            # every vertex promoted to the next level is worth exactly one
            # more than its parked value, so only the promoted count matters
            bound = dec + promoted + (usum3 - (d + 2) * ucnt3)
            if record is not None:
                record.append(bound)
            if stop_below is not None and bound < stop_below:
                return DecreaseResult(False, bound)
    else:
        counted = _SuffixTracker()
        for d, x in closer_settled(g, dbase, v):
            ecnt, esum = counted.stats_ge(d + 1)
            ucnt = buckets.count_ge(d + 1) - ecnt
            usum = buckets.sum_ge(d + 1) - esum
            bound = dec + (usum - d * ucnt)
            if record is not None:
                record.append(bound)
            if stop_below is not None and bound < stop_below:
                return DecreaseResult(False, bound)
            dec += dbase[x] - d
            counted.add(dbase[x])
    return DecreaseResult(True, dec)


def _farness_of_singleton(g, v, stop_above=None, record=None):
    """Raw farness of {v} (UNREACHABLE when some vertex cannot be reached
    from v) with an optional integer abort threshold: (True, farness), or
    (False, lower bound) once a lower bound exceeds ``stop_above``.
    ``record`` collects every lower bound checked.

    The traversal is the closer-than-base one with an all-UNREACHABLE base.
    Unit weights check the bound after counting each BFS level d: at most
    the level's fan-out of the uncounted vertices sit at d+1, the rest at
    least at d+2. Weighted graphs check it before counting each settled
    vertex: every uncounted vertex is at least d away."""
    n = g.n
    nowhere = [UNREACHABLE] * n
    counted = 0
    total = 0
    if g.unit_weights:
        indptr = g.indptr
        back = 0 if g.directed else 1  # undirected: one arc leads to the parent
        for d, level in closer_levels(g, nowhere, v):
            fanout = sum([indptr[x + 1] - indptr[x] for x in level])
            if d:
                fanout -= back * len(level)
            counted += len(level)
            total += d * len(level)
            rem = n - counted
            f = fanout if fanout < rem else rem
            lower = total + f * (d + 1) + (rem - f) * (d + 2)
            if record is not None:
                record.append(lower)
            if stop_above is not None and lower > stop_above:
                return False, lower
    else:
        for d, _ in closer_settled(g, nowhere, v):
            lower = total + (n - counted) * d
            if record is not None:
                record.append(lower)
            if stop_above is not None and lower > stop_above:
                return False, lower
            total += d
            counted += 1
    return True, total if counted == n else UNREACHABLE


def _require_connected(g):
    if not is_connected(g):
        raise DisconnectedGraphError(
            "graph is not (strongly) connected; extract the largest component first")


def _closeness_report(g, algorithm, group, cfg, t0, stats, swap_sequence=()):
    members = sorted(group)
    raw = group_farness_raw(g, members)
    return solver_report(g, algorithm, members, g.n / raw if raw else float("inf"),
                         raw, cfg, t0, stats, swap_sequence)


def _closeness_start_vertex(g):
    """Vertex of maximum closeness (minimum total distance), ties to the
    smallest id. Candidates are scanned in descending out-degree order, and
    a traversal stops once its lower bound exceeds the best total so far."""
    best_v, best_total = -1, None
    for v in sorted(range(g.n), key=lambda x: (-g.out_degree(x), x)):
        exact, total = _farness_of_singleton(g, v, best_total)
        if exact and (best_total is None or total < best_total
                      or (total == best_total and v < best_v)):
            best_total, best_v = total, v
    return best_v


def _greedy_closeness_core(g, k):
    """Lazy greedy selection without the report. Returns (group, stats).

    ``bound[v]`` is the last decrease (or aborted upper bound) computed for
    v; farness decrease is submodular, so it bounds every later round's
    decrease too. A round pops candidates by (bound descending, id) and
    ends once the top entry cannot beat the incumbent (best decrease, then
    smallest id)."""
    n = g.n
    group = [_closeness_start_vertex(g)]
    bound = [UNREACHABLE] * n
    stats = {"evaluated": n, "pruned": 0, "iterations": k}
    while len(group) < k:
        dbase = multi_source_sssp(g, group)
        buckets = LevelBuckets.from_distances(dbase)
        in_group = set(group)
        heap = [(-bound[v], v) for v in range(n) if v not in in_group]
        heapify(heap)
        best_dec = 0
        best_v = -1
        while heap and heap[0] < (-best_dec, best_v):
            v = heappop(heap)[1]
            # a smaller id wins a tie, a larger one must strictly beat it
            res = farness_decrease(g, dbase, buckets, v,
                                   best_dec + (v > best_v))
            stats["evaluated"] += 1
            bound[v] = res.value
            if not res.is_exact:
                stats["pruned"] += 1
            elif res.value > best_dec or (res.value == best_dec and v < best_v):
                best_dec, best_v = res.value, v
        group.append(best_v)
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
