"""Greedy and local-search maximizers for group-harmonic centrality.

Marginal gains are evaluated by a pruned traversal from the candidate that
only visits vertices strictly closer to the candidate than to the current
group (any vertex whose shortest path passes a non-qualifying vertex cannot
qualify either, so pruning the expansion is exact). While the traversal
runs, a running upper bound on the final gain is maintained: the explored
contribution so far, plus the most optimistic placement of every vertex the
traversal could still reach. Once the bound falls below the best exact gain
already found in the round, the traversal is abandoned and the bound itself
remains a valid certificate for later rounds.

Greedy evaluates candidates lazily out of a max-priority queue of stale
bounds (gains only shrink as the group grows). To keep the pruned run
selection-identical to a plain exhaustive greedy, pruning triggers only when
a bound is below the incumbent by a small margin, so exact ties are always
evaluated and resolved by vertex id.
"""

from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .centrality import harmonic_sum, patched_distances, state_init
from .graph import (Graph, UNREACHABLE, connected_component_ids,
                    multi_source_sssp, reachable_counts, sssp)
from .reporting import AlgoConfig, RunReport, graph_summary

PRUNE_MARGIN = 1e-9
ABS_IMPROVE = 1e-9  # absolute acceptance fallback when the objective is zero


class PrunedGainResult(NamedTuple):
    is_exact: bool
    value: float  # exact marginal gain, or a still-valid upper bound


class BoundEntry(NamedTuple):
    """Max-priority entry; heapq is a min-heap so the bound is negated.
    Equal bounds pop in ascending vertex order."""
    neg_bound: float
    vertex: int


class BaseDistances:
    """Distances from the current base group plus reach corrections.

    On undirected unit-weight graphs, vertices already at distance 1 from
    the base group can never contribute to any candidate's gain, so they are
    removed from the candidate's reachable-count before it feeds the
    optimistic tail of the bound.
    """

    __slots__ = ("graph", "dist", "reach", "comp", "_dist1_per_comp")

    def __init__(self, g: Graph, dist, reach, comp=None):
        self.graph = g
        self.dist = dist
        self.reach = reach
        self.comp = comp
        self._dist1_per_comp = None
        if comp is not None and g.unit_weights and not g.directed:
            counts = [0] * (max(comp) + 1)
            for x, d in enumerate(dist):
                if d == 1:
                    counts[comp[x]] += 1
            self._dist1_per_comp = counts

    def effective_reach(self, u: int) -> int:
        r = self.reach[u]
        if self._dist1_per_comp is None:
            return r
        r -= self._dist1_per_comp[self.comp[u]]
        if self.dist[u] == 1:  # u itself stays countable
            r += 1
        return r


def graph_reach_info(g: Graph):
    reach = reachable_counts(g)
    comp = connected_component_ids(g)[0] if not g.directed else None
    return reach, comp


def harmonic_centralities(g: Graph):
    """Exact per-vertex harmonic centrality via one SSSP per vertex."""
    values = []
    for u in range(g.n):
        d = sssp(g, u)
        total = 0.0
        for v, dv in enumerate(d):
            if v != u and dv != UNREACHABLE:
                total += 1.0 / dv
        values.append(total)
    return values


def top_harmonic_vertex(g: Graph) -> int:
    values = harmonic_centralities(g)
    best = 0
    for u in range(1, g.n):
        if values[u] > values[best]:
            best = u
    return best


def pruned_marginal_gain(g: Graph, base: BaseDistances, u: int,
                         cutoff: float = float("-inf"), record=None) -> PrunedGainResult:
    """Marginal harmonic gain of adding u to the base group.

    Returns an exact gain when the traversal completes, otherwise a valid
    upper bound proving the gain cannot beat ``cutoff``. ``record`` collects
    every intermediate bound for instrumentation.
    """
    if g.unit_weights:
        return _gain_unit(g, base, u, cutoff, record)
    return _gain_weighted(g, base, u, cutoff, record)


def _gain_unit(g, base, u, cutoff, record):
    dist_to = base.dist
    n, indptr, targets = g.n, g.indptr, g.targets
    su = dist_to[u]
    inv_su = 0.0 if su == UNREACHABLE else 1.0 / su
    undirected = not g.directed
    threshold = cutoff - PRUNE_MARGIN
    seen = bytearray(n)
    seen[u] = 1
    level = [u]
    explored = 1
    gain = 0.0
    r_rem = base.effective_reach(u)
    i = 0
    while True:
        # optimistic tail: the frontier can spawn at most this many vertices
        # one hop out, everything else reachable sits two hops out
        fanout = 0
        for x in level:
            fanout += indptr[x + 1] - indptr[x]
            if undirected and i > 0:
                fanout -= 1
        remaining = r_rem - explored
        if remaining < 0:
            remaining = 0
        at_next = fanout if fanout < remaining else remaining
        bound = gain + at_next / (i + 1) + (remaining - at_next) / (i + 2) - inv_su
        if record is not None:
            record.append(bound)
        if bound <= threshold:
            return PrunedGainResult(False, bound)
        nd = i + 1
        nxt = []
        for x in level:
            for j in range(indptr[x], indptr[x + 1]):
                y = targets[j]
                if not seen[y] and nd < dist_to[y]:
                    seen[y] = 1
                    dy = dist_to[y]
                    gain += 1.0 / nd - (0.0 if dy == UNREACHABLE else 1.0 / dy)
                    nxt.append(y)
        if not nxt:
            return PrunedGainResult(True, gain - inv_su)
        explored += len(nxt)
        level = nxt
        i = nd


def _gain_weighted(g, base, u, cutoff, record):
    dist_to = base.dist
    n, indptr, targets, wts = g.n, g.indptr, g.targets, g.weights
    su = dist_to[u]
    inv_su = 0.0 if su == UNREACHABLE else 1.0 / su
    threshold = cutoff - PRUNE_MARGIN
    tentative = [UNREACHABLE] * n
    tentative[u] = 0
    done = bytearray(n)
    heap = [(0, u)]
    gain = 0.0
    settled = 0
    r_u = base.effective_reach(u)
    while heap:
        d, x = heappop(heap)
        if done[x]:
            continue
        done[x] = 1
        settled += 1
        if x != u:
            dx = dist_to[x]
            gain += 1.0 / d - (0.0 if dx == UNREACHABLE else 1.0 / dx)
        for j in range(indptr[x], indptr[x + 1]):
            y = targets[j]
            ny = d + wts[j]
            if not done[y] and ny < dist_to[y] and ny < tentative[y]:
                tentative[y] = ny
                heappush(heap, (ny, y))
        if not heap:
            break
        if d > 0:
            remaining = r_u - settled
            if remaining < 0:
                remaining = 0
            bound = gain + remaining / d - inv_su
            if record is not None:
                record.append(bound)
            if bound <= threshold:
                return PrunedGainResult(False, bound)
    return PrunedGainResult(True, gain - inv_su)


def _finish_report(g, algorithm, group, cfg, t0, stats, swap_sequence=(), round_gains=()):
    members = sorted(group)
    dist = multi_source_sssp(g, members)
    value = harmonic_sum(dist, set(members))
    return RunReport(
        algorithm=algorithm,
        group=members,
        objective_kind="harmonic",
        objective_value=value,
        raw_farness=None,
        iterations=stats.get("iterations", 0),
        swaps_committed=stats.get("swaps", 0),
        candidates_evaluated=stats.get("evaluated", 0),
        traversals_pruned=stats.get("pruned", 0),
        wall_time_millis=(time.perf_counter() - t0) * 1000.0,
        config=cfg.echo(),
        graph=graph_summary(g),
        swap_sequence=list(swap_sequence),
        round_gains=list(round_gains),
    )


def _greedy_core(g, k):
    """Lazy greedy selection. Returns (group, per-vertex harmonic values,
    best gain per round, stats)."""
    n = g.n
    values = harmonic_centralities(g)
    start = 0
    for u in range(1, n):
        if values[u] > values[start]:
            start = u
    group = [start]
    in_group = {start}
    gain_bound = values.copy()
    reach, comp = graph_reach_info(g)
    stats = {"evaluated": n, "pruned": 0, "iterations": k}
    round_gains: list[float] = []
    while len(group) < k:
        dist = multi_source_sssp(g, group)
        base = BaseDistances(g, dist, reach, comp)
        heap = [BoundEntry(-gain_bound[u], u) for u in range(n) if u not in in_group]
        heapify(heap)
        best_gain = float("-inf")
        best_u = -1
        while heap:
            if best_u >= 0 and -heap[0].neg_bound <= best_gain - PRUNE_MARGIN:
                break
            cand = heappop(heap).vertex
            res = pruned_marginal_gain(g, base, cand, best_gain)
            stats["evaluated"] += 1
            if res.is_exact:
                gain_bound[cand] = res.value
                if res.value > best_gain or (res.value == best_gain and cand < best_u):
                    best_gain, best_u = res.value, cand
            else:
                stats["pruned"] += 1
                if res.value < gain_bound[cand]:
                    gain_bound[cand] = res.value
        group.append(best_u)
        in_group.add(best_u)
        round_gains.append(best_gain)
    return group, values, round_gains, stats


def greedy_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Build a size-k group by repeatedly adding the best marginal gain.

    The first member is the top harmonic vertex; later rounds pop candidates
    from a priority queue of stale gain bounds and re-evaluate with pruned
    traversals. Additions proceed even when the best gain is negative, so
    the returned group always has exactly k members.
    """
    cfg = cfg or AlgoConfig(k=k)
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    t0 = time.perf_counter()
    group, _, round_gains, stats = _greedy_core(g, k)
    return _finish_report(g, "greedy-h", group, cfg, t0, stats, round_gains=round_gains)


def plain_greedy_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Reference greedy without laziness or pruning: every candidate is
    evaluated exactly in every round. Used to validate that pruning is
    selection-transparent."""
    cfg = cfg or AlgoConfig(k=k)
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    t0 = time.perf_counter()
    n = g.n
    values = harmonic_centralities(g)
    start = 0
    for u in range(1, n):
        if values[u] > values[start]:
            start = u
    group = [start]
    in_group = {start}
    reach, comp = graph_reach_info(g)
    stats = {"evaluated": n, "pruned": 0, "iterations": k}
    round_gains = []
    while len(group) < k:
        dist = multi_source_sssp(g, group)
        base = BaseDistances(g, dist, reach, comp)
        best_gain = float("-inf")
        best_u = -1
        for u in range(n):
            if u in in_group:
                continue
            res = pruned_marginal_gain(g, base, u)
            stats["evaluated"] += 1
            if res.value > best_gain:
                best_gain, best_u = res.value, u
        group.append(best_u)
        in_group.add(best_u)
        round_gains.append(best_gain)
    return _finish_report(g, "greedy-h-exact", group, cfg, t0, stats,
                          round_gains=round_gains)


def local_search_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Swap-based refinement of the greedy group.

    Scans members by ascending removal loss and candidates by descending
    harmonic value; a swap commits as soon as the new objective clears the
    multiplicative acceptance threshold (1 + eps / (k (n - k))), with an
    absolute fallback when the current objective is zero. Terminates when a
    full scan commits nothing, so the result never falls below greedy.
    """
    cfg = cfg or AlgoConfig(k=k)
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    t0 = time.perf_counter()
    n = g.n
    group, values, round_gains, stats = _greedy_core(g, k)
    stats = dict(stats)
    stats["iterations"] = 0
    swaps: list[tuple[int, int]] = []
    if k < n:
        reach, comp = graph_reach_info(g)
        q_size = k * (n - k)
        improved = True
        while improved:
            improved = False
            stats["iterations"] += 1
            state = state_init(g, group)
            gh_here = harmonic_sum(state.dist_nearest, state.member_set)
            # multiplicative acceptance when positive; strict absolute
            # improvement when the objective sits at zero
            if gh_here > 0.0:
                threshold = gh_here * (1.0 + cfg.eps / q_size)
                accepts = lambda val: val >= threshold
            else:
                threshold = gh_here + ABS_IMPROVE
                accepts = lambda val: val > threshold
            scan = []
            for u in group:
                d_without = patched_distances(state, u)
                gh_without = harmonic_sum(d_without, state.member_set - {u})
                scan.append((gh_here - gh_without, u, d_without, gh_without))
            scan.sort(key=lambda item: (item[0], item[1]))
            candidates = sorted((x for x in range(n) if x not in state.member_set),
                                key=lambda x: (-values[x], x))
            for _, u, d_without, gh_without in scan:
                base = BaseDistances(g, d_without, reach, comp)
                cutoff = threshold - gh_without
                for v in candidates:
                    res = pruned_marginal_gain(g, base, v, cutoff)
                    stats["evaluated"] += 1
                    if not res.is_exact:
                        stats["pruned"] += 1
                    elif accepts(gh_without + res.value):
                        group = sorted(set(group) - {u} | {v})
                        swaps.append((u, v))
                        improved = True
                        break
                if improved:
                    break
    stats["swaps"] = len(swaps)
    return _finish_report(g, "ls-h", group, cfg, t0, stats,
                          swap_sequence=swaps, round_gains=round_gains)
