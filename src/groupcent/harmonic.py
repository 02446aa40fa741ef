"""Greedy and local-search maximizers for group-harmonic centrality.

Every traversal is one of the closer-than-base traversals of ``graph``
(``closer_levels`` for unit weights, ``closer_settled`` otherwise), which
visit only vertices strictly closer to the source than the base distances
say; this module adds what each visited vertex contributes and where to
stop. A marginal gain runs over the group's distances without a bound and
returns the exact gain. Local search shares ``centrality.local_search``
with closeness.

The first member is the vertex of largest harmonic centrality, found by a
scan in descending out-degree order over all-UNREACHABLE bases. Each
traversal keeps an upper bound on the centrality it can still reach (the
level-based bound of Bergamini et al., TKDD 2019), checked after counting
each BFS level or before counting each settled vertex, and aborts once it
falls below the best value so far by more than a small margin. A traversal
that completes re-sums its value in vertex-id order, exactly as
``harmonic_centralities`` does, so the selected vertex is the same to the
last bit.

Greedy evaluates candidates lazily out of a max-priority queue of stale
gains, which stay valid upper bounds because gains only shrink as the group
grows; the start scan's values and abort bounds seed the queue of the second
round. To keep the lazy run selection-identical to a plain exhaustive
greedy, a round stops only when the best remaining bound is below the
incumbent by a small margin, so exact ties are always evaluated and resolved
by vertex id.
"""

from __future__ import annotations

import math
import time
from heapq import heapify, heappop

from .centrality import harmonic_sum, local_search, patched_distances
from .graph import (Graph, UNREACHABLE, closer_levels, closer_settled,
                    multi_source_sssp, sssp)
from .reporting import AlgoConfig, RunReport, solver_report

PRUNE_MARGIN = 1e-9
ABS_IMPROVE = 1e-9  # absolute acceptance fallback when the objective is zero
SWAP_GUARD = 1e-9  # relative distance from the threshold at which a swap score is re-checked


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
    """Vertex of largest harmonic centrality, the smallest id on ties."""
    return _start_scan(g)[0]


def _start_scan(g):
    """Pruned scan for the top harmonic vertex. Returns (vertex, bounds):
    ``bounds[u]`` is u's exact centrality when its traversal completed and
    the abort bound otherwise, an upper bound either way."""
    bounds = [0.0] * g.n
    best, best_u = float("-inf"), -1
    for u in sorted(range(g.n), key=lambda x: (-g.out_degree(x), x)):
        exact, value = _harmonic_of_singleton(g, u, best - PRUNE_MARGIN)
        bounds[u] = value
        if exact and (value > best or (value == best and u < best_u)):
            best, best_u = value, u
    return best_u, bounds


def _harmonic_of_singleton(g: Graph, u: int, stop_below=None, record=None):
    """(exact, value): the harmonic centrality of u, or (False, bound) once
    an upper bound on it drops below ``stop_below``. ``record`` collects
    every bound checked.

    The traversal is the closer-than-base one with an all-UNREACHABLE base.
    Unit weights check the bound after counting each BFS level d: at most
    the level's fan-out of the uncounted vertices sit at d+1, the rest at
    least at d+2. Weighted graphs check it before counting each settled
    vertex (d > 0): every uncounted vertex is at least d away."""
    n = g.n
    nowhere = [UNREACHABLE] * n
    dist = [UNREACHABLE] * n
    counted = 0
    partial = 0.0
    if g.unit_weights:
        indptr = g.indptr
        back = 0 if g.directed else 1  # undirected: one arc leads to the parent
        for d, level in closer_levels(g, nowhere, u):
            fanout = 0
            for x in level:
                dist[x] = d
                fanout += indptr[x + 1] - indptr[x]
            counted += len(level)
            if d:
                fanout -= back * len(level)
                partial += len(level) / d
            rem = n - counted
            f = fanout if fanout < rem else rem
            bound = partial + f / (d + 1) + (rem - f) / (d + 2)
            if record is not None:
                record.append(bound)
            if stop_below is not None and bound < stop_below:
                return False, bound
    else:
        for d, x in closer_settled(g, nowhere, u):
            if d:
                bound = partial + (n - counted) / d
                if record is not None:
                    record.append(bound)
                if stop_below is not None and bound < stop_below:
                    return False, bound
                partial += 1.0 / d
            dist[x] = d
            counted += 1
    total = 0.0  # the summation order of harmonic_centralities
    for v, dv in enumerate(dist):
        if v != u and dv != UNREACHABLE:
            total += 1.0 / dv
    return True, total


def pruned_marginal_gain(g: Graph, dist, u: int) -> float:
    """Exact marginal harmonic gain of adding u to the group whose
    distances are ``dist``; 0.0 when u is already a member. Each vertex
    strictly closer to u than to the group trades 1/dist for 1/d, and u
    itself loses its own 1/dist."""
    su = dist[u]
    if not su:
        return 0.0
    gain = 0.0
    if g.unit_weights:
        for d, level in closer_levels(g, dist, u):
            if d:
                for y in level:
                    dy = dist[y]
                    gain += 1.0 / d - (0.0 if dy == UNREACHABLE else 1.0 / dy)
    else:
        for d, y in closer_settled(g, dist, u):
            if d:
                dy = dist[y]
                gain += 1.0 / d - (0.0 if dy == UNREACHABLE else 1.0 / dy)
    return gain - (0.0 if su == UNREACHABLE else 1.0 / su)


def _finish_report(g, algorithm, group, cfg, t0, stats, swap_sequence=(), round_gains=()):
    # no "pruned" count: every harmonic traversal runs to its exact gain
    members = sorted(group)
    value = harmonic_sum(multi_source_sssp(g, members), set(members))
    return solver_report(g, algorithm, members, value, None, cfg, t0, stats,
                         swap_sequence, round_gains)


def _greedy_core(g, k):
    """Lazy greedy selection. Returns (group, final per-vertex gain bounds,
    best gain per round, stats)."""
    n = g.n
    start, gain_bound = _start_scan(g)
    group = [start]
    in_group = {start}
    stats = {"evaluated": n, "iterations": k}
    round_gains: list[float] = []
    while len(group) < k:
        dist = multi_source_sssp(g, group)
        heap = [(-gain_bound[u], u) for u in range(n) if u not in in_group]
        heapify(heap)
        best_gain = float("-inf")
        best_u = -1
        while heap:
            if best_u >= 0 and -heap[0][0] <= best_gain - PRUNE_MARGIN:
                break
            cand = heappop(heap)[1]
            gain = pruned_marginal_gain(g, dist, cand)
            stats["evaluated"] += 1
            gain_bound[cand] = gain
            if gain > best_gain or (gain == best_gain and cand < best_u):
                best_gain, best_u = gain, cand
        group.append(best_u)
        in_group.add(best_u)
        round_gains.append(best_gain)
    return group, gain_bound, round_gains, stats


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


def _harmonic_term(d):
    """A vertex's term of the harmonic objective; members are infinitely close."""
    return 1.0 / d if d else math.inf


def local_search_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Swap-based refinement of the greedy group.

    Scans members by ascending removal loss and candidates by descending
    final greedy gain bound (the last gain evaluated for the vertex, or its
    start-scan value or abort bound if no round evaluated it); a swap
    commits as soon as the new objective clears the multiplicative
    acceptance threshold (1 + eps / (k (n - k))), with an absolute fallback
    when the current objective is zero. Terminates when a full scan commits
    nothing, so the result never falls below greedy. Swaps are scored by
    ``swap_rows``, whose floats sum in another order than one traversal per
    pair; a score within ``SWAP_GUARD`` of the threshold is decided by that
    pair's own ``pruned_marginal_gain``.
    """
    cfg = cfg or AlgoConfig(k=k)
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    t0 = time.perf_counter()
    n = g.n
    group, gain_bound, round_gains, stats = _greedy_core(g, k)
    stats["iterations"] = 0
    swaps: list[tuple[int, int]] = []

    def plan(state):
        gh_here = harmonic_sum(state.dist_nearest, state.member_set)
        # multiplicative acceptance when positive; strict absolute
        # improvement when the objective sits at zero
        if gh_here > 0.0:
            threshold, strict = gh_here * (1.0 + cfg.eps / (k * (n - k))), False
        else:
            threshold, strict = gh_here + ABS_IMPROVE, True
        near = SWAP_GUARD * max(1.0, abs(threshold))
        without = {u: harmonic_sum(patched_distances(state, u), state.member_set - {u})
                   for u in state.members}
        members = sorted(without.items(), key=lambda m: (gh_here - m[1], m[0]))
        candidates = sorted((x for x in range(n) if x not in state.member_set),
                            key=lambda x: (-gain_bound[x], x))

        def accepts(u, v, value):
            if abs(value - threshold) <= near:
                stats["evaluated"] += 1
                value = without[u] + pruned_marginal_gain(
                    g, patched_distances(state, u), v)
            return value > threshold if strict else value >= threshold

        return members, candidates, accepts

    if k < n:
        group, swaps = local_search(g, group, _harmonic_term, plan, stats)
    return _finish_report(g, "ls-h", group, cfg, t0, stats,
                          swap_sequence=swaps, round_gains=round_gains)
