"""Greedy and local-search maximizers for group-harmonic centrality.

The start scan, bounded marginal gain, lazy greedy and local search are
the shared ones of ``centrality``, run with ``_harmonic_term``: a vertex at
distance d adds 1/d. This module adds the float margins. The start scan,
the lazy rounds and, on unit weights, each gain's traversal only stop once
a bound is below the incumbent by ``PRUNE_MARGIN``, so exact ties are
always evaluated and go to the smallest id, as in a plain exhaustive
greedy; the start scan's values and abort bounds seed the second round's
queue. Weighted gains are exact.
"""

from __future__ import annotations

import math
import time

from .centrality import (best_singleton, harmonic_sum, lazy_greedy,
                         local_search, marginal_value)
from .graph import Graph, UNREACHABLE, reachable_counts, sssp
from .reporting import AlgoConfig, RunReport, solver_report

PRUNE_MARGIN = 1e-9
ABS_IMPROVE = 1e-9  # absolute acceptance fallback when the objective is zero


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


def pruned_marginal_gain(g: Graph, dist, u: int, suffix=None, stop_below=None,
                         record=None):
    """Marginal harmonic gain of adding u to the group whose distances are
    ``dist``: ``marginal_value`` with c = 1/d, (exact, gain) or, on unit
    weights, (False, bound) once a bound drops below ``stop_below``.
    ``suffix`` is ``base_suffixes(dist, _harmonic_term)``."""
    return marginal_value(g, dist, u, _harmonic_term, suffix, stop_below, record)


def _finish_report(g, algorithm, group, dist, cfg, t0, stats, swap_sequence=(),
                   round_gains=()):
    """Report of ``group``, whose distances are ``dist``."""
    members = sorted(group)
    value = harmonic_sum(dist, set(members))
    return solver_report(g, algorithm, members, value, None, cfg, t0, stats,
                         swap_sequence, round_gains)


def _greedy_core(g, k):
    """Lazy greedy selection. Returns (group, its distances, final
    per-vertex gain bounds, best gain per round, stats)."""
    start, gain_bound = best_singleton(g, _harmonic_term, reachable_counts(g),
                                       PRUNE_MARGIN)
    stats = {"evaluated": g.n, "pruned": 0, "iterations": k}
    group, round_gains, dist = lazy_greedy(
        g, k, start, gain_bound, _harmonic_term, pruned_marginal_gain, stats,
        PRUNE_MARGIN)
    return group, dist, gain_bound, round_gains, stats


def greedy_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Build a size-k group by repeatedly adding the best marginal gain.

    The first member is the top harmonic vertex; later rounds pop candidates
    from a priority queue of stale gain bounds and re-evaluate them, on unit
    weights with traversals that abort once they cannot win the round.
    Additions proceed even when the best gain is negative, so the returned
    group always has exactly k members.
    """
    cfg = cfg or AlgoConfig(k=k)
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    t0 = time.perf_counter()
    group, dist, _, round_gains, stats = _greedy_core(g, k)
    return _finish_report(g, "greedy-h", group, dist, cfg, t0, stats,
                          round_gains=round_gains)


def _harmonic_term(d):
    """A vertex's term of the harmonic objective; members are infinitely close."""
    return 1.0 / d if d else math.inf


def local_search_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Swap-based refinement of the greedy group.

    ``local_search`` scans members by ascending removal loss and, here,
    candidates by descending final greedy gain bound (the last gain or
    abort bound computed for the vertex, or its start-scan value or abort
    bound if no round evaluated it); a swap commits as soon as the new
    objective clears the multiplicative acceptance threshold
    (1 + eps / (k (n - k))), with an absolute fallback when the current
    objective is zero. Terminates when a full scan commits nothing, so the
    result never falls below greedy. Removal losses and swap scores are
    float sums in another order than a scan of one traversal per pair, so
    a score within rounding of the threshold may be judged differently
    from that scan.
    """
    cfg = cfg or AlgoConfig(k=k)
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")
    t0 = time.perf_counter()
    n = g.n
    group, dist, gain_bound, round_gains, stats = _greedy_core(g, k)
    stats["iterations"] = 0
    swaps: list[tuple[int, int]] = []

    def plan(state, objective):
        candidates = sorted((x for x in range(n) if x not in state.member_set),
                            key=lambda x: (-gain_bound[x], x))
        # multiplicative acceptance when positive; strict absolute
        # improvement when the objective sits at zero
        if objective > 0.0:
            threshold = objective * (1.0 + cfg.eps / (k * (n - k)))
            return candidates, lambda value: value >= threshold
        return candidates, lambda value: value > objective + ABS_IMPROVE

    if k < n:
        group, swaps, dist = local_search(g, group, _harmonic_term, plan, stats)
    return _finish_report(g, "ls-h", group, dist, cfg, t0, stats,
                          swap_sequence=swaps, round_gains=round_gains)
