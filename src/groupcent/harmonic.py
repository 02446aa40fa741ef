"""Greedy and local-search maximizers for group-harmonic centrality.

``HARMONIC`` is the ``centrality.Objective`` that ``centrality.solve`` runs:
a vertex at distance d adds 1/d (``_harmonic_term``). This module adds the
float margins. A lazy round, and a gain's traversal where it checks the
level bound (greedy's round 1, and every unit-weight round past the ball
table's budget), only stops once a bound is below the incumbent by
``PRUNE_MARGIN``, so exact ties are always evaluated and go to the
smallest id, as in a plain exhaustive greedy; round 1's values and
bounds seed round 2's queue. Later weighted rounds, and unit-weight
gains from the ball table, give exact gains, never abort bounds.
"""

from __future__ import annotations

import math

from .centrality import Objective, harmonic_sum, marginal_value, solve
from .graph import Graph, UNREACHABLE, sssp
from .reporting import AlgoConfig, RunReport

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
    ``dist``: ``marginal_value`` with c = 1/d, (exact, gain) or (False,
    bound) once a bound drops below ``stop_below``; from a ``ball_suffix``
    the gain is always exact."""
    return marginal_value(g, dist, u, _harmonic_term, suffix, stop_below, record)


def _harmonic_term(d):
    """A vertex's term of the harmonic objective; members are infinitely close."""
    return 1.0 / d if d else math.inf


def _check(g, k):
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range for n={g.n}")


def _plan(g, k, eps, bounds):
    """Local search scans candidates by descending final greedy gain bound
    (the last gain or abort bound computed for the vertex, or its first
    bound if no round evaluated it); a swap
    commits once the new objective clears the multiplicative threshold
    (1 + eps / (k (n - k))), or strictly improves on an objective of zero.
    Removal losses and swap scores are float sums in another order than a
    scan of one traversal per pair, so a score within rounding of the
    threshold may be judged differently from that scan."""
    n = g.n

    def plan(state, objective):
        candidates = sorted((x for x in range(n) if x not in state.member_set),
                            key=lambda x: (-bounds[x], x))
        if objective > 0.0:
            threshold = objective * (1.0 + eps / (k * (n - k)))
            return candidates, lambda value: value >= threshold
        return candidates, lambda value: value > objective + ABS_IMPROVE

    return plan


HARMONIC = Objective(
    check=_check,
    # the kernels are looked up when called, so a patched module attribute
    # (a tracer's span, a test's counter) takes effect
    gain=lambda *args: pruned_marginal_gain(*args),
    c=_harmonic_term, margin=PRUNE_MARGIN, plan=_plan,
    report=lambda g, dist, members: (harmonic_sum(dist, members), None))


def greedy_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """A size-k group, from the top harmonic vertex, adding the best
    marginal gain each round even when it is negative."""
    return solve(g, k, cfg, HARMONIC, "greedy-h")


def local_search_harmonic(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Single-swap refinement of the greedy group, never below greedy."""
    return solve(g, k, cfg, HARMONIC, "ls-h")
