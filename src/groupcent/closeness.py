"""Greedy and swap-based local-search minimization of group farness.

``CLOSENESS`` is the ``centrality.Objective`` that ``centrality.solve``
runs: a vertex at distance d adds -d (``_farness_term``, 0 when
unreachable). Farness is kept as the raw integer sum of distances, so
every bound, threshold and acceptance test is exact arithmetic, and
pruning never changes a selection, only how much work is spent rejecting
the losers. Decreases are exact integers, so the lazy queue needs no
margin: a candidate's traversal aborts once it cannot beat the incumbent,
which a smaller id wins at a tie and a larger one must strictly beat.
This module adds the entry point ``farness_decrease``, the swap scan
order and the Fraction swap threshold (1 - eps/Q) * raw.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .centrality import Objective, farness_sum, greedy, marginal_value, solve
from .graph import Graph, UNREACHABLE, is_connected
from .reporting import AlgoConfig, RunReport


class DisconnectedGraphError(ValueError):
    """Closeness algorithms require a (strongly) connected graph."""


def add_estimate(state, v: int) -> float:
    """Scan priority for candidate v: far and high-fanout first.

    Pure heuristic, affects evaluation order only."""
    return float(state.dist_nearest[v] * (1 + state.graph.out_degree(v)))


def _farness_term(d):
    """A vertex's term of -farness, the objective both solvers maximize."""
    return 0 if d == UNREACHABLE else -d  # a group of no members counts 0


def farness_decrease(g: Graph, dbase, v: int, suffix=None, stop_below=None,
                     record=None):
    """Raw-farness decrease from adding v to the group behind ``dbase``:
    ``marginal_value`` with c = ``_farness_term``, whose bounds are exact
    integer arithmetic. ``suffix`` is ``base_suffixes(dbase,
    _farness_term)``, built when not given, or a ``ball_suffix``; with
    ``stop_below=None``, or from a ``ball_suffix``, the result is exact."""
    return marginal_value(g, dbase, v, _farness_term, suffix, stop_below,
                          record)


def _closeness_start_vertex(g):
    """Vertex of least farness, the smallest id on ties: greedy's first
    pick. On a graph that is not (strongly) connected, a vertex ranks by
    the sum of the distances it reaches, while the reach counts are exact
    (``graph.reachable_counts``)."""
    return greedy(g, 1, CLOSENESS, {"evaluated": 0, "pruned": 0})[0][0]


def _check(g, k):
    if not is_connected(g):
        raise DisconnectedGraphError(
            "graph is not (strongly) connected; extract the largest component first")
    if not 1 <= k < g.n:
        raise ValueError(f"k={k} out of range for n={g.n} (closeness needs k < n)")


def _plan(g, k, eps, bounds):
    """Local search scans candidates by descending add estimate, skipping
    degree-1 candidates on undirected unit-weight graphs, where the unique
    neighbor always does at least as well; the first swap whose exact new
    farness clears (1 - eps/(k(n-k))) * current commits. The graph is
    strongly connected, so only k = 1 ever leaves a vertex uncovered, and
    the empty group counts 0."""
    n = g.n
    shrink = 1 - Fraction(str(eps)) / (k * (n - k))
    exclude_deg1 = g.unit_weights and not g.directed

    def plan(state, objective):
        candidates = sorted(
            (v for v in range(n) if v not in state.member_set
             and not (exclude_deg1 and g.out_degree(v) == 1)),
            key=lambda v: (-add_estimate(state, v), v))
        limit = math.floor(shrink * -objective)  # the new farness is an integer
        return candidates, lambda value: -value <= limit

    return plan


def _report(g, dist, members):
    raw = farness_sum(dist, members)
    return (g.n / raw if raw else math.inf), raw


CLOSENESS = Objective(
    check=_check,
    # the kernels are looked up when called, so a patched module attribute
    # (a tracer's span, a test's counter) takes effect
    gain=lambda *args: farness_decrease(*args),
    c=_farness_term, margin=0, plan=_plan, report=_report)


def greedy_closeness(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """A size-k group, from the vertex of least farness, adding the largest
    farness decrease each round."""
    return solve(g, k, cfg, CLOSENESS, "greedy-c")


def local_search_closeness(g: Graph, k: int, cfg: AlgoConfig | None = None) -> RunReport:
    """Single-swap refinement of the greedy group, never above greedy."""
    return solve(g, k, cfg, CLOSENESS, "ls-c")
