"""Solver reports pinned on small seeded graphs, one per regime.

The values were produced before the graph moved from compressed arrays to
per-vertex adjacency lists; the weighted greedy-c and ls-c work counters
were re-pinned when weighted farness decreases became exact, and the
unit-weight greedy-h and ls-h ones when harmonic gains gained the level
bound. When greedy came to start from the empty group, its first pick
became round 1 of the lazy loop: its aborts count as pruned traversals,
and a vertex whose first bound is already below the round's best is
never evaluated. Every pruned count moved; so did the evaluations of the
undirected unit-weight harmonic rows, on a graph that leaves vertices
unreached, and some visits counts, none of them up. Kernels that visit
vertices in another order, or check another bound, move a work counter
here even when the group and the objective value stay the same. When
unit-weight greedy came to score candidates from a ball table, with exact
values and no traversal per candidate, the unit and 6-cycle rows'
evaluations, pruned traversals and visits went down; ``KERNEL_WORK`` keeps
their earlier counters, which the BFS kernel still gives past the table's
budget. When weighted traversals came to check the unit-weight level
bound, with its cap counted from arc weights, the weighted rows' visits
went down; no other field moved. When local search came to score its
swaps from the same ball table, with no traversal per row, the visits of
the unit and 6-cycle ls rows fell to those of their greedy rows;
``KERNEL_WORK`` keeps the traversal rows' visits. When greedy came to score
weighted round 1, and closeness's round 2, by one traversal and one
streamed ball sweep, the weighted rows' pruned traversals fell to 0 and
their visits went down; ``KERNEL_WORK`` keeps their earlier counters,
which the kernels still give past the sweep's budget. When harmonic's
round 2, and any round after a swept one, came to sweep as well, and a
swept round's best to be confirmed by the kernel, the weighted rows'
evaluations went up, since a swept round counts every candidate, and their
visits went down; no other field moved.
"""

import random

import pytest

from groupcent import (greedy_closeness, greedy_harmonic,
                       local_search_closeness, local_search_harmonic)
from groupcent.generators import random_graph
from groupcent.graph import Graph
from reference import count_visits, without_ball_table

# name: (directed, weights, n, p, graph hash)
REGIMES = {
    "undirected-unit": (False, (1,), 60, 0.05, "9adc4117ea41c36e"),
    "undirected-weighted": (False, (1, 2, 3), 120, 0.025, "931591dcc7600039"),
    "directed-unit": (True, (1,), 100, 0.025, "8eb2a14b0b635971"),
    "directed-weighted": (True, (1, 2, 3), 80, 0.04, "c981499b23300589"),
}
SOLVERS = {"greedy-h": greedy_harmonic, "ls-h": local_search_harmonic,
           "greedy-c": greedy_closeness, "ls-c": local_search_closeness}

# (regime, k, algorithm): (group, objectiveValue, rawFarness,
#  candidatesEvaluated, traversalsPruned, iterations, swapsCommitted,
#  visits), where visits counts the vertices ``graph.closer_levels`` yields
#  during the solve, a measure of traversal work independent of the host;
# no run aborts a traversal, since the table and the sweep give exact
# values, and two local searches swap
GOLDEN = {
    ('undirected-unit', 3, 'greedy-h'): ([1, 6, 44], 41.5, None, 101, 0, 3, 0, 88),
    ('undirected-unit', 3, 'ls-h'): ([1, 6, 44], 41.5, None, 158, 0, 1, 0, 88),
    ('undirected-unit', 3, 'greedy-c'): ([1, 34, 44], 0.6741573033707865, 89, 149, 0, 3, 0, 86),
    ('undirected-unit', 3, 'ls-c'): ([1, 34, 44], 0.6741573033707865, 89, 205, 0, 1, 0, 86),
    ('undirected-unit', 5, 'greedy-h'): ([1, 6, 23, 25, 44], 46.0, None, 140, 0, 5, 0, 100),
    ('undirected-unit', 5, 'ls-h'): ([1, 6, 23, 25, 44], 46.0, None, 195, 0, 1, 0, 100),
    ('undirected-unit', 5, 'greedy-c'): ([1, 6, 31, 34, 44], 0.8108108108108109, 74, 197, 0, 5, 0, 100),
    ('undirected-unit', 5, 'ls-c'): ([1, 6, 31, 34, 44], 0.8108108108108109, 74, 251, 0, 1, 0, 100),
    ('undirected-weighted', 3, 'greedy-h'): ([7, 37, 84], 44.069047619047645, None, 359, 0, 3, 0, 403),
    ('undirected-weighted', 3, 'ls-h'): ([7, 37, 84], 44.069047619047645, None, 476, 0, 1, 0, 3292),
    ('undirected-weighted', 3, 'greedy-c'): ([7, 28, 37], 0.3053435114503817, 393, 359, 0, 3, 0, 401),
    ('undirected-weighted', 3, 'ls-c'): ([7, 28, 37], 0.3053435114503817, 393, 476, 0, 1, 0, 3429),
    ('undirected-weighted', 5, 'greedy-h'): ([7, 11, 37, 44, 84], 51.05952380952386, None, 364, 0, 5, 0, 515),
    ('undirected-weighted', 5, 'ls-h'): ([11, 12, 23, 37, 84], 51.77619047619049, None, 709, 0, 3, 2, 5056),
    ('undirected-weighted', 5, 'greedy-c'): ([7, 28, 37, 44, 98], 0.3582089552238806, 335, 481, 0, 5, 0, 518),
    ('undirected-weighted', 5, 'ls-c'): ([7, 28, 37, 44, 98], 0.3582089552238806, 335, 596, 0, 1, 0, 2102),
    ('directed-unit', 3, 'greedy-h'): ([1, 17, 55], 51.75000000000004, None, 217, 0, 3, 0, 155),
    ('directed-unit', 3, 'ls-h'): ([1, 17, 55], 51.75000000000004, None, 314, 0, 1, 0, 155),
    ('directed-unit', 3, 'greedy-c'): ([1, 17, 55], 0.4716981132075472, 212, 238, 0, 3, 0, 156),
    ('directed-unit', 3, 'ls-c'): ([1, 17, 55], 0.4716981132075472, 212, 335, 0, 1, 0, 156),
    ('directed-unit', 5, 'greedy-h'): ([1, 17, 55, 75, 80], 59.000000000000036, None, 268, 0, 5, 0, 177),
    ('directed-unit', 5, 'ls-h'): ([1, 17, 55, 75, 80], 59.000000000000036, None, 363, 0, 1, 0, 177),
    ('directed-unit', 5, 'greedy-c'): ([1, 17, 19, 55, 75], 0.5555555555555556, 180, 312, 0, 5, 0, 179),
    ('directed-unit', 5, 'ls-c'): ([1, 17, 19, 55, 75], 0.5555555555555556, 180, 407, 0, 1, 0, 179),
    ('directed-weighted', 3, 'greedy-h'): ([28, 32, 76], 34.027380952380945, None, 171, 0, 3, 0, 517),
    ('directed-weighted', 3, 'ls-h'): ([28, 32, 76], 34.027380952380945, None, 248, 0, 1, 0, 1709),
    ('directed-weighted', 3, 'greedy-c'): ([2, 28, 32], 0.3333333333333333, 240, 240, 0, 3, 0, 370),
    ('directed-weighted', 3, 'ls-c'): ([28, 32, 76], 0.3418803418803419, 234, 358, 0, 3, 2, 2235),
    ('directed-weighted', 5, 'greedy-h'): ([7, 28, 32, 74, 76], 39.20833333333333, None, 204, 0, 5, 0, 771),
    ('directed-weighted', 5, 'ls-h'): ([7, 28, 32, 74, 76], 39.20833333333333, None, 279, 0, 1, 0, 1467),
    ('directed-weighted', 5, 'greedy-c'): ([1, 2, 28, 32, 74], 0.4, 200, 271, 0, 5, 0, 641),
    ('directed-weighted', 5, 'ls-c'): ([1, 2, 28, 32, 74], 0.4, 200, 346, 0, 1, 0, 1356),
}


# the undirected unit 6-cycle at k=2: every vertex has the same harmonic
# centrality and farness, so the start is an exact tie and goes to vertex 0
CYCLE_GOLDEN = {
    'greedy-h': ([0, 3], 4.0, None, 11, 0, 2, 0, 9),
    'ls-h': ([0, 3], 4.0, None, 15, 0, 1, 0, 9),
    'greedy-c': ([0, 3], 1.5, 4, 11, 0, 2, 0, 9),
    'ls-c': ([0, 3], 1.5, 4, 15, 0, 1, 0, 9),
}


# (candidatesEvaluated, traversalsPruned, visits) of every row with the
# kernels, past the budgets of the ball table and the sweep; the other
# fields are GOLDEN's and CYCLE_GOLDEN's
KERNEL_WORK = {
    ('undirected-unit', 3, 'greedy-h'): (122, 110, 871),
    ('undirected-unit', 3, 'ls-h'): (179, 110, 1363),
    ('undirected-unit', 3, 'greedy-c'): (173, 164, 1322),
    ('undirected-unit', 3, 'ls-c'): (229, 164, 1953),
    ('undirected-unit', 5, 'greedy-h'): (180, 160, 1067),
    ('undirected-unit', 5, 'ls-h'): (235, 160, 1392),
    ('undirected-unit', 5, 'greedy-c'): (263, 249, 1547),
    ('undirected-unit', 5, 'ls-c'): (317, 249, 1854),
    ('directed-unit', 3, 'greedy-h'): (255, 245, 2430),
    ('directed-unit', 3, 'ls-h'): (352, 245, 4247),
    ('directed-unit', 3, 'greedy-c'): (294, 280, 3999),
    ('directed-unit', 3, 'ls-c'): (391, 280, 5816),
    ('directed-unit', 5, 'greedy-h'): (348, 328, 2913),
    ('directed-unit', 5, 'ls-h'): (443, 328, 4030),
    ('directed-unit', 5, 'greedy-c'): (411, 383, 4651),
    ('directed-unit', 5, 'ls-c'): (506, 383, 5789),
    ('undirected-weighted', 3, 'greedy-h'): (255, 119, 3487),
    ('undirected-weighted', 3, 'ls-h'): (372, 119, 6376),
    ('undirected-weighted', 3, 'greedy-c'): (272, 119, 4836),
    ('undirected-weighted', 3, 'ls-c'): (389, 119, 7864),
    ('undirected-weighted', 5, 'greedy-h'): (264, 119, 3639),
    ('undirected-weighted', 5, 'ls-h'): (609, 119, 8180),
    ('undirected-weighted', 5, 'greedy-c'): (318, 119, 5302),
    ('undirected-weighted', 5, 'ls-c'): (433, 119, 6886),
    ('directed-weighted', 3, 'greedy-h'): (170, 76, 2572),
    ('directed-weighted', 3, 'ls-h'): (247, 76, 3764),
    ('directed-weighted', 3, 'greedy-c'): (190, 78, 3321),
    ('directed-weighted', 3, 'ls-c'): (308, 78, 5186),
    ('directed-weighted', 5, 'greedy-h'): (203, 76, 2826),
    ('directed-weighted', 5, 'ls-h'): (278, 76, 3522),
    ('directed-weighted', 5, 'greedy-c'): (246, 78, 3712),
    ('directed-weighted', 5, 'ls-c'): (321, 78, 4427),
    ('6-cycle', 2, 'greedy-h'): (11, 2, 56),
    ('6-cycle', 2, 'ls-h'): (15, 2, 72),
    ('6-cycle', 2, 'greedy-c'): (11, 7, 40),
    ('6-cycle', 2, 'ls-c'): (15, 7, 56),
}


def regime_graph(name):
    directed, weights, n, p, _ = REGIMES[name]
    seed = 900 + list(REGIMES).index(name)
    return random_graph(n, random.Random(seed), directed=directed, p=p,
                        weights=weights)


@pytest.fixture
def pinned(monkeypatch):
    """``pinned(solve, g, k)``: the golden row of one solve."""
    visits = count_visits(monkeypatch)

    def row(solve, g, k):
        visits[0] = 0
        r = solve(g, k)
        return (r.group, r.objective_value, r.raw_farness,
                r.candidates_evaluated, r.traversals_pruned, r.iterations,
                r.swaps_committed, visits[0])

    return row


@pytest.mark.parametrize("regime", REGIMES)
def test_reports_match_golden(regime, pinned):
    g = regime_graph(regime)
    assert g.content_hash() == REGIMES[regime][4]
    for k in (3, 5):
        for algo, solve in SOLVERS.items():
            assert pinned(solve, g, k) == GOLDEN[regime, k, algo], (regime, k, algo)


def test_tied_start_reports_match_golden(pinned):
    g = Graph(6, [(i, (i + 1) % 6, 1) for i in range(6)])
    for algo, solve in SOLVERS.items():
        assert pinned(solve, g, 2) == CYCLE_GOLDEN[algo], algo


def test_bfs_kernel_reports_match_golden(pinned, monkeypatch):
    # the same groups, values and swaps as with the table and the sweep
    without_ball_table(monkeypatch)
    cycle = Graph(6, [(i, (i + 1) % 6, 1) for i in range(6)])
    for regime, k, algo in KERNEL_WORK:
        if regime == "6-cycle":
            g, want = cycle, CYCLE_GOLDEN[algo]
        else:
            g, want = regime_graph(regime), GOLDEN[regime, k, algo]
        evaluated, pruned, visits = KERNEL_WORK[regime, k, algo]
        want = want[:3] + (evaluated, pruned) + want[5:7] + (visits,)
        assert pinned(SOLVERS[algo], g, k) == want, (regime, k, algo)
