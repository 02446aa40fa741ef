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
here even when the group and the objective value stay the same.
"""

import random

import pytest

from groupcent import (greedy_closeness, greedy_harmonic,
                       local_search_closeness, local_search_harmonic)
from groupcent.generators import random_graph
from groupcent.graph import Graph
from reference import count_visits

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
# every run aborts traversals, weighted ones in round 1 only, and two
# local searches swap
GOLDEN = {
    ('undirected-unit', 3, 'greedy-h'): ([1, 6, 44], 41.5, None, 122, 110, 3, 0, 871),
    ('undirected-unit', 3, 'ls-h'): ([1, 6, 44], 41.5, None, 179, 110, 1, 0, 1363),
    ('undirected-unit', 3, 'greedy-c'): ([1, 34, 44], 0.6741573033707865, 89, 173, 164, 3, 0, 1322),
    ('undirected-unit', 3, 'ls-c'): ([1, 34, 44], 0.6741573033707865, 89, 229, 164, 1, 0, 1953),
    ('undirected-unit', 5, 'greedy-h'): ([1, 6, 23, 25, 44], 46.0, None, 180, 160, 5, 0, 1067),
    ('undirected-unit', 5, 'ls-h'): ([1, 6, 23, 25, 44], 46.0, None, 235, 160, 1, 0, 1392),
    ('undirected-unit', 5, 'greedy-c'): ([1, 6, 31, 34, 44], 0.8108108108108109, 74, 263, 249, 5, 0, 1547),
    ('undirected-unit', 5, 'ls-c'): ([1, 6, 31, 34, 44], 0.8108108108108109, 74, 317, 249, 1, 0, 1854),
    ('undirected-weighted', 3, 'greedy-h'): ([7, 37, 84], 44.069047619047645, None, 255, 119, 3, 0, 6120),
    ('undirected-weighted', 3, 'ls-h'): ([7, 37, 84], 44.069047619047645, None, 372, 119, 1, 0, 9009),
    ('undirected-weighted', 3, 'greedy-c'): ([7, 28, 37], 0.3053435114503817, 393, 272, 119, 3, 0, 8564),
    ('undirected-weighted', 3, 'ls-c'): ([7, 28, 37], 0.3053435114503817, 393, 389, 119, 1, 0, 11592),
    ('undirected-weighted', 5, 'greedy-h'): ([7, 11, 37, 44, 84], 51.05952380952386, None, 264, 119, 5, 0, 6272),
    ('undirected-weighted', 5, 'ls-h'): ([11, 12, 23, 37, 84], 51.77619047619049, None, 609, 119, 3, 2, 10813),
    ('undirected-weighted', 5, 'greedy-c'): ([7, 28, 37, 44, 98], 0.3582089552238806, 335, 318, 119, 5, 0, 9030),
    ('undirected-weighted', 5, 'ls-c'): ([7, 28, 37, 44, 98], 0.3582089552238806, 335, 433, 119, 1, 0, 10614),
    ('directed-unit', 3, 'greedy-h'): ([1, 17, 55], 51.75000000000004, None, 255, 245, 3, 0, 2430),
    ('directed-unit', 3, 'ls-h'): ([1, 17, 55], 51.75000000000004, None, 352, 245, 1, 0, 4247),
    ('directed-unit', 3, 'greedy-c'): ([1, 17, 55], 0.4716981132075472, 212, 294, 280, 3, 0, 3999),
    ('directed-unit', 3, 'ls-c'): ([1, 17, 55], 0.4716981132075472, 212, 391, 280, 1, 0, 5816),
    ('directed-unit', 5, 'greedy-h'): ([1, 17, 55, 75, 80], 59.000000000000036, None, 348, 328, 5, 0, 2913),
    ('directed-unit', 5, 'ls-h'): ([1, 17, 55, 75, 80], 59.000000000000036, None, 443, 328, 1, 0, 4030),
    ('directed-unit', 5, 'greedy-c'): ([1, 17, 19, 55, 75], 0.5555555555555556, 180, 411, 383, 5, 0, 4651),
    ('directed-unit', 5, 'ls-c'): ([1, 17, 19, 55, 75], 0.5555555555555556, 180, 506, 383, 1, 0, 5789),
    ('directed-weighted', 3, 'greedy-h'): ([28, 32, 76], 34.027380952380945, None, 170, 76, 3, 0, 4132),
    ('directed-weighted', 3, 'ls-h'): ([28, 32, 76], 34.027380952380945, None, 247, 76, 1, 0, 5324),
    ('directed-weighted', 3, 'greedy-c'): ([2, 28, 32], 0.3333333333333333, 240, 190, 78, 3, 0, 5426),
    ('directed-weighted', 3, 'ls-c'): ([28, 32, 76], 0.3418803418803419, 234, 308, 78, 3, 2, 7291),
    ('directed-weighted', 5, 'greedy-h'): ([7, 28, 32, 74, 76], 39.20833333333333, None, 203, 76, 5, 0, 4386),
    ('directed-weighted', 5, 'ls-h'): ([7, 28, 32, 74, 76], 39.20833333333333, None, 278, 76, 1, 0, 5082),
    ('directed-weighted', 5, 'greedy-c'): ([1, 2, 28, 32, 74], 0.4, 200, 246, 78, 5, 0, 5817),
    ('directed-weighted', 5, 'ls-c'): ([1, 2, 28, 32, 74], 0.4, 200, 321, 78, 1, 0, 6532),
}


# the undirected unit 6-cycle at k=2: every vertex has the same harmonic
# centrality and farness, so the start is an exact tie and goes to vertex 0
CYCLE_GOLDEN = {
    'greedy-h': ([0, 3], 4.0, None, 11, 2, 2, 0, 56),
    'ls-h': ([0, 3], 4.0, None, 15, 2, 1, 0, 72),
    'greedy-c': ([0, 3], 1.5, 4, 11, 7, 2, 0, 40),
    'ls-c': ([0, 3], 1.5, 4, 15, 7, 1, 0, 56),
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
