"""Solver reports pinned on small seeded graphs, one per regime.

The values were produced before the graph moved from compressed arrays to
per-vertex adjacency lists; the weighted greedy-c and ls-c work counters
were re-pinned when weighted farness decreases became exact, and the
unit-weight greedy-h and ls-h ones when harmonic gains gained the level
bound. Kernels that
visit vertices in another order, or check another bound, move a work
counter here even when the group and the objective value stay the same.
"""

import random

import pytest

from groupcent import (greedy_closeness, greedy_harmonic,
                       local_search_closeness, local_search_harmonic)
from groupcent.generators import random_graph
from groupcent.graph import Graph

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
#  candidatesEvaluated, traversalsPruned, iterations, swapsCommitted);
# every unit-weight run aborts traversals, weighted marginal values are
# exact and never abort, and two local searches swap
GOLDEN = {
    ('undirected-unit', 3, 'greedy-h'): ([1, 6, 44], 41.5, None, 155, 84, 3, 0),
    ('undirected-unit', 3, 'ls-h'): ([1, 6, 44], 41.5, None, 212, 84, 1, 0),
    ('undirected-unit', 3, 'greedy-c'): ([1, 34, 44], 0.6741573033707865, 89, 173, 105, 3, 0),
    ('undirected-unit', 3, 'ls-c'): ([1, 34, 44], 0.6741573033707865, 89, 229, 105, 1, 0),
    ('undirected-unit', 5, 'greedy-h'): ([1, 6, 23, 25, 44], 46.0, None, 213, 134, 5, 0),
    ('undirected-unit', 5, 'ls-h'): ([1, 6, 23, 25, 44], 46.0, None, 268, 134, 1, 0),
    ('undirected-unit', 5, 'greedy-c'): ([1, 6, 31, 34, 44], 0.8108108108108109, 74, 263, 190, 5, 0),
    ('undirected-unit', 5, 'ls-c'): ([1, 6, 31, 34, 44], 0.8108108108108109, 74, 317, 190, 1, 0),
    ('undirected-weighted', 3, 'greedy-h'): ([7, 37, 84], 44.069047619047645, None, 255, 0, 3, 0),
    ('undirected-weighted', 3, 'ls-h'): ([7, 37, 84], 44.069047619047645, None, 372, 0, 1, 0),
    ('undirected-weighted', 3, 'greedy-c'): ([7, 28, 37], 0.3053435114503817, 393, 272, 0, 3, 0),
    ('undirected-weighted', 3, 'ls-c'): ([7, 28, 37], 0.3053435114503817, 393, 389, 0, 1, 0),
    ('undirected-weighted', 5, 'greedy-h'): ([7, 11, 37, 44, 84], 51.05952380952386, None, 264, 0, 5, 0),
    ('undirected-weighted', 5, 'ls-h'): ([11, 12, 23, 37, 84], 51.77619047619049, None, 609, 0, 3, 2),
    ('undirected-weighted', 5, 'greedy-c'): ([7, 28, 37, 44, 98], 0.3582089552238806, 335, 318, 0, 5, 0),
    ('undirected-weighted', 5, 'ls-c'): ([7, 28, 37, 44, 98], 0.3582089552238806, 335, 433, 0, 1, 0),
    ('directed-unit', 3, 'greedy-h'): ([1, 17, 55], 51.75000000000004, None, 255, 147, 3, 0),
    ('directed-unit', 3, 'ls-h'): ([1, 17, 55], 51.75000000000004, None, 352, 147, 1, 0),
    ('directed-unit', 3, 'greedy-c'): ([1, 17, 55], 0.4716981132075472, 212, 294, 182, 3, 0),
    ('directed-unit', 3, 'ls-c'): ([1, 17, 55], 0.4716981132075472, 212, 391, 182, 1, 0),
    ('directed-unit', 5, 'greedy-h'): ([1, 17, 55, 75, 80], 59.000000000000036, None, 348, 230, 5, 0),
    ('directed-unit', 5, 'ls-h'): ([1, 17, 55, 75, 80], 59.000000000000036, None, 443, 230, 1, 0),
    ('directed-unit', 5, 'greedy-c'): ([1, 17, 19, 55, 75], 0.5555555555555556, 180, 411, 285, 5, 0),
    ('directed-unit', 5, 'ls-c'): ([1, 17, 19, 55, 75], 0.5555555555555556, 180, 506, 285, 1, 0),
    ('directed-weighted', 3, 'greedy-h'): ([28, 32, 76], 34.027380952380945, None, 170, 0, 3, 0),
    ('directed-weighted', 3, 'ls-h'): ([28, 32, 76], 34.027380952380945, None, 247, 0, 1, 0),
    ('directed-weighted', 3, 'greedy-c'): ([2, 28, 32], 0.3333333333333333, 240, 190, 0, 3, 0),
    ('directed-weighted', 3, 'ls-c'): ([28, 32, 76], 0.3418803418803419, 234, 308, 0, 3, 2),
    ('directed-weighted', 5, 'greedy-h'): ([7, 28, 32, 74, 76], 39.20833333333333, None, 203, 0, 5, 0),
    ('directed-weighted', 5, 'ls-h'): ([7, 28, 32, 74, 76], 39.20833333333333, None, 278, 0, 1, 0),
    ('directed-weighted', 5, 'greedy-c'): ([1, 2, 28, 32, 74], 0.4, 200, 246, 0, 5, 0),
    ('directed-weighted', 5, 'ls-c'): ([1, 2, 28, 32, 74], 0.4, 200, 321, 0, 1, 0),
}


# the undirected unit 6-cycle at k=2: every vertex has the same harmonic
# centrality and farness, so the start is an exact tie and goes to vertex 0
CYCLE_GOLDEN = {
    'greedy-h': ([0, 3], 4.0, None, 11, 2, 2, 0),
    'ls-h': ([0, 3], 4.0, None, 15, 2, 1, 0),
    'greedy-c': ([0, 3], 1.5, 4, 11, 2, 2, 0),
    'ls-c': ([0, 3], 1.5, 4, 15, 2, 1, 0),
}


def regime_graph(name):
    directed, weights, n, p, _ = REGIMES[name]
    seed = 900 + list(REGIMES).index(name)
    return random_graph(n, random.Random(seed), directed=directed, p=p,
                        weights=weights)


@pytest.mark.parametrize("regime", REGIMES)
def test_reports_match_golden(regime):
    g = regime_graph(regime)
    assert g.content_hash() == REGIMES[regime][4]
    for k in (3, 5):
        for algo, solve in SOLVERS.items():
            r = solve(g, k)
            got = (r.group, r.objective_value, r.raw_farness,
                   r.candidates_evaluated, r.traversals_pruned, r.iterations,
                   r.swaps_committed)
            assert got == GOLDEN[regime, k, algo], (regime, k, algo)


def test_tied_start_reports_match_golden():
    g = Graph(6, [(i, (i + 1) % 6, 1) for i in range(6)])
    for algo, solve in SOLVERS.items():
        r = solve(g, 2)
        got = (r.group, r.objective_value, r.raw_farness,
               r.candidates_evaluated, r.traversals_pruned, r.iterations,
               r.swaps_committed)
        assert got == CYCLE_GOLDEN[algo], algo
