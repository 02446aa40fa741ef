import math
import random
from collections import Counter

import pytest

from groupcent import centrality
from groupcent.centrality import (base_suffixes, greedy, group_harmonic,
                                  marginal_value)
from groupcent.checks import ROUNDING
from groupcent.generators import (directed_strongly_connected, path_graph,
                                  random_graph, star_graph,
                                  undirected_connected)
from groupcent.graph import (Graph, UNREACHABLE, is_connected,
                             multi_source_sssp, reachable_counts, sssp)
from groupcent.closeness import (CLOSENESS, DisconnectedGraphError,
                                 _closeness_start_vertex, _farness_term,
                                 greedy_closeness, local_search_closeness)
from groupcent.harmonic import (HARMONIC, _harmonic_term, greedy_harmonic,
                                harmonic_centralities, local_search_harmonic,
                                pruned_marginal_gain)
from groupcent.oracles import exhaustive_best
from groupcent.reporting import AlgoConfig
from reference import (count_visits, exact_start, per_pair_harmonic,
                       plain_greedy_closeness, plain_greedy_harmonic,
                       without_ball_table)


def top_harmonic_vertex(g):
    """The harmonic start vertex, greedy's first pick: largest harmonic
    centrality, the smallest id on ties."""
    return greedy(g, 1, HARMONIC, Counter())[0][0]


class TestTopVertex:
    def test_star_center(self):
        assert top_harmonic_vertex(star_graph(5)) == 0

    def test_path_middle(self):
        assert top_harmonic_vertex(path_graph([1, 1])) == 1

    def test_matches_brute_force_table(self):
        rng = random.Random(20)
        g = random_graph(15, rng, directed=True, weights=(1, 2))
        values = harmonic_centralities(g)
        best = max(range(g.n), key=lambda u: (values[u], -u))
        assert top_harmonic_vertex(g) == best


def any_graph(rng, directed, weights):
    """Random graph that may be disconnected and may have isolated
    vertices."""
    n = rng.randrange(2, 25)
    p = rng.choice((0.03, 0.1, 0.3))
    edges = [(u, v, rng.choice(weights)) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return Graph(n, edges, directed=directed, check_isolated=False)


def cycle(n, directed, w):
    return Graph(n, [(i, (i + 1) % n, w) for i in range(n)], directed=directed)


def start_traversal(g, u, c, reach, record=None):
    """u's start-scan traversal without a stop value: ``marginal_value``
    over the empty group's base, with ``reach`` as its suffix."""
    nowhere = [UNREACHABLE] * g.n
    bases, _, total, cdist = base_suffixes(nowhere, c)
    return marginal_value(g, nowhere, u, c, (bases, [reach], total, cdist),
                          record=record)


class TestPrunedStartVertices:
    """The pruned start scans pick exactly what exact all-sources scans
    pick: the argmax of exact harmonic centrality and the sum(sssp) argmin,
    smallest id on ties."""

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_match_all_sources_scans(self, directed, weights):
        # the closeness start only runs on (strongly) connected graphs
        rng = random.Random(33 + 2 * directed + len(weights))
        disconnected = connected = 0
        for _ in range(150):
            g = any_graph(rng, directed, weights)
            want = exact_start(g)
            assert top_harmonic_vertex(g) == want
            disconnected += any(d == UNREACHABLE for d in sssp(g, want))
            if is_connected(g):
                totals = [sum(sssp(g, v)) for v in range(g.n)]
                assert _closeness_start_vertex(g) == totals.index(min(totals))
                connected += 1
        assert disconnected > 20 and connected > 10

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("w", (1, 3))
    def test_all_tie_cycles(self, directed, w):
        # every vertex of a cycle has the same centrality, and the same
        # distance histogram, so its start value is the same float: the
        # start is 0 for both objectives
        for n in range(3, 16):
            g = cycle(n, directed, w)
            assert _closeness_start_vertex(g) == 0
            assert top_harmonic_vertex(g) == 0

    def test_values_match_and_recorded_bounds_dominate(self):
        rng = random.Random(37)
        for trial in range(200):
            g = any_graph(rng, bool(trial % 2), (1,) if trial % 4 < 2 else (1, 3))
            values = harmonic_centralities(g)
            reach = reachable_counts(g)
            for u in range(g.n):
                low = values[u] - ROUNDING * max(1.0, values[u])
                rec = []
                exact, value = start_traversal(g, u, _harmonic_term, reach[u],
                                               rec)
                assert exact and abs(value - values[u]) <= values[u] - low
                assert all(b >= low for b in rec)

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_no_start_bound_is_nan(self, directed, weights):
        # the vertices u misses add c(UNREACHABLE) = 0 for either objective:
        # no bound is NaN, greedy's first ones and those after round 1
        # included, and u's farness value is minus the sum of the distances
        # it reaches
        rng = random.Random(41 + 2 * directed + len(weights))
        missed = reached = 0
        for _ in range(100):
            g = any_graph(rng, directed, weights)
            reach = reachable_counts(g)
            for objective in (HARMONIC, CLOSENESS):
                c = objective.c
                for u in range(g.n):
                    rec = []
                    rec.append(start_traversal(g, u, c, reach[u], rec).value)
                    assert not any(map(math.isnan, rec))
                    if c is _farness_term:
                        assert rec[-1] == -sum(d for d in sssp(g, u)
                                               if d != UNREACHABLE)
                for k in (0, 1):
                    bounds = greedy(g, k, objective, Counter())[3]
                    assert not any(map(math.isnan, bounds))
            missed += sum(r < g.n for r in reach)
            reached += sum(r == g.n for r in reach)
        assert missed > 100 and reached > 100

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_reach_counts_never_change_a_selection(self, monkeypatch, directed,
                                                   weights):
        # reach counts only tighten greedy's round-1 bounds: with every
        # count at n, each solver (or its refusal of a disconnected graph)
        # is the same
        rng = random.Random(45 + 2 * directed + len(weights))
        solvers = (greedy_harmonic, local_search_harmonic, greedy_closeness,
                   local_search_closeness)

        def outcomes(g, k):
            out = [top_harmonic_vertex(g)]
            for solve in solvers:
                try:
                    r = solve(g, k, AlgoConfig(k=k))
                except DisconnectedGraphError:
                    out.append(None)
                else:
                    out.append((r.group, r.objective_value, r.raw_farness))
            return out

        cases = []
        for _ in range(60):
            g = any_graph(rng, directed, weights)
            if g.n > 2:
                cases.append((g, rng.randrange(1, min(5, g.n - 1))))
        real = [outcomes(g, k) for g, k in cases]
        monkeypatch.setattr(centrality, "reachable_counts",
                            lambda g: [g.n] * g.n)
        assert [outcomes(g, k) for g, k in cases] == real
        reach = [reachable_counts(g) for g, _ in cases]
        assert sum(min(r) < g.n for r, (g, _) in zip(reach, cases)) > 30
        assert sum(o[-1] is not None for o in real) > 5  # closeness solved too


class TestPrunedMarginalGain:
    def test_exact_matches_scratch_500_cases(self):
        rng = random.Random(21)
        members = 0
        for trial in range(500):
            directed = bool(trial % 2)
            weights = (1,) if trial % 4 < 2 else (1, 2, 3)
            g = random_graph(rng.randrange(5, 12), rng, directed=directed,
                             weights=weights)
            group = sorted(rng.sample(range(g.n), rng.randrange(1, 4)))
            u = rng.randrange(g.n)  # a member's gain is 0
            members += u in group
            exact, gain = pruned_marginal_gain(g, multi_source_sssp(g, group), u)
            assert exact
            expected = (group_harmonic(g, group + [u]).value
                        - group_harmonic(g, group).value)
            assert gain == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert members > 50

    def test_adjacent_candidate_with_nothing_closer(self):
        # candidate adjacent to the group covering nothing new: gain is
        # exactly the loss of its own contribution
        g = star_graph(3)
        assert pruned_marginal_gain(g, multi_source_sssp(g, [0]), 1) == (True, -1.0)

    @pytest.mark.parametrize("directed", (False, True))
    def test_unit_bounds_dominate_exact_gain(self, directed):
        # on possibly disconnected unit-weight graphs every bound the level
        # bound records is at least the exact gain, and a traversal aborts
        # only below stop_below, returning such a bound; both up to the
        # rounding of float sums taken in another order (a tight bound can
        # sit an ulp below the gain)
        rng = random.Random(26 + directed)
        checked = aborted = unreached = 0
        for _ in range(150):
            g = any_graph(rng, directed, (1,))
            group = rng.sample(range(g.n), rng.randrange(1, min(4, g.n) + 1))
            dist = multi_source_sssp(g, group)
            suffix = base_suffixes(dist, _harmonic_term)
            unreached += UNREACHABLE in dist
            gains = [pruned_marginal_gain(g, dist, v, suffix).value
                     for v in range(g.n)]
            for v in range(g.n):
                low = gains[v] - ROUNDING * max(1.0, abs(gains[v]))
                rec = []
                assert pruned_marginal_gain(g, dist, v, suffix,
                                            record=rec) == (True, gains[v])
                assert all(b >= low for b in rec)
                checked += len(rec)
                for stop in (gains[v], gains[v] + 0.5, max(gains) + 1e-9):
                    exact, value = pruned_marginal_gain(g, dist, v, suffix, stop)
                    if exact:
                        assert value == gains[v]
                    else:
                        assert low <= value < stop
                        aborted += 1
        assert checked > 2500 and aborted > 1000 and unreached > 50


class TestGreedy:
    def test_star_k1(self):
        r = greedy_harmonic(star_graph(5), 1, AlgoConfig(k=1))
        assert r.group == [0]
        assert r.objective_value == 5.0

    def test_single_edge_full_group(self):
        r = greedy_harmonic(Graph(2, [(0, 1, 1)]), 2, AlgoConfig(k=2))
        assert r.group == [0, 1]
        assert r.objective_value == 0.0

    def test_k_out_of_range(self):
        g = path_graph([1, 1])
        with pytest.raises(ValueError):
            greedy_harmonic(g, 0)
        with pytest.raises(ValueError):
            greedy_harmonic(g, 4)

    def test_lazy_and_plain_select_identical_groups(self, monkeypatch):
        # unit weights score candidates from the ball table, whose values
        # are exact, and, past its budget, with the BFS kernel, which aborts
        rng = random.Random(24)
        unit_aborts = weighted_aborts = 0
        for trial in range(40):
            weights = (1,) if trial % 2 else (1, 2)
            g = random_graph(rng.randrange(8, 30), rng, directed=bool(trial % 3 == 0),
                             weights=weights)
            k = rng.randrange(2, 6)
            lazy = greedy_harmonic(g, k, AlgoConfig(k=k))
            assert lazy.group == plain_greedy_harmonic(g, k)
            if weights == (1,):
                assert lazy.traversals_pruned == 0
                with monkeypatch.context() as patch:
                    without_ball_table(patch)
                    bfs = greedy_harmonic(g, k, AlgoConfig(k=k))
                assert bfs.group == lazy.group
                unit_aborts += bfs.traversals_pruned
            else:  # only round 1 checks a weighted bound; later gains are exact
                first = greedy_harmonic(g, 1, AlgoConfig(k=1)).traversals_pruned
                assert lazy.traversals_pruned == first
                weighted_aborts += first
        assert unit_aborts and weighted_aborts

    @pytest.mark.parametrize("weights", ((1,), (1, 2, 3)))
    def test_round_1_on_a_star_stays_linear(self, weights, monkeypatch):
        # every leaf's first bound, 1/2 + (n - 1)/2, is below the hub's
        # centrality (1,999 on unit weights, 1,234.3 here on weights 1-3),
        # so round 1 evaluates the hub alone, though it has the largest id:
        # n visits, and n more to lower the distances to the hub's; unit
        # weights run the BFS kernel, as past the ball table's budget
        n = 2000
        rng = random.Random(52)
        g = Graph(n, [(leaf, n - 1, rng.choice(weights)) for leaf in range(n - 1)])
        without_ball_table(monkeypatch)
        visits = count_visits(monkeypatch)
        r = greedy_harmonic(g, 1)
        assert r.group == [n - 1] and r.candidates_evaluated == 1
        assert visits[0] <= 2 * n

    @pytest.mark.parametrize("shape", ("star", "K_2,n"))
    def test_weighted_round_1_stays_linear(self, shape, monkeypatch):
        # weights 1-3, hubs at the largest ids: once a leaf's traversal has
        # counted a hub, the hub's arcs cap how many vertices can sit one
        # step further, and the leaf's bound drops below the best value, so
        # each leaf visits O(1) vertices in round 1 of either objective: at
        # most 5n visits over all evaluations, and n more to lower the
        # distances to the winner's
        visits = count_visits(monkeypatch)
        for n in (2000, 4000):
            rng = random.Random(53)
            hubs = (n - 1,) if shape == "star" else (n - 2, n - 1)
            g = Graph(n, [(leaf, hub, rng.choice((1, 2, 3)))
                          for leaf in range(n - len(hubs)) for hub in hubs])
            for objective in (HARMONIC, CLOSENESS):
                visits[0] = 0
                greedy(g, 1, objective, Counter())
                assert visits[0] <= 6 * n, (n, objective.c)

    def test_huge_weights_cost_no_step_per_distance(self):
        # weights of 10**12 put distances far past n; greedy's exact
        # weighted rounds, and exact gains without a suffix, read only c of
        # each base distance, so nothing is sized by the distances
        rng = random.Random(54)
        for _ in range(5):
            g = undirected_connected(30, rng, extra=0.02, weights=(1, 10**12))
            assert max(multi_source_sssp(g, [0])) > 10**12
            k = 4
            assert (greedy_harmonic(g, k, AlgoConfig(k=k)).group
                    == plain_greedy_harmonic(g, k))
            assert (greedy_closeness(g, k, AlgoConfig(k=k)).group
                    == plain_greedy_closeness(g, k))

    def test_weight_scaling_keeps_selection(self):
        # doubling every weight halves every reciprocal exactly (power-of-two
        # scaling is lossless in binary floats), so selections cannot move
        rng = random.Random(25)
        for _ in range(15):
            g = undirected_connected(10, rng, weights=(2, 3))
            for c in (2, 4):
                scaled = Graph(g.n, [(u, v, w * c) for u, v, w in g.edges()])
                k = 3
                assert (greedy_harmonic(g, k, AlgoConfig(k=k)).group
                        == greedy_harmonic(scaled, k, AlgoConfig(k=k)).group)

    def test_directed_floor_small_sweep(self):
        rng = random.Random(26)
        floor_const = 1 - 2 / math.e
        for _ in range(25):
            g = directed_strongly_connected(rng.randrange(5, 9), rng, weights=(1, 2))
            for k in (1, 2, 3):
                opt = exhaustive_best(g, k, "harmonic").objective_value
                got = greedy_harmonic(g, k, AlgoConfig(k=k)).objective_value
                assert got >= g.lambda_ratio * floor_const * opt - 1e-9

    def test_report_value_matches_recomputation(self):
        rng = random.Random(31)
        for trial in range(10):
            g = random_graph(12, rng, directed=bool(trial % 2))
            r = greedy_harmonic(g, 3, AlgoConfig(k=3))
            assert r.objective_value == group_harmonic(g, r.group).value
            assert len(r.group) == 3


class TestLocalSearch:
    def test_local_optimum_returned_unchanged(self):
        r = local_search_harmonic(star_graph(6), 1, AlgoConfig(k=1))
        assert r.group == [0]
        assert r.swaps_committed == 0

    def test_members_with_equal_removal_loss_scan_in_id_order(self):
        # found by a seeded search: greedy picks {0, 1, 3}, dropping any one
        # of them changes the objective by exactly the same amount, and
        # members 0 and 1 both have acceptable swaps, so only the id
        # tie-break of the member order makes 0's swap commit first
        g = Graph(8, [(0, 1, 1), (0, 3, 1), (0, 7, 1), (1, 2, 1), (1, 4, 1),
                      (2, 7, 1), (3, 4, 1), (3, 5, 1), (4, 6, 1), (6, 7, 1)])
        cfg = AlgoConfig(k=3)
        group = greedy_harmonic(g, 3, cfg).group
        assert group == [0, 1, 3]
        value = group_harmonic(g, group).value
        threshold = value * (1 + cfg.eps / (3 * 5))
        without = [group_harmonic(g, [m for m in group if m != u]).value for u in group]
        assert without[0] == without[1] == without[2]
        for u in (0, 1):
            assert any(group_harmonic(g, sorted({v} | set(group) - {u})).value >= threshold
                       for v in range(g.n) if v not in group)
        r = local_search_harmonic(g, 3, cfg)
        assert r.swap_sequence == [(0, 6)] and r.group == [1, 3, 6]

    def test_never_below_greedy(self):
        rng = random.Random(28)
        for trial in range(25):
            g = random_graph(rng.randrange(6, 14), rng, directed=bool(trial % 2),
                             weights=(1,) if trial % 3 else (1, 2))
            k = rng.randrange(1, 5)
            if k > g.n:
                continue
            greedy = greedy_harmonic(g, k, AlgoConfig(k=k))
            ls = local_search_harmonic(g, k, AlgoConfig(k=k))
            assert ls.objective_value >= greedy.objective_value - 1e-12

    def test_close_to_optimum_on_small_instances(self):
        rng = random.Random(29)
        ratios = []
        for _ in range(20):
            g = undirected_connected(rng.randrange(6, 10), rng, weights=(1, 2))
            for k in (2, 3):
                opt = exhaustive_best(g, k, "harmonic").objective_value
                ls = local_search_harmonic(g, k, AlgoConfig(k=k)).objective_value
                if opt > 0:
                    ratios.append(ls / opt)
        assert sum(ratios) / len(ratios) >= 0.99

    def test_full_group_no_swaps(self):
        g = path_graph([1, 1])
        r = local_search_harmonic(g, 3, AlgoConfig(k=3))
        assert r.group == [0, 1, 2]
        assert r.swaps_committed == 0

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_matches_per_pair_reference(self, directed, weights):
        # one row per candidate commits exactly the swaps that one exact
        # pruned_marginal_gain per (member, candidate) pair commits, on
        # graphs that may be disconnected
        rng = random.Random(34 + 2 * directed + len(weights))
        singletons = swapped = disconnected = 0
        for _ in range(60):
            g = any_graph(rng, directed, weights)
            k = rng.randrange(1, min(5, g.n) + 1)
            r = local_search_harmonic(g, k, AlgoConfig(k=k))
            group, swaps = per_pair_harmonic(g, k, AlgoConfig(k=k).eps)
            assert r.swap_sequence == swaps
            assert r.group == group
            singletons += k == 1
            swapped += bool(swaps)
            disconnected += UNREACHABLE in multi_source_sssp(g, r.group)
        assert singletons and swapped and disconnected

    def test_terminal_state_admits_no_acceptable_swap(self):
        # when the scan stops, every (u, v) swap must sit below the
        # acceptance threshold; catches ordering or early-exit bugs
        rng = random.Random(32)
        for trial in range(25):
            directed = bool(trial % 2)
            weights = (1,) if trial % 3 else (1, 2)
            g = (directed_strongly_connected(rng.randrange(5, 9), rng, weights=weights)
                 if directed else
                 undirected_connected(rng.randrange(5, 9), rng, weights=weights))
            k = rng.randrange(1, min(4, g.n))
            eps = 0.01
            r = local_search_harmonic(g, k, AlgoConfig(k=k, eps=eps))
            members = set(r.group)
            value = group_harmonic(g, r.group).value
            q = k * (g.n - k)
            if q == 0:
                continue
            threshold = value * (1 + eps / q) if value > 0 else value + 1e-9
            for u in r.group:
                for v in range(g.n):
                    if v in members:
                        continue
                    swapped = sorted(members - {u} | {v})
                    val = group_harmonic(g, swapped).value
                    if value > 0:
                        assert val < threshold
                    else:
                        assert val <= threshold

    def test_half_opt_when_negative_gain_fires(self):
        # when some greedy round goes negative on a directed instance the
        # final group still achieves half the optimum
        rng = random.Random(30)
        fired = 0
        for _ in range(60):
            g = directed_strongly_connected(rng.randrange(4, 8), rng)
            k = min(3, g.n - 1)
            r = greedy_harmonic(g, k, AlgoConfig(k=k))
            if any(gain < 0 for gain in r.round_gains):
                fired += 1
                opt = exhaustive_best(g, k, "harmonic").objective_value
                assert r.objective_value >= 0.5 * opt - 1e-9
        # the sweep is tuned so the negative-gain regime actually occurs
        assert fired > 0
