import math
import random
from itertools import combinations, product

import pytest

from groupcent.centrality import group_farness_raw, group_harmonic
from groupcent.checks import DIRECTED_FLOOR, UNDIRECTED_FLOOR
from groupcent.closeness import (DisconnectedGraphError, _farness_term,
                                 greedy_closeness, local_search_closeness)
from groupcent.generators import (layered_dag, path_graph, random_graph,
                                  star_graph)
from groupcent.graph import UNREACHABLE, Graph, multi_source_sssp
from groupcent.harmonic import (_harmonic_term, greedy_harmonic,
                                local_search_harmonic)
from groupcent.oracles import BudgetExceededError, best_random, exhaustive_best
from groupcent.reporting import AlgoConfig
from reference import radius_milp


def weighted_path_l2():
    return path_graph([2, 1, 1])


def fan_with_source():
    """Directed 0->1, 0->2, 0->3 and 4->0: nothing reaches 4."""
    return Graph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 0, 1)], directed=True)


class TestExhaustive:
    def test_weighted_path_closeness_optimum(self):
        r = exhaustive_best(weighted_path_l2(), 1, "closeness")
        assert r.group == [1]
        assert r.raw_farness == 5
        assert r.objective_value == 0.8

    def test_single_edge_harmonic_lexicographic_tie(self):
        r = exhaustive_best(Graph(2, [(0, 1, 1)]), 1, "harmonic")
        assert r.group == [0]
        assert r.objective_value == 1.0

    def test_clique_all_but_one(self):
        n = 5
        edges = [(u, v, 1) for u in range(n) for v in range(u + 1, n)]
        r = exhaustive_best(Graph(n, edges), n - 1, "closeness")
        assert r.raw_farness == 1

    def test_budget_refusal_reports_count(self):
        g = random_graph(30, random.Random(0))
        with pytest.raises(BudgetExceededError) as err:
            exhaustive_best(g, 10, "harmonic", budget=1000)
        assert err.value.count == math.comb(30, 10)

    def test_dominates_greedy(self):
        rng = random.Random(1)
        for trial in range(15):
            g = random_graph(8, rng, directed=bool(trial % 2))
            for k in (1, 2, 3):
                opt = exhaustive_best(g, k, "harmonic").objective_value
                got = greedy_harmonic(g, k, AlgoConfig(k=k))
                assert opt >= got.objective_value - 1e-12


class TestOneEnumeration:
    """Both objectives share one enumeration loop over the objective
    records; it must pick what brute force over group values picks."""

    def test_matches_brute_force_in_all_regimes(self):
        rng = random.Random(73)
        for directed, weights in product((False, True), ((1,), (1, 2, 3))):
            for trial in range(6):
                n = rng.randrange(3, 10)
                g = random_graph(n, rng, directed=directed, weights=weights)
                # a DAG, where some vertex misses others, for harmonic only
                dag = layered_dag(rng, layers=3, width=3, weights=weights)
                for k in range(1, min(n, 4)):
                    for graph, kind in ((g, "harmonic"), (g, "closeness"),
                                        (dag, "harmonic")):
                        groups = list(combinations(range(graph.n), k))
                        if kind == "harmonic":
                            values = [group_harmonic(graph, c).value for c in groups]
                        else:
                            values = [-group_farness_raw(graph, c) for c in groups]
                        best = max(values)
                        report = exhaustive_best(graph, k, kind)
                        # index() keeps the first, lexicographically smallest, optimum
                        assert report.group == list(groups[values.index(best)])
                        if kind == "harmonic":
                            assert report.objective_value == best
                        else:
                            assert report.raw_farness == -best
                            assert report.objective_value == graph.n / -best
                        assert report.iterations == len(groups)

    def test_closeness_rejects_a_disconnected_graph_before_the_budget(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(DisconnectedGraphError):
            exhaustive_best(g, 2, "closeness", budget=0)
        with pytest.raises(DisconnectedGraphError):
            best_random(g, 2, trials=3, objective="closeness")
        with pytest.raises(BudgetExceededError):
            exhaustive_best(g, 2, "harmonic", budget=0)

    def test_unknown_objective_rejected(self):
        g = path_graph([1, 1])
        for oracle in (exhaustive_best, best_random):
            with pytest.raises(ValueError, match="unknown objective"):
                oracle(g, 1, objective="betweenness")


class TestBestRandom:
    def test_groups_pinned_on_fixed_seeds(self):
        undirected = random_graph(14, random.Random(4))
        directed = random_graph(12, random.Random(8), directed=True,
                                weights=(1, 2, 3))
        pinned = [  # (graph, objective, seed, group, raw farness)
            (undirected, "harmonic", 0, [1, 2, 4], None),
            (undirected, "harmonic", 5, [5, 11, 12], None),
            (undirected, "closeness", 0, [1, 2, 4], 11),
            (undirected, "closeness", 5, [5, 11, 12], 11),
            (directed, "harmonic", 0, [4, 6, 7], None),
            (directed, "harmonic", 5, [0, 3, 6], None),
            (directed, "closeness", 0, [4, 6, 7], 16),
            (directed, "closeness", 5, [3, 6, 8], 17),
        ]
        for g, objective, seed, group, raw in pinned:
            r = best_random(g, 3, trials=20, seed=seed, objective=objective)
            assert (r.group, r.raw_farness) == (group, raw)
            assert r.algorithm == f"random-{objective[0]}"
            if raw is None:
                assert r.objective_value == group_harmonic(g, group).value
            else:
                assert r.objective_value == g.n / raw

    def test_single_trial_deterministic(self):
        g = random_graph(12, random.Random(2))
        a = best_random(g, 3, trials=1, seed=99)
        b = best_random(g, 3, trials=1, seed=99)
        assert a.group == b.group

    def test_full_set_forced(self):
        g = Graph(2, [(0, 1, 1)])
        r = best_random(g, 2, trials=5, seed=0)
        assert r.group == [0, 1]
        assert r.objective_value == 0.0

    def test_never_beats_exhaustive(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_graph(9, rng)
            for k in (1, 2, 3):
                opt = exhaustive_best(g, k, "harmonic").objective_value
                rand = best_random(g, k, trials=100, seed=7).objective_value
                assert rand <= opt + 1e-12

    def test_monotone_in_trials(self):
        g = random_graph(14, random.Random(4))
        values = [best_random(g, 3, trials=t, seed=5).objective_value
                  for t in (1, 5, 20, 60)]
        assert values == sorted(values)

    def test_closeness_needs_connected(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(ValueError):
            best_random(g, 1, trials=3, seed=0, objective="closeness")


def test_a_config_must_agree_with_the_arguments():
    # a report echoes its config, so the solvers and the oracles refuse a
    # config of another k, trials or seed than they run with
    g = star_graph(6)
    for solve in (greedy_harmonic, local_search_harmonic, greedy_closeness,
                  local_search_closeness):
        with pytest.raises(ValueError, match="k=4"):
            solve(g, 2, AlgoConfig(k=4))
    for objective in ("harmonic", "closeness"):
        with pytest.raises(ValueError, match="k=4"):
            exhaustive_best(g, 2, objective, cfg=AlgoConfig(k=4))
        for cfg in (AlgoConfig(k=4, trials=5, seed=3), AlgoConfig(k=2, seed=3),
                    AlgoConfig(k=2, trials=6, seed=3)):
            with pytest.raises(ValueError):
                best_random(g, 2, 5, 3, objective, cfg=cfg)
    cfg = AlgoConfig(k=2, eps=0.5, trials=5, seed=3)
    assert best_random(g, 2, 5, 3, cfg=cfg).config == cfg.echo()
    assert exhaustive_best(g, 2, cfg=cfg).config == cfg.echo()
    assert greedy_harmonic(g, 2, cfg).config == cfg.echo()


REGIMES = tuple(product((False, True), ((1,), (1, 2, 3))))  # (directed, weights)


def close(value, want):
    """Equal up to float rounding: harmonic values sum in another order."""
    return abs(value - want) <= 1e-9 * max(1.0, abs(want))


class TestIlpModel:
    """The radius MILP of ``reference.radius_milp``: exact optima of both
    objectives past exhaustive enumeration's reach, where scipy is
    installed."""

    @pytest.fixture(autouse=True)
    def scipy(self):
        pytest.importorskip("scipy.optimize")

    def test_two_vertex_group_value(self):
        g = Graph(2, [(0, 1, 1)])
        assert radius_milp(g, 1, _harmonic_term, fixed=[0]) == ([0], 1.0)
        assert radius_milp(g, 1, _farness_term, fixed=[1]) == ([1], -1)

    def test_wrong_group_size_rejected(self):
        g = path_graph([1, 1])
        for k, fixed in ((1, [0, 1]), (2, [0, 0]), (1, [3]), (4, None),
                         (0, None)):
            with pytest.raises(ValueError):
                radius_milp(g, k, _harmonic_term, fixed=fixed)

    def test_unreachable_vertex_scores_zero(self):
        # {0} misses vertex 4, which harmonic scores 0: the group stays
        # feasible and wins
        g = fan_with_source()
        assert radius_milp(g, 1, _harmonic_term, fixed=[0])[1] == 3.0
        assert radius_milp(g, 1, _harmonic_term, fixed=[4])[1] == 2.5
        assert radius_milp(g, 1, _harmonic_term) == ([0], 3.0)
        assert group_harmonic(g, [0]).value == 3.0

    def test_assignment_reproduces_optimum_value(self):
        # the model's value of the exhaustive optimum is its value
        rng = random.Random(6)
        for trial in range(8):
            directed, weights = REGIMES[trial % 4]
            g = random_graph(rng.randrange(5, 9), rng, directed=directed,
                             weights=weights)
            k = rng.randrange(1, 4)
            opt = exhaustive_best(g, k, "harmonic")
            assert close(radius_milp(g, k, _harmonic_term, opt.group)[1],
                         opt.objective_value)
            opt = exhaustive_best(g, k, "closeness")
            assert radius_milp(g, k, _farness_term, opt.group)[1] == -opt.raw_farness

    def test_directed_model_matches_group_objective(self):
        # a pinned group's model value is its group value in every regime,
        # and on DAGs, where members miss vertices
        rng = random.Random(7)
        missed = 0
        for trial in range(12):
            directed, weights = REGIMES[trial % 4]
            g = random_graph(rng.randrange(6, 11), rng, directed=directed,
                             weights=weights)
            group = rng.sample(range(g.n), rng.randrange(1, 4))
            assert radius_milp(g, len(group), _farness_term, group) == (
                sorted(group), -group_farness_raw(g, group))
            dag = layered_dag(rng, 3, 3, weights=weights)
            for graph in (g, dag):
                group = rng.sample(range(graph.n), rng.randrange(1, 4))
                members, value = radius_milp(graph, len(group), _harmonic_term,
                                             group)
                assert members == sorted(group)
                assert close(value, group_harmonic(graph, group).value)
            missed += UNREACHABLE in multi_source_sssp(dag, group)
        assert missed

    def test_milp_optimum_matches_exhaustive(self):
        # 40 graphs, ten per regime, n 8 to 12: the same raw farness and
        # the same harmonic value, which DAGs also check where some vertex
        # stays unreached
        rng = random.Random(8)
        for trial in range(40):
            directed, weights = REGIMES[trial % 4]
            g = random_graph(rng.randrange(8, 13), rng, directed=directed,
                             p=0.2, weights=weights)
            k = 1 + trial % 3
            opt = exhaustive_best(g, k, "harmonic").objective_value
            group, value = radius_milp(g, k, _harmonic_term)
            assert len(group) == k
            assert close(value, opt)
            assert close(group_harmonic(g, group).value, opt)
            opt = exhaustive_best(g, k, "closeness").raw_farness
            group, value = radius_milp(g, k, _farness_term)
            assert value == -opt == -group_farness_raw(g, group)
            if trial % 4 == 1:
                dag = layered_dag(rng, 3, 4, p=0.3, weights=weights)
                opt = exhaustive_best(dag, k, "harmonic").objective_value
                assert close(radius_milp(dag, k, _harmonic_term)[1], opt)

    def test_solvers_against_the_optimum_at_n_30_to_40(self):
        # past exhaustive enumeration: greedy <= local search <= OPT for
        # both objectives, and greedy-h above the proven floor, lambda (1 -
        # 2/e) OPT on directed graphs and lambda (1 - 1/e) / 2 OPT on
        # undirected ones
        rng = random.Random(9)
        for trial in range(8):
            directed, weights = REGIMES[trial % 4]
            n = rng.randrange(30, 41)
            g = random_graph(n, rng, directed=directed, p=3 / n, weights=weights)
            k = 2 + trial % 3
            cfg = AlgoConfig(k=k)
            opt = radius_milp(g, k, _harmonic_term)[1]
            greedy = greedy_harmonic(g, k, cfg).objective_value
            ls = local_search_harmonic(g, k, cfg).objective_value
            assert greedy <= ls <= opt * (1 + 1e-9)
            floor = DIRECTED_FLOOR if directed else UNDIRECTED_FLOOR
            assert greedy >= g.lambda_ratio * floor * opt
            opt = -radius_milp(g, k, _farness_term)[1]
            greedy = greedy_closeness(g, k, cfg).raw_farness
            assert greedy >= local_search_closeness(g, k, cfg).raw_farness >= opt


class TestNetworkxObjectives:
    """Both objectives against networkx, an independent implementation,
    where it is installed. networkx sums distances to a vertex, so a
    directed graph is passed reversed."""

    @pytest.fixture(autouse=True)
    def nx(self):
        return pytest.importorskip("networkx")

    def graphs(self, nx):
        rng = random.Random(10)
        for trial in range(12):
            directed, weights = REGIMES[trial % 4]
            g = (layered_dag(rng, 3, 3, weights=weights) if trial >= 8 else
                 random_graph(rng.randrange(6, 15), rng, directed=directed,
                              p=0.2, weights=weights))
            h = nx.DiGraph() if g.directed else nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_weighted_edges_from((u, v, w) for u in range(g.n)
                                      for v, w in g.arcs[u])
            yield rng, g, h.reverse() if g.directed else h

    def test_harmonic_centrality(self, nx):
        for _, g, h in self.graphs(nx):
            want = nx.harmonic_centrality(h, distance="weight")
            for v in range(g.n):
                assert close(group_harmonic(g, [v]).value, want[v])

    def test_group_closeness(self, nx):
        for rng, g, h in self.graphs(nx):
            if g.directed and not nx.is_strongly_connected(h):
                continue  # farness needs every vertex reached
            for size in (1, 2, 3):
                group = rng.sample(range(g.n), size)
                assert (g.n - size) / group_farness_raw(g, group) == \
                    nx.group_closeness_centrality(h, group, weight="weight")
