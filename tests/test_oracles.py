import math
import random

import pytest

from groupcent.centrality import group_harmonic
from groupcent.generators import path_graph, random_graph, undirected_connected
from groupcent.graph import Graph
from groupcent.oracles import (BudgetExceededError, InfeasibleAssignmentError,
                               best_random, build_harmonic_model,
                               evaluate_assignment, exhaustive_best,
                               export_ilp_harmonic)


def weighted_path_l2():
    return path_graph([2, 1, 1])


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
        from groupcent.harmonic import greedy_harmonic
        from groupcent.reporting import AlgoConfig
        rng = random.Random(1)
        for trial in range(15):
            g = random_graph(8, rng, directed=bool(trial % 2))
            for k in (1, 2, 3):
                opt = exhaustive_best(g, k, "harmonic").objective_value
                got = greedy_harmonic(g, k, AlgoConfig(k=k))
                assert opt >= got.objective_value - 1e-12


class TestBestRandom:
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


class TestIlpModel:
    def test_path_model_shape(self, tmp_path):
        g = path_graph([1, 1])
        lp = tmp_path / "m.lp"
        model = export_ilp_harmonic(g, 1, lp)
        assert len(model.dist) == 6
        text = lp.read_text()
        assert text.count("assign_") == 3
        assert text.count("link_") == 6
        assert "budget:" in text
        for section in ("Maximize", "Subject To", "Binary", "End"):
            assert section in text
        # objective coefficients are exactly 1 and 0.5 on a 3-path
        obj = next(line for line in text.splitlines() if line.startswith(" obj:"))
        assert "1 x_0_1" in obj and "0.5 x_0_2" in obj

    def test_constraint_count_formula(self, tmp_path):
        g = undirected_connected(6, random.Random(5))
        lp = tmp_path / "m.lp"
        export_ilp_harmonic(g, 2, lp)
        lines = [l for l in lp.read_text().splitlines()
                 if l.startswith((" assign_", " budget:", " link_"))]
        n = g.n
        assert len(lines) == n + 1 + n * (n - 1)

    def test_assignment_reproduces_optimum_value(self, tmp_path):
        rng = random.Random(6)
        for trial in range(10):
            g = random_graph(rng.randrange(5, 9), rng,
                             weights=(1, 2) if trial % 2 else (1,))
            k = rng.randrange(1, 4)
            model = export_ilp_harmonic(g, k, tmp_path / f"m{trial}.lp")
            opt = exhaustive_best(g, k, "harmonic")
            plugged = evaluate_assignment(model, opt.group)
            scale = max(1.0, abs(opt.objective_value))
            assert abs(plugged - opt.objective_value) <= 1e-12 * scale

    def test_two_vertex_group_value(self):
        g = Graph(2, [(0, 1, 1)])
        model = build_harmonic_model(g, 1)
        assert evaluate_assignment(model, [0]) == 1.0

    def test_wrong_group_size_rejected(self):
        model = build_harmonic_model(path_graph([1, 1]), 1)
        with pytest.raises(ValueError):
            evaluate_assignment(model, [0, 1])

    def test_unreachable_vertex_infeasible(self):
        g = Graph(3, [(0, 1, 1), (0, 2, 1)], directed=True)
        model = build_harmonic_model(g, 1)
        # vertex 0 has no incoming arc: model carries a feasibility warning
        assert model.warnings
        with pytest.raises(InfeasibleAssignmentError):
            evaluate_assignment(model, [1])

    def test_directed_model_matches_group_objective(self, tmp_path):
        from groupcent.generators import directed_strongly_connected
        rng = random.Random(7)
        g = directed_strongly_connected(7, rng, weights=(1, 2))
        model = export_ilp_harmonic(g, 2, tmp_path / "d.lp")
        opt = exhaustive_best(g, 2, "harmonic")
        assert evaluate_assignment(model, opt.group) == pytest.approx(
            group_harmonic(g, opt.group).value, rel=1e-12)

    def test_coefficients_round_trip(self, tmp_path):
        g = path_graph([3, 7])
        lp = tmp_path / "w.lp"
        export_ilp_harmonic(g, 1, lp)
        obj = next(line for line in lp.read_text().splitlines()
                   if line.startswith(" obj:"))
        for token in obj.replace(" obj: ", "").split(" + "):
            coeff = float(token.split()[0])
            assert coeff > 0
