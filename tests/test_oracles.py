import math
import random
from itertools import combinations, product

import pytest

from groupcent.centrality import group_farness_raw, group_harmonic
from groupcent.closeness import (DisconnectedGraphError, greedy_closeness,
                                 local_search_closeness)
from groupcent.generators import (layered_dag, path_graph, random_graph,
                                  star_graph, undirected_connected)
from groupcent.graph import Graph
from groupcent.harmonic import greedy_harmonic, local_search_harmonic
from groupcent.oracles import (BudgetExceededError, best_random,
                               build_harmonic_model, evaluate_assignment,
                               exhaustive_best, export_ilp_harmonic)
from groupcent.reporting import AlgoConfig


def weighted_path_l2():
    return path_graph([2, 1, 1])


def fan_with_source():
    """Directed 0->1, 0->2, 0->3 and 4->0: nothing reaches 4."""
    return Graph(5, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (4, 0, 1)], directed=True)


def solve_lp_file(path):
    """(group, value): an optimum of a model written by ``write_lp``, solved
    as read back from its text by scipy's MILP solver."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    index = {}

    def linear(expr):
        coeffs, sign, coef = {}, 1.0, 1.0
        for tok in expr.split():
            if tok in ("+", "-"):
                sign = -1.0 if tok == "-" else 1.0
            elif tok[0].isdigit():
                coef = float(tok)
            else:
                j = index.setdefault(tok, len(index))
                coeffs[j] = coeffs.get(j, 0.0) + sign * coef
                sign, coef = 1.0, 1.0
        return coeffs

    section, objective, rows = None, {}, []
    for line in path.read_text().splitlines():
        if line.startswith("\\"):
            continue
        if not line.startswith(" "):
            section = line
        elif section == "Maximize":
            objective = linear(line.split(":", 1)[1])
        elif section == "Subject To":
            lhs, op, rhs = line.split(":", 1)[1].rsplit(None, 2)
            rows.append((linear(lhs), op, float(rhs)))
        elif section == "Binary":
            index.setdefault(line.strip(), len(index))
    a = np.zeros((len(rows), len(index)))
    lo, hi = [], []
    for r, (coeffs, op, rhs) in enumerate(rows):
        for j, v in coeffs.items():
            a[r, j] = v
        lo.append(rhs if op in ("=", ">=") else -np.inf)
        hi.append(rhs if op in ("=", "<=") else np.inf)
    c = np.zeros(len(index))
    for j, v in objective.items():
        c[j] = -v  # milp minimizes
    res = milp(c, constraints=LinearConstraint(a, lo, hi),
               integrality=np.ones(len(index)), bounds=Bounds(0, 1))
    assert res.success
    group = sorted(int(name[2:]) for name, j in index.items()
                   if name.startswith("y_") and res.x[j] > 0.5)
    return group, -res.fun


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

    def test_unreachable_vertex_scores_zero(self, tmp_path):
        # {0} misses vertex 4, which harmonic scores 0: the group stays
        # feasible and wins
        model = export_ilp_harmonic(fan_with_source(), 1, tmp_path / "f.lp")
        assert evaluate_assignment(model, [0]) == 3.0
        assert evaluate_assignment(model, [4]) == 2.5
        assert " assign_4: y_4 <= 1" in (tmp_path / "f.lp").read_text()

    def test_milp_optimum_matches_exhaustive(self, tmp_path):
        pytest.importorskip("scipy.optimize")
        rng = random.Random(8)
        cases = [(fan_with_source(), 1)]
        for trial in range(10):
            g = (layered_dag(rng, rng.randrange(2, 4), rng.randrange(2, 4),
                             weights=(1, 2)) if trial % 2 else
                 random_graph(rng.randrange(5, 9), rng, directed=trial % 4 == 0,
                              weights=(1, 3)))
            cases.append((g, rng.randrange(1, 4)))
        for i, (g, k) in enumerate(cases):
            model = export_ilp_harmonic(g, k, tmp_path / f"m{i}.lp")
            group, value = solve_lp_file(tmp_path / f"m{i}.lp")
            opt = exhaustive_best(g, k, "harmonic").objective_value
            assert len(group) == k
            assert abs(value - opt) <= 1e-9 * max(1.0, opt)
            assert abs(evaluate_assignment(model, group) - opt) <= 1e-9 * max(1.0, opt)
        assert solve_lp_file(tmp_path / "m0.lp")[0] == [0]

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
