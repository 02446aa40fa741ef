import random
from itertools import combinations

import pytest

from groupcent import graph
from groupcent.graph import (EdgeListFormatError, Graph, GraphError,
                             IsolatedVertexError, UNREACHABLE, closer_levels,
                             is_connected, largest_component, load_edge_list,
                             lower_distances, multi_source_sssp,
                             reachable_counts, sssp)
from groupcent.generators import random_graph
from test_cli import within


def write(tmp_path, text, name="g.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoader:
    def test_smallest_path(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1\n1 2\n"))
        assert g.n == 3
        assert g.num_edges == 2
        assert g.unit_weights

    def test_comment_styles_skipped(self, tmp_path):
        g = load_edge_list(write(tmp_path, "% percent header\n# hash comment\n\n0 1\n"))
        assert g.n == 2

    def test_weighted_lambda(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1 2\n1 2 1\n"), weighted=True)
        assert sorted(w for _, _, w in g.edges()) == [1, 2]
        assert g.lambda_ratio == 0.5

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(EdgeListFormatError, match="line 3"):
            load_edge_list(write(tmp_path, "0 1\n1 2\nbroken line here\n"))

    def test_token_count_mismatch(self, tmp_path):
        with pytest.raises(EdgeListFormatError, match="line 1"):
            load_edge_list(write(tmp_path, "0 1 7\n"))  # weighted line, unweighted parse

    def test_nonpositive_weight(self, tmp_path):
        with pytest.raises(EdgeListFormatError, match="nonpositive"):
            load_edge_list(write(tmp_path, "0 1 0\n"), weighted=True)

    def test_empty_graph(self, tmp_path):
        with pytest.raises(GraphError, match="empty"):
            load_edge_list(write(tmp_path, "% nothing here\n"))

    def test_duplicate_edges_keep_min_weight(self, tmp_path):
        g = load_edge_list(write(tmp_path, "0 1 5\n1 0 2\n"), weighted=True)
        assert g.edges() == [(0, 1, 2)]

    def test_self_loop_only_vertex_dropped_with_warning(self, tmp_path):
        with pytest.warns(UserWarning, match="isolated"):
            g = load_edge_list(write(tmp_path, "5 5\n0 1\n"))
        assert g.n == 2

    def test_isolated_fail_mode(self, tmp_path):
        with pytest.raises(IsolatedVertexError):
            load_edge_list(write(tmp_path, "5 5\n0 1\n"), on_isolated="fail")

    def test_first_appearance_remap(self, tmp_path):
        g = load_edge_list(write(tmp_path, "30 10\n10 20\n"))
        # 30 -> 0, 10 -> 1, 20 -> 2
        assert g.edges() == [(0, 1, 1), (1, 2, 1)]

    def test_negative_id_rejected(self, tmp_path):
        with pytest.raises(EdgeListFormatError, match="negative"):
            load_edge_list(write(tmp_path, "0 1\n-2 1\n"))


class TestLayout:
    # duplicates in both directions, a self-loop and an edge given twice
    EDGES = [(4, 0, 3), (0, 1, 2), (1, 0, 1), (2, 2, 5), (3, 1, 4), (2, 4, 1),
             (5, 3, 2), (1, 5, 7), (5, 1, 6), (0, 3, 1)]

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_adjacency_lists_match_edges(self, directed, weights):
        rng = random.Random(5 + 2 * directed + len(weights))
        for _ in range(30):
            g = random_graph(rng.randrange(2, 25), rng, directed=directed,
                             p=rng.choice((0.05, 0.2, 0.5)), weights=weights)
            arcs = sorted((u, v, w) for u, v, w in g.edges())
            if not directed:
                arcs = sorted(arcs + [(v, u, w) for u, v, w in arcs])
            assert sorted((u, v, w) for u in range(g.n)
                          for v, w in g.arcs[u]) == arcs
            for u in range(g.n):
                assert g.adj[u] == sorted(set(g.adj[u]))
                assert g.adj[u] == [v for v, _ in g.arcs[u]]
                assert g.out_degree(u) == len(g.adj[u])
            assert g.num_edges == len(g.edges())

    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_undirected_components_are_the_reachability_classes(self, weights):
        # an undirected edge is two arcs, so the strongly connected
        # components of an undirected graph are its connected components
        rng = random.Random(9 + len(weights))
        for _ in range(40):
            n = rng.randrange(2, 25)
            edges = [(rng.randrange(n), rng.randrange(n), rng.choice(weights))
                     for _ in range(rng.randrange(n + 1))]
            g = Graph(n, edges, check_isolated=False)
            comp, count = graph.strongly_connected_components(g)
            assert sorted(set(comp)) == list(range(count))
            for u in range(n):
                du = sssp(g, u)
                assert all((comp[u] == comp[v]) == (du[v] != UNREACHABLE)
                           for v in range(n))

    def test_hash_and_edges_pinned(self):
        g = Graph(6, self.EDGES)
        assert g.content_hash() == "727c3d17cd21a305"
        assert g.edges() == [(0, 1, 1), (0, 3, 1), (0, 4, 3), (1, 3, 4),
                             (1, 5, 6), (2, 4, 1), (3, 5, 2)]
        g = Graph(6, self.EDGES, directed=True)
        assert g.content_hash() == "e81c7d32c013934a"
        assert g.edges() == [(0, 1, 2), (0, 3, 1), (1, 0, 1), (1, 5, 7),
                             (2, 4, 1), (3, 1, 4), (4, 0, 3), (5, 1, 6),
                             (5, 3, 2)]


class TestLargestComponent:
    def test_two_triangles_tie_to_smallest_id(self):
        edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)]
        g = largest_component(Graph(6, edges))
        assert g.n == 3
        assert g.edges() == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]

    def test_directed_two_cycle_with_dangling_arc(self):
        g = Graph(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1)], directed=True)
        lc = largest_component(g)
        assert lc.n == 2
        assert lc.edges() == [(0, 1, 1), (1, 0, 1)]

    def test_connected_graph_identity(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        lc = largest_component(g)
        assert lc.n == 4
        assert lc.edges() == g.edges()


class TestShortestPaths:
    def test_unit_path(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)])
        assert sssp(g, 0) == [0, 1, 2]

    def test_directed_arc_has_no_reverse_path(self):
        g = Graph(2, [(0, 1, 1)], directed=True)
        assert sssp(g, 1) == [UNREACHABLE, 0]

    def test_weighted_relaxation(self):
        g = Graph(3, [(0, 1, 3), (0, 2, 1), (2, 1, 1)])
        assert sssp(g, 0)[1] == 2

    def test_multi_source_single_matches_sssp(self):
        rng = random.Random(0)
        g = random_graph(12, rng)
        for s in range(g.n):
            assert multi_source_sssp(g, [s]) == sssp(g, s)

    def test_multi_source_path_ends(self):
        g = Graph(5, [(i, i + 1, 1) for i in range(4)])
        assert multi_source_sssp(g, [0, 4]) == [0, 1, 2, 1, 0]

    def test_multi_source_empty_rejected(self):
        g = Graph(2, [(0, 1, 1)])
        with pytest.raises(ValueError):
            multi_source_sssp(g, [])

    def test_multi_source_is_elementwise_min_exhaustive(self):
        # every source subset of size <= 4 on a random 15-vertex graph
        rng = random.Random(1)
        g = random_graph(15, rng, weights=(1, 2, 3))
        per_source = [sssp(g, s) for s in range(g.n)]
        for size in range(1, 5):
            for subset in combinations(range(g.n), size):
                expected = [min(per_source[s][v] for s in subset)
                            for v in range(g.n)]
                assert multi_source_sssp(g, subset) == expected

    def test_undirected_distances_symmetric(self):
        rng = random.Random(2)
        for _ in range(5):
            g = random_graph(10, rng, weights=(1, 2))
            table = [sssp(g, s) for s in range(g.n)]
            for u in range(g.n):
                for v in range(g.n):
                    assert table[u][v] == table[v][u]

    def test_edge_relaxation_triangle_inequality(self):
        rng = random.Random(3)
        for directed in (False, True):
            g = random_graph(12, rng, directed=directed, weights=(1, 2, 3))
            for s in range(g.n):
                d = sssp(g, s)
                for u, v, w in g.edges():
                    if d[u] != UNREACHABLE:
                        assert d[v] <= d[u] + w
                    if not directed and d[v] != UNREACHABLE:
                        assert d[u] <= d[v] + w

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_lowering_adds_the_seeds_to_the_group(self, directed, weights):
        rng = random.Random(4 + directed + len(weights))
        for _ in range(40):
            g = random_graph(rng.randrange(2, 25), rng, directed=directed,
                             p=rng.choice((0.05, 0.15)), weights=weights)
            a = rng.sample(range(g.n), rng.randrange(1, min(4, g.n) + 1))
            b = rng.sample(range(g.n), rng.randrange(1, min(4, g.n) + 1))
            dist = multi_source_sssp(g, a)
            lower_distances(g, dist, b)
            assert dist == multi_source_sssp(g, a + b)
            nowhere = [UNREACHABLE] * g.n
            lower_distances(g, nowhere, b)
            assert nowhere == multi_source_sssp(g, b)


class TestReachableCounts:
    def test_connected_undirected_all_n(self):
        rng = random.Random(4)
        g = random_graph(9, rng)
        assert reachable_counts(g) == [9] * 9

    def test_directed_path(self):
        g = Graph(3, [(0, 1, 1), (1, 2, 1)], directed=True)
        assert reachable_counts(g) == [3, 2, 1]

    def _dfs_counts(self, g):
        counts = []
        for s in range(g.n):
            seen = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for v in g.adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            counts.append(len(seen))
        return counts

    def test_matches_dfs_oracle_small(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(4, 14)
            edges = [(rng.randrange(n), rng.randrange(n), 1) for _ in range(3 * n)]
            edges += [(i, (i + 1) % n, 1) for i in range(n)]  # avoid isolated
            g = Graph(n, edges, directed=True)
            assert reachable_counts(g) == self._dfs_counts(g)

    def test_matches_dfs_oracle_200(self):
        rng = random.Random(6)
        n = 200
        edges = [(rng.randrange(n), rng.randrange(n), 1) for _ in range(500)]
        edges += [(i, (i + 1) % n, 1) for i in range(0, n - 1, 2)]
        edges += [(i, rng.randrange(n), 1) for i in range(n)]
        g = Graph(n, edges, directed=True)
        assert reachable_counts(g) == self._dfs_counts(g)

    def test_sum_bound_past_the_mask_cap(self, monkeypatch):
        # too many components x vertices for bitsets: the counts become
        # upper bounds, |C| + the successors' counts capped at n
        monkeypatch.setattr(graph, "REACH_MASK_BITS", 0)
        rng = random.Random(7)
        loose = 0
        for _ in range(60):
            n = rng.randrange(4, 30)
            edges = [(rng.randrange(n), rng.randrange(n), 1) for _ in range(2 * n)]
            edges += [(i, i + 1, 1) for i in range(0, n - 1, 3)]
            g = Graph(n, edges, directed=True, check_isolated=False)
            exact = self._dfs_counts(g)
            counts = reachable_counts(g)
            assert all(e <= r <= n for e, r in zip(exact, counts))
            loose += counts != exact
        assert loose > 10
        path = Graph(50, [(i, i + 1, 1) for i in range(49)], directed=True)
        assert reachable_counts(path) == list(range(50, 0, -1))

    @pytest.mark.parametrize("n", (8_000, 20_000))  # bitsets at the cap, then the sum
    def test_long_directed_paths_return_promptly(self, n):
        g = Graph(n, [(i, i + 1, 1) for i in range(n - 1)], directed=True)
        assert within(10, reachable_counts, g) == list(range(n, 0, -1))
        g = Graph(n, [(i, (i + 1) % n, 1) for i in range(n)], directed=True)
        assert within(10, reachable_counts, g) == [n] * n


class TestBallTable:
    @pytest.mark.parametrize("directed", (False, True))
    def test_balls_are_the_distance_classes(self, directed):
        # bit x of table[d][v] is set iff dist(v, x) <= d; the last level is
        # the largest finite distance (1 without arcs), and a ball that
        # stopped growing keeps its int
        rng = random.Random(8 + directed)
        for trial in range(40):
            n = rng.randrange(1, 25)
            edges = [(rng.randrange(n), rng.randrange(n), 1)
                     for _ in range(rng.randrange(0, 2 * n))]
            g = Graph(n, edges, directed=directed, check_isolated=False)
            table = graph.ball_table(g)
            rows = [sssp(g, v) for v in range(n)]
            top = max([d for row in rows for d in row if d != UNREACHABLE] + [1])
            assert len(table) == top + 1
            for d, level in enumerate(table):
                assert len(level) == n
                for v, row in enumerate(rows):
                    assert level[v] == sum(1 << x for x, dx in enumerate(row)
                                           if dx <= d)
                    if d and level[v] == table[d - 1][v]:
                        assert level[v] is table[d - 1][v]

    def test_none_past_the_budget(self, monkeypatch):
        # n bits per ball: a 10-cycle keeps 10 levels of 10 balls each,
        # 1,000 bits, and one bit fewer refuses it
        g = Graph(10, [(i, (i + 1) % 10, 1) for i in range(10)], directed=True)
        monkeypatch.setattr(graph, "REACH_MASK_BITS", 1000)
        assert len(graph.ball_table(g)) == 10
        monkeypatch.setattr(graph, "REACH_MASK_BITS", 999)
        assert graph.ball_table(g) is None
        monkeypatch.setattr(graph, "REACH_MASK_BITS", 0)
        assert graph.ball_table(g) is None


def test_is_connected():
    assert is_connected(Graph(3, [(0, 1, 1), (1, 2, 1)]))
    assert not is_connected(Graph(4, [(0, 1, 1), (2, 3, 1)]))
    assert is_connected(Graph(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)], directed=True))
    assert not is_connected(Graph(3, [(0, 1, 1), (1, 2, 1)], directed=True))
    # vertex 0 is reached by every vertex but reaches none
    assert not is_connected(Graph(3, [(1, 0, 1), (2, 0, 1), (1, 2, 1), (2, 1, 1)],
                                  directed=True))
    # vertex 0 reaches every vertex but none reaches it
    assert not is_connected(Graph(3, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 1, 1)],
                                  directed=True))


class TestCloserTraversals:
    """closer_levels visits exactly the vertices strictly closer to the
    seeds than the base, each once, at its sssp distance, a whole distance
    class per level, in both weight regimes."""

    @staticmethod
    def cases(directed, weights):
        rng = random.Random(41 + 2 * directed + len(weights))
        for _ in range(80):
            n = rng.randrange(2, 20)
            p = rng.choice((0.05, 0.15, 0.3))
            edges = [(u, v, rng.choice(weights)) for u in range(n)
                     for v in range(n) if u != v and rng.random() < p]
            g = Graph(n, edges, directed=directed, check_isolated=False)
            bases = [[UNREACHABLE] * n]
            for _ in range(3):
                group = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
                bases.append(multi_source_sssp(g, group))
            for dbase in bases:
                yield g, dbase, rng.randrange(n)

    @staticmethod
    def settled(g, dbase, seeds):
        return [(d, x) for d, level in closer_levels(g, dbase, seeds) for x in level]

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_yield_exactly_the_closer_vertices(self, directed, weights):
        cut = 0
        for g, dbase, v in self.cases(directed, weights):
            dv = sssp(g, v)
            want = {x for x in range(g.n) if dv[x] < dbase[x]} | {v}
            pairs = self.settled(g, dbase, (v,))
            xs = [x for _, x in pairs]
            assert pairs[0] == (0, v)
            assert len(xs) == len(set(xs)) and set(xs) == want
            assert all(d == dv[x] for d, x in pairs)
            assert [d for d, _ in pairs] == sorted(d for d, _ in pairs)
            cut += len(want) < sum(d != UNREACHABLE for d in dv)
        assert cut > 50  # the base hides some reachable vertices

    @pytest.mark.parametrize("directed", (False, True))
    def test_levels_are_whole_distance_classes(self, directed):
        for g, dbase, v in [*self.cases(directed, (1,)),
                            *self.cases(directed, (1, 2, 5))]:
            dv = sssp(g, v)
            levels = list(closer_levels(g, dbase, (v,)))
            ds = [d for d, _ in levels]
            if g.unit_weights:
                assert ds == list(range(len(levels)))
            else:
                assert ds[0] == 0 and all(a < b for a, b in zip(ds, ds[1:]))
            for d, level in levels:
                assert set(level) == ({x for x in range(g.n)
                                       if dv[x] == d and d < dbase[x]}
                                      | ({v} if d == 0 else set()))
                if not g.unit_weights:  # Dijkstra's settle order
                    assert level == sorted(level)

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_several_seeds(self, directed, weights):
        rng = random.Random(43)
        for g, dbase, _ in self.cases(directed, weights):
            seeds = rng.sample(range(g.n), rng.randrange(1, min(4, g.n) + 1))
            dv = multi_source_sssp(g, seeds)
            levels = list(closer_levels(g, dbase, seeds))
            assert levels[0] == (0, sorted(seeds))
            pairs = [(d, x) for d, level in levels for x in level]
            assert sorted(x for _, x in pairs) == sorted(
                {x for x in range(g.n) if dv[x] < dbase[x]} | set(seeds))
            assert all(d == dv[x] for d, x in pairs)

    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_abandoned_generator_leaves_a_fresh_run_unchanged(self, weights):
        for g, dbase, v in self.cases(True, weights):
            first = list(closer_levels(g, dbase, (v,)))
            half = closer_levels(g, dbase, (v,))
            for _ in range(len(first) // 2):
                next(half)
            assert list(closer_levels(g, dbase, (v,))) == first
            half.close()
            assert list(closer_levels(g, dbase, (v,))) == first
