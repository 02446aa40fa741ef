import io
import random
import sys
from bisect import bisect_left
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest

from groupcent import centrality, cli, closeness, harmonic
from groupcent.centrality import (DisconnectedFarnessError, ball_suffix,
                                  base_suffixes, greedy, group_farness_raw,
                                  group_harmonic, harmonic_sum,
                                  marginal_value, patched_distances,
                                  removal_cost, state_init, swap_rows)
from groupcent.closeness import CLOSENESS
from groupcent.closeness import _farness_term
from groupcent.harmonic import HARMONIC, _harmonic_term
from groupcent.generators import (path_graph, random_graph, star_graph,
                                  undirected_connected)
from groupcent.graph import (Graph, UNREACHABLE, ball_table, closer_levels,
                             multi_source_sssp, sssp)
from groupcent.reporting import AlgoConfig
from groupcent.generators import directed_strongly_connected
from reference import (count_visits, per_member_state, suffix_ge,
                       without_ball_table)


def weighted_path_l2():
    # 4-path with first edge weight 2, the closeness counter-example shape
    return path_graph([2, 1, 1])


def farness(state):
    """The group's raw farness, from the removal pass with c = -d."""
    return -removal_cost(state, _farness_term)[0]


class TestGroupHarmonic:
    def test_single_edge_values(self):
        g = Graph(2, [(0, 1, 1)])
        assert group_harmonic(g, [0]).value == 1.0
        assert group_harmonic(g, [0, 1]).value == 0.0

    def test_star_center(self):
        assert group_harmonic(star_graph(5), [0]).value == 5.0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            group_harmonic(Graph(2, [(0, 1, 1)]), [])

    def test_matches_naive_double_loop(self):
        rng = random.Random(10)
        for _ in range(30):
            g = random_graph(10, rng, directed=True, weights=(1, 2, 3))
            group = sorted(rng.sample(range(g.n), 3))
            tables = [sssp(g, u) for u in group]
            expected = 0.0
            for v in range(g.n):
                if v in group:
                    continue
                d = min(t[v] for t in tables)
                if d != UNREACHABLE:
                    expected += 1.0 / d
            assert group_harmonic(g, group).value == pytest.approx(expected, rel=1e-12)


class TestGroupFarness:
    def test_weighted_path_golden_values(self):
        g = weighted_path_l2()
        assert group_farness_raw(g, [0]) == 9
        assert group_farness_raw(g, [1]) == 5
        assert group_farness_raw(g, [0, 1]) == 3

    def test_full_group_zero(self):
        g = weighted_path_l2()
        assert group_farness_raw(g, [0, 1, 2, 3]) == 0

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1, 1), (2, 3, 1)])
        with pytest.raises(DisconnectedFarnessError):
            group_farness_raw(g, [0])

    def test_closeness_not_submodular_witness(self):
        # exact rationals from raw sums on the weighted 4-path; the late
        # marginal beats the early one, so closeness has no diminishing returns
        g = weighted_path_l2()
        gc = lambda group: Fraction(g.n, group_farness_raw(g, group))
        gc_empty = Fraction(0)
        late = gc([0, 1]) - gc([0])
        early = gc([1]) - gc_empty
        assert late == Fraction(8, 9)
        assert early == Fraction(4, 5)
        assert late > early

    def test_farness_monotone_under_addition(self):
        rng = random.Random(11)
        for _ in range(30):
            g = undirected_connected(9, rng, weights=(1, 2))
            base = sorted(rng.sample(range(g.n), 2))
            extra = rng.choice([x for x in range(g.n) if x not in base])
            assert group_farness_raw(g, base + [extra]) <= group_farness_raw(g, base)

    def test_harmonic_not_monotone_regression(self):
        g = Graph(2, [(0, 1, 1)])
        assert group_harmonic(g, [0]).value > group_harmonic(g, [0, 1]).value


class TestState:
    def test_path_tie_break_and_second_distances(self):
        g = Graph(5, [(i, i + 1, 1) for i in range(4)])
        st = state_init(g, [0, 4])
        assert st.nearest_member == [0, 0, 0, 4, 4]
        assert st.dist_second[2] == 2
        assert farness(st) == 4

    def test_singleton_second_is_sentinel(self):
        g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        st = state_init(g, [1])
        assert all(d == UNREACHABLE for d in st.dist_second)

    def test_second_distance_matches_per_source_oracle(self):
        # all three lists, exactly, in all four regimes, with k from 1 to 4;
        # every other graph is sparse random arcs, so directed ones are
        # mostly not strongly connected and leave vertices unreached
        rng = random.Random(12)
        unreached = tied = 0
        for trial in range(400):
            directed = bool(trial % 2)
            weights = (1,) if trial % 4 < 2 else (1, 2, 3)
            n = rng.randrange(2, 14)
            if trial % 8 < 4:
                g = random_graph(n, rng, directed=directed, weights=weights)
            else:
                edges = [(rng.randrange(n), rng.randrange(n), rng.choice(weights))
                         for _ in range(n + 2)]
                g = Graph(n, edges, directed=directed, check_isolated=False)
            group = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
            st = state_init(g, group)
            lists = st.dist_nearest, st.nearest_member, st.dist_second
            assert lists == per_member_state(g, group)
            unreached += -1 in st.nearest_member
            tied += any(a == b != UNREACHABLE
                        for a, b in zip(st.dist_nearest, st.dist_second))
        assert unreached and tied

    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("w", [1, 2])
    def test_tie_heavy_graphs_keep_the_smallest_id(self, directed, w):
        # cycles, stars and grids put many vertices at equal distance from
        # several members; the nearest member must be the smallest id
        side = 4
        grid = [(r * side + c, r * side + c + 1, w)
                for r in range(side) for c in range(side - 1)]
        grid += [(r * side + c, (r + 1) * side + c, w)
                 for r in range(side - 1) for c in range(side)]
        graphs = [
            Graph(8, [(i, (i + 1) % 8, w) for i in range(8)], directed=directed),
            Graph(7, [(0, i, w) for i in range(1, 7)], directed=directed),
            Graph(side * side, grid, directed=directed),
        ]
        rng = random.Random(15)
        for g in graphs:
            for k in range(1, 5):
                for _ in range(25):
                    group = rng.sample(range(g.n), k)
                    st = state_init(g, group)
                    assert ((st.dist_nearest, st.nearest_member, st.dist_second)
                            == per_member_state(g, group))

    def test_unit_weights_make_no_heap_operations(self, monkeypatch):
        ops = Counter()

        def counted(name):
            real = getattr(centrality, name)

            def op(*args):
                ops[name] += 1
                return real(*args)
            return op

        for name in ("heappush", "heappop"):
            monkeypatch.setattr(centrality, name, counted(name))
        rng = random.Random(16)
        state_init(undirected_connected(30, rng), [0, 7, 19])
        assert not ops
        state_init(undirected_connected(30, rng, weights=(1, 2)), [0, 7, 19])
        assert ops["heappush"] and ops["heappop"]

    def test_raw_farness_matches_scratch(self):
        # from the removal pass: farness exactly, and harmonic bit for bit,
        # as harmonic_sum sums it
        rng = random.Random(13)
        for _ in range(20):
            g = undirected_connected(9, rng, weights=(1, 2))
            group = sorted(rng.sample(range(g.n), 2))
            st = state_init(g, group)
            assert farness(st) == group_farness_raw(g, group)
            assert (removal_cost(st, _harmonic_term)[0]
                    == harmonic_sum(st.dist_nearest, st.member_set))


class TestRemovalCost:
    """``cost[u]`` is objective(S) - objective(S - u), with 0 for no
    members: exactly for farness, to rounding for harmonic."""

    def test_path_end_removal(self):
        g = Graph(5, [(i, i + 1, 1) for i in range(4)])
        st = state_init(g, [0, 4])
        assert removal_cost(st, _farness_term) == (-4, {0: 6, 4: 6})

    def test_member_with_no_assignments(self):
        g = star_graph(4)  # center 0
        st = state_init(g, [0, 1])
        # every outside vertex is nearest to the center, so dropping leaf 1
        # only reintroduces its own distance
        assert removal_cost(st, _farness_term)[1][1] == st.dist_second[1]

    def test_matches_scratch_difference(self):
        # farness, in all four regimes
        rng = random.Random(14)
        singletons = 0
        for trial in range(200):
            weights = (1,) if trial % 4 < 2 else (1, 2, 3)
            g = sparse_graph(rng, bool(trial % 2), weights, connected=True)
            k = rng.randrange(1, min(4, g.n - 1) + 1)
            group = sorted(rng.sample(range(g.n), k))
            objective, cost = removal_cost(state_init(g, group), _farness_term)
            assert objective == -group_farness_raw(g, group)
            assert sorted(cost) == group
            for u in group:
                rest = [m for m in group if m != u]
                without = -group_farness_raw(g, rest) if rest else 0
                assert objective - cost[u] == without
            singletons += k == 1
        assert singletons

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 3)))
    def test_harmonic_costs_match_scratch_difference(self, directed, weights):
        # mostly graphs some vertex of which no member reaches, and groups
        # whose removals leave a vertex uncovered
        rng = random.Random(24 + 2 * directed + len(weights))
        uncovered = orphaning = singletons = 0
        for trial in range(60):
            g = sparse_graph(rng, directed, weights, connected=trial % 4 == 0)
            k = rng.randrange(1, min(4, g.n - 1) + 1)
            group = sorted(rng.sample(range(g.n), k))
            st = state_init(g, group)
            objective, cost = removal_cost(st, _harmonic_term)
            assert objective == group_harmonic(g, group).value
            for u in group:
                rest = [m for m in group if m != u]
                without = group_harmonic(g, rest).value if rest else 0.0
                assert abs(objective - cost[u] - without) <= 1e-12 * max(1.0, without)
            uncovered += -1 in st.nearest_member
            orphaning += k > 1 and any(st.nearest_member[x] != x
                                       and st.dist_second[x] == UNREACHABLE
                                       and st.dist_nearest[x] != UNREACHABLE
                                       for x in range(g.n))
            singletons += k == 1
        assert singletons and uncovered and orphaning

    def test_single_member_loses_the_whole_objective(self):
        g = weighted_path_l2()
        st = state_init(g, [1])
        assert removal_cost(st, _farness_term) == (-5, {1: -5})
        objective, cost = removal_cost(st, _harmonic_term)
        assert objective == cost[1] == 1 / 2 + 1 + 1 / 2


def state_apply_swap(state, u, v):
    """State for (S + v) - u, rebuilt from scratch."""
    if u not in state.member_set:
        raise ValueError(f"{u} is not a group member")
    if v in state.member_set:
        raise ValueError(f"{v} already in group")
    new_members = [m for m in state.members if m != u] + [v]
    return state_init(state.graph, new_members)


class TestSwap:
    def test_swap_then_swap_back(self):
        g = undirected_connected(8, random.Random(15))
        st = state_init(g, [0, 3])
        swapped = state_apply_swap(st, 3, 5)
        back = state_apply_swap(swapped, 5, 3)
        assert farness(back) == farness(st)
        assert back.members == st.members

    def test_swap_matches_scratch(self):
        rng = random.Random(16)
        for _ in range(20):
            g = undirected_connected(9, rng, weights=(1, 2))
            group = sorted(rng.sample(range(g.n), 3))
            st = state_init(g, group)
            u = rng.choice(group)
            v = rng.choice([x for x in range(g.n) if x not in group])
            new = state_apply_swap(st, u, v)
            assert farness(new) == group_farness_raw(g, new.members)

    def test_weighted_path_swap_golden(self):
        g = weighted_path_l2()
        st = state_init(g, [1])
        new = state_apply_swap(st, 1, 0)
        assert farness(st) == 5
        assert farness(new) == 9

    def test_patched_distances_match_reduced_group(self):
        rng = random.Random(17)
        for _ in range(20):
            g = undirected_connected(9, rng, weights=(1, 2, 3))
            group = sorted(rng.sample(range(g.n), 3))
            st = state_init(g, group)
            for u in group:
                reduced = [m for m in group if m != u]
                from groupcent.graph import multi_source_sssp
                assert patched_distances(st, u) == multi_source_sssp(g, reduced)


def sparse_graph(rng, directed, weights, connected):
    """Random graph on 4 to 13 vertices; unless ``connected``, it may be
    disconnected and have isolated vertices."""
    n = rng.randrange(4, 14)
    if connected:
        return (directed_strongly_connected(n, rng, weights=weights) if directed
                else undirected_connected(n, rng, weights=weights))
    p = rng.choice((0.1, 0.2, 0.35))
    edges = [(u, v, rng.choice(weights)) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    return Graph(n, edges, directed=directed, check_isolated=False)


class TestSwapRows:
    """Every (u, v) value a swap row gives equals the objective of the
    swapped group: exactly for farness, to rounding for harmonic."""

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 3)))
    def test_farness_rows_match_oracle(self, directed, weights):
        rng = random.Random(60 + 2 * directed + len(weights))
        singletons = 0
        for _ in range(40):
            g = sparse_graph(rng, directed, weights, connected=True)
            k = rng.randrange(1, min(4, g.n - 1) + 1)
            group = sorted(rng.sample(range(g.n), k))
            row = swap_rows(state_init(g, group), _farness_term)
            singletons += k == 1
            for v in range(g.n):
                if v in group:
                    continue
                common, entry = row(v)
                assert set(entry) <= set(group) and 0 not in entry.values()
                for u in group:
                    rest = [m for m in group if m != u]
                    without = -group_farness_raw(g, rest) if rest else 0
                    assert (without + common + entry.get(u, 0)
                            == -group_farness_raw(g, rest + [v]))
        assert singletons

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 3)))
    def test_harmonic_rows_match_oracle(self, directed, weights):
        rng = random.Random(70 + 2 * directed + len(weights))
        uncovered = orphaning = 0
        for trial in range(60):
            g = sparse_graph(rng, directed, weights, connected=trial % 4 == 0)
            k = rng.randrange(1, min(4, g.n - 1) + 1)
            group = sorted(rng.sample(range(g.n), k))
            st = state_init(g, group)
            row = swap_rows(st, _harmonic_term)
            uncovered += -1 in st.nearest_member
            orphaning += k > 1 and any(st.nearest_member[x] != x
                                       and st.dist_second[x] == UNREACHABLE
                                       and st.dist_nearest[x] != UNREACHABLE
                                       for x in range(g.n))
            for v in range(g.n):
                if v in group:
                    continue
                common, entry = row(v)
                for u in group:
                    rest = [m for m in group if m != u]
                    without = group_harmonic(g, rest).value if rest else 0.0
                    got = without + common + entry.get(u, 0)
                    want = group_harmonic(g, rest + [v]).value
                    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert uncovered and orphaning

    @pytest.mark.parametrize("directed", (False, True))
    def test_table_rows_match_traversal_rows(self, directed):
        # unit graphs, connected or not, k = 1 included, where every second
        # distance is UNREACHABLE: the ball table's rows equal the
        # traversal's, common and every entry, exactly for farness and to
        # rounding for harmonic (farness only on connected graphs, as its
        # traversal rows need c >= 0 where the group leaves vertices
        # unreached); some candidates' balls reach members, and
        # levels take both branches, the walk over at most k bits of v's
        # ball in the cells and one popcount per member
        rng = random.Random(90 + directed)
        singletons = disconnected = reaching = walked = counted = 0
        for trial in range(40):
            connected = trial % 2 == 0
            g = sparse_graph(rng, directed, (1,), connected)
            table = ball_table(g)
            k = rng.randrange(1, min(4, g.n - 1) + 1)
            group = sorted(rng.sample(range(g.n), k))
            st = state_init(g, group)
            singletons += k == 1
            disconnected += UNREACHABLE in st.dist_nearest
            objectives = [(_harmonic_term, 1e-12)]
            if connected:
                objectives.append((_farness_term, 0))
            for c, slack in objectives:
                by_table = swap_rows(st, c, table)
                by_traversal = swap_rows(st, c)
                for v in range(g.n):
                    if v in group:
                        continue
                    common, entry = by_table(v)
                    want, want_entry = by_traversal(v)
                    pairs = [(common, want)] + [
                        (entry.get(u, 0), want_entry.get(u, 0)) for u in group]
                    for got, want in pairs:
                        assert abs(got - want) <= slack * max(1.0, abs(want))
            # the bits of v's ball in level d's cells: within d of v and of
            # exactly one member
            for v in set(range(g.n)) - set(group):
                dv = sssp(g, v)
                reaching += any(dv[u] != UNREACHABLE for u in group)
                for d in range(1, len(table)):
                    hits = sum(dv[x] <= d and st.dist_nearest[x] <= d
                               < st.dist_second[x] for x in range(g.n))
                    walked += 0 < hits <= k
                    counted += hits > k
        assert singletons and disconnected and reaching and walked and counted

    @pytest.mark.parametrize("algo", ("ls-h", "ls-c"))
    def test_unit_solve_builds_one_table_and_rows_run_no_traversal(
            self, algo, monkeypatch):
        # solve builds the ball table once for greedy and local search, and
        # local search's passes yield no closer_levels level
        builds, searched = [], []
        monkeypatch.setattr(centrality, "ball_table",
                            lambda g: builds.append(g) or ball_table(g))
        visits = count_visits(monkeypatch)
        search = centrality.local_search

        def tracked(*args):
            before = visits[0]
            result = search(*args)
            searched.append(visits[0] - before)
            return result

        monkeypatch.setattr(centrality, "local_search", tracked)
        solve = (harmonic.local_search_harmonic if algo == "ls-h"
                 else closeness.local_search_closeness)
        rng = random.Random(85)
        swaps = 0
        for trial in range(20):
            make = directed_strongly_connected if trial % 2 else undirected_connected
            g = make(rng.randrange(15, 40), rng, extra=0.05, weights=(1,))
            k = rng.randrange(1, 5)
            builds[:] = []
            swaps += solve(g, k, AlgoConfig(k=k, eps=1e-6)).swaps_committed
            assert builds == [g]
        assert searched == [0] * 20 and swaps

    @pytest.mark.parametrize("algo", ("closeness", "harmonic"))
    def test_a_pass_builds_each_row_at_most_once(self, algo, monkeypatch):
        # every pass builds at most one row per non-member, local search
        # runs no marginal kernel of its own, and the reports count
        # greedy's evaluations plus every row
        per_pass = []

        def counting(state, c, table):
            built = []
            per_pass.append((len(state.members), built))
            row = swap_rows(state, c, table)
            return lambda v: built.append(v) or row(v)

        kernels = []

        def counted(kernel):
            return lambda *args: kernels.append(1) or kernel(*args)

        module = closeness if algo == "closeness" else harmonic
        monkeypatch.setattr(centrality, "swap_rows", counting)
        monkeypatch.setattr(harmonic, "pruned_marginal_gain",
                            counted(harmonic.pruned_marginal_gain))
        monkeypatch.setattr(closeness, "farness_decrease",
                            counted(closeness.farness_decrease))
        rng = random.Random(80)
        multi_pass = 0
        for trial in range(30):
            make = directed_strongly_connected if trial % 2 else undirected_connected
            g = make(rng.randrange(15, 40), rng, extra=0.05,
                     weights=(1,) if trial % 4 < 2 else (1, 2))
            k = rng.randrange(1, 5)
            cfg = AlgoConfig(k=k, eps=1e-6)
            before = len(kernels)
            greedy = getattr(module, f"greedy_{algo}")(g, k, cfg)
            mid = len(kernels)
            ls = getattr(module, f"local_search_{algo}")(g, k, cfg)
            assert len(kernels) - mid == mid - before
            passes, per_pass[:] = per_pass[:], []
            assert len(passes) == ls.iterations
            multi_pass += ls.iterations > 1
            rows = 0
            for size, built in passes:
                assert size == k
                assert len(set(built)) == len(built) <= g.n - k
                rows += len(built)
            assert ls.traversals_pruned == greedy.traversals_pruned
            assert ls.candidates_evaluated == greedy.candidates_evaluated + rows
        assert multi_pass


class TestBaseSuffixes:
    """The BFS kernel's suffixes; unit-weight greedy reads them only past
    the ball table's budget, so these tests run there."""

    @pytest.fixture(autouse=True)
    def bfs_kernel(self, monkeypatch):
        without_ball_table(monkeypatch)

    def test_counts_and_sums_match_a_scan(self):
        # per distinct finite base distance t >= 1, ascending: how many
        # vertices are t or more away and c of their distances summed; the
        # last index counts only the unreachable ones, which add
        # c(UNREACHABLE) = 0. A threshold t reads the index of the first
        # base at t or more, the last one past every base
        rng = random.Random(44)
        for trial in range(30):
            g = random_graph(rng.randrange(6, 20), rng, directed=bool(trial % 2),
                             p=0.05)
            group = rng.sample(range(g.n), rng.randrange(1, 4))
            dist = multi_source_sssp(g, group)
            if trial % 3 == 0:  # vertices the group does not reach
                dist[rng.randrange(g.n)] = UNREACHABLE
            bases, count, total, cdist = base_suffixes(dist, _harmonic_term)
            assert cdist == [_harmonic_term(d) for d in dist]
            far = [d for d in dist if d != UNREACHABLE]
            assert bases == sorted(set(far) - {0})
            assert len(count) == len(total) == len(bases) + 1
            for t in range(1, max(far) + 3):
                ds = [d for d in dist if d >= t]
                i = bisect_left(bases, t)
                assert count[i] == len(ds)
                assert total[i] == pytest.approx(sum(map(_harmonic_term, ds)),
                                                 rel=1e-12, abs=1e-12)
            assert total[-1] == 0
            if UNREACHABLE in dist:
                bases, count, total, cdist = base_suffixes(far, _farness_term)
                for t in range(1, max(far) + 3):
                    i = bisect_left(bases, t)
                    assert (count[i], -total[i]) == suffix_ge(far, t)
                assert cdist == [-d for d in far]

    def test_size_is_linear_in_n_whatever_the_weights(self):
        # lists as long as the distinct bases, not the largest one: bases
        # of 10^12 and more cost what bases of 1 to 3 do
        huge = 10 ** 12
        dist = [0, huge, 2 * huge, 3 * huge, 2 * huge, UNREACHABLE]
        for c in (_harmonic_term, _farness_term):
            bases, count, total, _ = base_suffixes(dist, c)
            assert bases == [huge, 2 * huge, 3 * huge]
            assert count == [5, 4, 2, 1]
            assert total[-1] == 0
        assert total == [-8 * huge, -7 * huge, -3 * huge, 0]

    def test_built_once_per_scan_and_once_per_unit_weight_round(self,
                                                                 monkeypatch):
        # the start scan builds one for the empty group's base, and every
        # later unit-weight round one for its group's; later weighted
        # rounds are exact and read only c of each base distance
        built = []
        real = centrality.base_suffixes
        monkeypatch.setattr(centrality, "base_suffixes",
                            lambda dist, c: built.append(c) or real(dist, c))
        rng = random.Random(45)
        for weights in ((1,), (1, 2)):
            g = undirected_connected(20, rng, weights=weights)
            for solve in (harmonic.greedy_harmonic, closeness.greedy_closeness):
                built.clear()
                solve(g, 4, AlgoConfig(k=4))
                assert len(built) == (4 if g.unit_weights else 1)


class TestBallSuffix:
    @pytest.mark.parametrize("directed", (False, True))
    def test_table_values_match_the_traversal(self, directed):
        # over the base of a group of 0-4 members, on unit-weight graphs
        # that may leave vertices unreached, the value from the ball table
        # is the traversal's exact one: equal for farness, to rounding for
        # harmonic
        rng = random.Random(50 + directed)
        cases = empty = unreached = 0
        for _ in range(150):
            n = rng.randrange(2, 25)
            p = rng.choice((0.03, 0.1, 0.3))
            g = Graph(n, [(u, v, 1) for u in range(n) for v in range(n)
                          if u != v and rng.random() < p],
                      directed=directed, check_isolated=False)
            table = ball_table(g)
            group = rng.sample(range(n), rng.randrange(0, min(4, n) + 1))
            dist = multi_source_sssp(g, group) if group else [UNREACHABLE] * n
            empty += not group
            unreached += bool(group) and UNREACHABLE in dist
            for c in (_farness_term, _harmonic_term):
                suffix = ball_suffix(table, group, c)
                for v in range(n):
                    got = marginal_value(g, dist, v, c, suffix)
                    exact, want = marginal_value(g, dist, v, c)
                    assert got.is_exact and exact
                    if c is _farness_term:
                        assert got.value == want
                    else:
                        assert got.value == pytest.approx(want, rel=1e-12,
                                                          abs=1e-12)
                    cases += 1
        assert cases > 2500 and empty > 15 and unreached > 50

    @pytest.mark.parametrize("directed", (False, True))
    def test_greedy_traverses_only_to_lower_the_distances(self, directed,
                                                          monkeypatch):
        # under the budget, unit-weight greedy runs no traversal per
        # candidate: ``closer_levels`` yields only the vertices each
        # winner's ``lower_distances`` lowers
        visits = count_visits(monkeypatch)
        rng = random.Random(51 + directed)
        for trial in range(20):
            g = random_graph(rng.randrange(10, 40), rng, directed=directed,
                             p=0.1)
            k = rng.randrange(1, 6)
            for objective in (HARMONIC, CLOSENESS):
                visits[0] = 0
                group = greedy(g, k, objective, Counter())[0]
                seen, lowered = visits[0], 0
                before = [UNREACHABLE] * g.n
                for i in range(k):
                    after = multi_source_sssp(g, group[:i + 1])
                    lowered += sum(a < b for a, b in zip(after, before))
                    before = after
                assert seen == lowered


class TestLevelBound:
    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5), (1, 1000)))
    def test_bounds_match_a_recount(self, directed, weights):
        # after each level d the bound is the value so far, plus c(d+1) -
        # c(d+2) for as many uncounted vertices at base b >= d+2 as the cap
        # allows, plus c(d+2) - c(b) for every uncounted one at b >= d+3;
        # the cap counts the arcs (x, w) out of counted vertices x with
        # d_x + w = d+1, less one parent arc per vertex of level d > 0 on
        # undirected unit weights. Recounted here from the levels the
        # traversal yields, over bases that may leave vertices unreached;
        # a suffix left out is built by the kernel. Weights 1 and 1,000
        # make levels skip many distances at once
        rng = random.Random(48 + directed + 2 * len(weights))
        checked = 0
        for _ in range(60):
            g = random_graph(rng.randrange(6, 20), rng, directed=directed,
                             p=0.15, weights=weights)
            back = g.unit_weights and not directed
            group = rng.sample(range(g.n), rng.randrange(1, 4))
            dist = multi_source_sssp(g, group)
            for c in (_harmonic_term, _farness_term):
                suffix = base_suffixes(dist, c)
                for v in range(g.n):
                    if not dist[v]:
                        continue
                    want, at, value = [], {}, -c(dist[v])
                    for d, level in closer_levels(g, dist, (v,)):
                        at.update(dict.fromkeys(level, d))
                        if d:
                            value += sum(c(d) - c(dist[x]) for x in level)
                        cap = sum(1 for x, e in at.items()
                                  for _, w in g.arcs[x] if e + w == d + 1)
                        cap -= back * bool(d) * len(level)
                        rest = [b for x, b in enumerate(dist)
                                if x not in at and b >= d + 2]
                        want.append(
                            value + min(cap, len(rest)) * (c(d + 1) - c(d + 2))
                            + sum(c(d + 2) - c(b) for b in rest if b >= d + 3))
                    rec = []
                    res = marginal_value(g, dist, v, c, suffix if v % 2 else None,
                                         record=rec)
                    assert res.is_exact
                    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
                    if c is _farness_term:
                        assert (res.value, rec) == (value, want)
                    else:
                        assert rec == pytest.approx(want, rel=1e-12, abs=1e-12)
                    checked += len(rec)
        assert checked > 1000


class TestGreedyDistances:
    """greedy starts from the empty group's distances, all UNREACHABLE, and
    lowers that one ``dist`` after each round."""

    @pytest.mark.parametrize("algo", ("closeness", "harmonic"))
    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("weights", ((1,), (1, 2, 5)))
    def test_every_round_sees_the_group_distances(self, algo, directed,
                                                  weights, monkeypatch):
        # members sit at distance 0 and nowhere else, so each round's
        # group is the set of zeros in the dist its gains read
        seen = {}
        module = closeness if algo == "closeness" else harmonic
        name = "farness_decrease" if algo == "closeness" else "pruned_marginal_gain"
        real = getattr(module, name)

        def gain(g, dist, *args):
            seen.setdefault(dist.count(0), []).append(dist.copy())
            return real(g, dist, *args)

        monkeypatch.setattr(module, name, gain)
        make = directed_strongly_connected if directed else undirected_connected
        rng = random.Random(46 + directed + len(weights))
        for _ in range(8):
            g = make(rng.randrange(15, 35), rng, extra=0.1, weights=weights)
            k = rng.randrange(2, 7)
            seen.clear()
            report = getattr(module, f"greedy_{algo}")(g, k, AlgoConfig(k=k))
            assert sorted(seen) == list(range(k))
            assert all(d == [UNREACHABLE] * g.n for d in seen.pop(0))
            for dists in seen.values():
                group = [x for x, d in enumerate(dists[0]) if d == 0]
                assert set(group) < set(report.group)
                assert all(d == multi_source_sssp(g, group) for d in dists)

    def test_a_solve_searches_once(self, monkeypatch, tmp_path):
        # the reports sum the distances the solvers keep, so the solvers
        # run no from-scratch search, k = 1 included; a CLI solve runs one,
        # to check the report
        calls = []
        real = multi_source_sssp
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("groupcent")
                    and getattr(module, "multi_source_sssp", None) is real):
                monkeypatch.setattr(module, "multi_source_sssp",
                                    lambda g, s: calls.append(1) or real(g, s))
        assert centrality.multi_source_sssp is not real
        rng = random.Random(47)
        for weights, solve, k in product(
                ((1,), (1, 2)),
                (harmonic.greedy_harmonic, harmonic.local_search_harmonic,
                 closeness.greedy_closeness, closeness.local_search_closeness),
                (1, 5)):
            g = undirected_connected(25, rng, weights=weights)
            calls.clear()
            report = solve(g, k, AlgoConfig(k=k))
            assert not calls, (weights, solve.__name__, k)
            if report.raw_farness is None:
                assert report.objective_value == group_harmonic(
                    g, report.group).value
            else:
                assert report.raw_farness == group_farness_raw(g, report.group)
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v, _ in g.edges()))
        for algo in ("greedy-h", "ls-h", "greedy-c", "ls-c"):
            calls.clear()
            with redirect_stdout(io.StringIO()):
                assert cli.main(["solve", "--graph", str(path), "--k", "3",
                                 "--algo", algo]) == 0
            assert len(calls) == 1, algo


    def test_round_gains_sum_to_the_greedy_objective(self):
        # greedy starts from the empty group, whose objective is 0, so its
        # k round gains sum to the objective: exactly to -farness, and to
        # the harmonic value up to float rounding
        rng = random.Random(49)
        for trial in range(20):
            g = undirected_connected(rng.randrange(10, 30), rng,
                                     weights=(1,) if trial % 2 else (1, 2))
            k = rng.randrange(1, 6)
            r = closeness.greedy_closeness(g, k)
            assert len(r.round_gains) == k
            assert sum(r.round_gains) == -r.raw_farness
            r = harmonic.greedy_harmonic(g, k)
            assert len(r.round_gains) == k
            assert sum(r.round_gains) == pytest.approx(r.objective_value,
                                                       rel=1e-12)


class TestObjectiveRecords:
    def test_solvers_call_the_patched_module_kernels(self, monkeypatch):
        # a tracer records spans by replacing module attributes, so the
        # objective records must look their kernels up when called; round
        # 1 runs them too, and the closeness start is off the solve path
        calls = Counter()

        def count(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args: calls.update([name]) or real(*args))

        count(harmonic, "pruned_marginal_gain")
        count(closeness, "farness_decrease")
        count(closeness, "_closeness_start_vertex")
        g = undirected_connected(20, random.Random(72))
        for k, (solve, kernel) in product((1, 4), (
                (harmonic.greedy_harmonic, "pruned_marginal_gain"),
                (harmonic.local_search_harmonic, "pruned_marginal_gain"),
                (closeness.greedy_closeness, "farness_decrease"),
                (closeness.local_search_closeness, "farness_decrease"))):
            calls.clear()
            solve(g, k, AlgoConfig(k=k))
            assert calls[kernel] > 0, solve.__name__
            assert calls["_closeness_start_vertex"] == 0, solve.__name__


class TestSubmodularitySample:
    def test_diminishing_returns_small_sample(self):
        rng = random.Random(18)
        for trial in range(60):
            g = random_graph(9, rng, directed=bool(trial % 2),
                             weights=(1, 2, 3) if trial % 3 == 0 else (1,))
            t_set = sorted(rng.sample(range(g.n), rng.randrange(2, 5)))
            s_set = sorted(rng.sample(t_set, rng.randrange(1, len(t_set))))
            v = rng.choice([x for x in range(g.n) if x not in t_set])
            gain_small = (group_harmonic(g, s_set + [v]).value
                          - group_harmonic(g, s_set).value)
            gain_large = (group_harmonic(g, t_set + [v]).value
                          - group_harmonic(g, t_set).value)
            assert gain_small >= gain_large - 1e-9


def test_harmonic_sum_skips_members_and_unreachable():
    dist = [0, 1, 2, UNREACHABLE]
    assert harmonic_sum(dist, {0}) == 1.0 + 0.5
