"""Group centrality objectives, the incremental group-distance state, and
the bounded marginal value, lazy greedy from the empty group, removal pass
and single-swap local search both objectives share, each parameterized by c,
what one vertex at distance d adds (0 when unreachable); ``solve`` runs
them for the ``Objective`` record that holds what differs. On unit weights,
while a table of bitset balls fits its bit budget, ``solve`` builds it
once: greedy scores candidates exactly from it, and local search scores
swaps from it, with no traversal per candidate or per swap row. Without
a table, greedy's round 1, and closeness's round 2, score every candidate
from one streamed sweep of masked balls (``sweep_values``) after one
traversal, while the sweep's window fits the same budget and its levels
fit in the traversals it replaces.

Group-harmonic centrality of a group S sums reciprocal distances from S to
every outside vertex (unreachable vertices contribute zero). Group farness
is kept internally as the raw integer sum of distances; group closeness
(n / raw) and normalized farness (raw / n) are derived views, so all swap
acceptance thresholds can be compared in exact arithmetic.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Callable, NamedTuple

from . import graph
from .graph import (Graph, UNREACHABLE, ball_levels, ball_table, closer_levels,
                    lower_distances, multi_source_sssp, reachable_counts)
from .reporting import AlgoConfig, RunReport, checked_config, solver_report


class DisconnectedFarnessError(ValueError):
    """Some vertex is unreachable from the group, so farness is undefined."""


@dataclass(frozen=True)
class ObjectiveValue:
    kind: str  # "harmonic"
    value: float


def harmonic_sum(dist, members) -> float:
    """Sum of reciprocal distances over vertices outside ``members``."""
    total = 0.0
    for x, d in enumerate(dist):
        if x in members or d == UNREACHABLE:
            continue
        total += 1.0 / d
    return total


def group_harmonic(g: Graph, group) -> ObjectiveValue:
    members = set(group)
    _validate_group(g, members)
    dist = multi_source_sssp(g, members)
    return ObjectiveValue("harmonic", harmonic_sum(dist, members))


def group_farness_raw(g: Graph, group) -> int:
    """Exact integer sum of dist(S, v) over v outside S."""
    members = set(group)
    _validate_group(g, members)
    return farness_sum(multi_source_sssp(g, members), members)


def farness_sum(dist, members) -> int:
    """Sum of ``dist`` over vertices outside ``members``, all reachable."""
    total = 0
    for x, d in enumerate(dist):
        if x in members:
            continue
        if d == UNREACHABLE:
            raise DisconnectedFarnessError(f"vertex {x} unreachable from group")
        total += d
    return total


def _validate_group(g, members):
    if not members:
        raise ValueError("empty group")
    for u in members:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} out of range")


@dataclass
class GroupDistanceState:
    """Nearest / second-nearest member distances for a current group.

    ``nearest_member[x]`` is the member nearest to x, the smallest id at
    equal distance, and -1 when no member reaches x. ``dist_second[x]`` is
    the distance from the group without that member, so one O(n) pass
    (``removal_cost``) scores every removal and one row per candidate
    (``swap_rows``), from the ball table or one traversal, every swap.
    ``state_init`` builds all three lists in one traversal: a BFS, O(n +
    m), on unit weights, a heap otherwise.
    """

    graph: Graph = field(repr=False)
    members: tuple[int, ...]
    member_set: frozenset[int] = field(repr=False)
    dist_nearest: list = field(repr=False)
    nearest_member: list = field(repr=False)
    dist_second: list = field(repr=False)


def state_init(g: Graph, group) -> GroupDistanceState:
    """Single traversal keeping the best two labels with distinct origins.

    A label (d, origin) reaches a vertex from one member; a vertex keeps
    its first label as nearest and the next from another origin as second,
    and passes on only the labels it keeps, so each vertex relays at most
    two. Every vertex receives its labels in (distance, origin) order, so
    at ties the nearest member recorded is the one with the smallest id.
    Unit weights run a level-synchronous BFS, O(n + m): level 0 labels the
    sorted members with themselves, and each level is expanded in order,
    keeping the origins of a level ascending. Weighted graphs pop labels
    from a heap.
    """
    members = sorted(set(group))
    _validate_group(g, members)
    n = g.n
    nearest = [UNREACHABLE] * n
    rep = [-1] * n
    second = [UNREACHABLE] * n
    if g.unit_weights:
        adj = g.adj
        full = bytearray(n)  # both labels kept
        for s in members:
            rep[s] = s
            nearest[s] = 0
        labels = [(s, s) for s in members]
        d = 0
        while labels:
            d += 1
            kept = []
            for r, x in labels:
                for y in adj[x]:
                    if not full[y]:
                        m = rep[y]
                        if m == -1:
                            rep[y] = r
                            nearest[y] = d
                            kept.append((r, y))
                        elif m != r:
                            second[y] = d
                            full[y] = 1
                            kept.append((r, y))
            labels = kept
    else:
        arcs = g.arcs
        heap = [(0, s, s) for s in members]
        while heap:
            d, r, x = heappop(heap)
            if rep[x] == r or second[x] != UNREACHABLE:
                continue
            if rep[x] == -1:
                rep[x] = r
                nearest[x] = d
            else:
                second[x] = d
            for y, w in arcs[x]:
                if second[y] == UNREACHABLE and rep[y] != r:
                    heappush(heap, (d + w, r, y))
    return GroupDistanceState(
        graph=g,
        members=tuple(members),
        member_set=frozenset(members),
        dist_nearest=nearest,
        nearest_member=rep,
        dist_second=second,
    )


def removal_cost(state: GroupDistanceState, c):
    """(objective, cost) in one O(n) pass; ``c`` as in ``swap_rows``.
    ``objective`` sums c(dist_nearest[x]) over the outside vertices in id
    order, as ``harmonic_sum`` does for c = 1/d. ``cost[u]`` is what
    dropping member u loses, objective(S) - objective(S - u), with 0 for
    no members: each reached outside x adds c(dist_nearest[x]) -
    c(dist_second[x]) to its nearest member's cost, and u, once outside,
    adds c(dist_second[u])."""
    rep = state.nearest_member
    d2 = state.dist_second
    members = state.member_set
    objective = 0
    cost = dict.fromkeys(state.members, 0)
    for x, d in enumerate(state.dist_nearest):
        if x in members:
            cost[x] -= c(d2[x])
            continue
        cd = c(d)
        objective += cd
        if d != UNREACHABLE:
            cost[rep[x]] += cd - c(d2[x])
    return objective, cost


def patched_distances(state: GroupDistanceState, u: int) -> list:
    """Distances from the group without member u, derived in O(n)."""
    if u not in state.member_set:
        raise ValueError(f"{u} is not a group member")
    rep = state.nearest_member
    d2 = state.dist_second
    out = state.dist_nearest.copy()
    for x in range(state.graph.n):
        if rep[x] == u:
            out[x] = d2[x]
    return out


def swap_rows(state: GroupDistanceState, c, table=None):
    """``row(v)`` scores swapping candidate v for each member u: the
    objective of S - u + v is that of S - u (0 for S = {u}) plus
    ``common + entry.get(u, 0)``. ``c(d)`` is what an outside vertex at
    distance d adds to the objective, with c(0) >= c(d) >= c(UNREACHABLE) = 0.

    Without u, distances change only where u is nearest, to
    ``dist_second``; so one closer-than-base traversal (``closer_levels``)
    from v over the 1-Lipschitz ``dist_second`` reaches every vertex any
    swap of v improves. A visited x at distance d adds c(d) -
    c(dist_nearest[x]), if positive, to ``common`` and the rest of its gain
    against ``dist_second[x]`` to the entry of its nearest member; v
    itself, now a member, adds -c(dist_nearest[v]). Only nonzero entries
    are kept.

    Given the graph's ball table (``graph.ball_table``), rows run no
    traversal; see ``_table_rows``.
    """
    if table:
        return _table_rows(state, c, table)
    g = state.graph
    rep = state.nearest_member
    d2 = state.dist_second
    c1 = [c(d) for d in state.dist_nearest]
    c2 = [c(d) for d in d2]

    def row(v):
        levels = closer_levels(g, d2, (v,))
        next(levels)  # (0, [v])
        common = -c1[v]
        e = c1[v] - c2[v]
        entry = {rep[v]: e} if e else {}
        for d, level in levels:
            cd = c(d)
            for x in level:
                b = c1[x]
                if cd > b:
                    common += cd - b
                    e = b - c2[x]
                else:
                    e = cd - c2[x]
                if e:
                    m = rep[x]
                    entry[m] = entry.get(m, 0) + e
        return common, entry

    return row


def _table_rows(state: GroupDistanceState, c, table):
    """``swap_rows`` from the ball table of ``state``'s graph, with no
    traversal per row. Per level d = 1..L of the table, the pass builds
    beyond_d, the vertices farther than d from every member, and each
    member u's cell_d(u), the vertices within d of u and of no other
    member: those whose nearest member is u, with dist_nearest <= d <
    dist_second, u itself included. x lies within d of two members iff
    dist_second[x] <= d, so k ORs and ANDs of the members' balls per level
    give both, O(L k) bitset operations in all.

    As in ``marginal_value``'s table branch, a vertex x whose base b, its
    distance from S - u, exceeds its distance e from v gains c(e) - c(b),
    the sum of the weights w_d over the levels e <= d < b: c(d) - c(d+1),
    or c(L) at the last level, which closes the sum of an unreached x at
    c(e). Without u, b > d holds iff x lies beyond d or in cell_d(u). So
    ``common`` sums w_d popcount(ball_d(v) & beyond_d) and ``entry[u]`` w_d
    popcount(ball_d(v) & cell_d(u)); v, counted as moved to distance 1,
    joins S - u + v instead, so c(1) is taken from ``common``. Where v's
    ball meets the cells of a level in at most k bits, the row walks those
    bits and adds w_d to each one's nearest member; otherwise it takes one
    popcount per member. A member whose cells v's balls miss has no entry.
    """
    members = state.members
    rep = state.nearest_member
    everyone = (1 << len(table[0])) - 1
    top = len(table) - 1
    levels = []
    for d in range(1, top + 1):
        balls = table[d]
        once = twice = 0  # within d of some member, of two or more
        for m in members:
            ball = balls[m]
            twice |= once & ball
            once |= ball
        far, union = everyone ^ once, once & ~twice
        if not (far or union):  # so are all later levels
            break
        levels.append((balls, far, union, [balls[m] & ~twice for m in members],
                       c(d) if d == top else c(d) - c(d + 1)))
    walk_up_to = len(members)
    c_one = c(1)

    def row(v):
        common = -c_one
        entry = {}
        for balls, far, union, cells, w in levels:
            ball = balls[v]
            if far:
                common += w * (ball & far).bit_count()
            hit = ball & union
            if not hit:
                continue
            if hit.bit_count() <= walk_up_to:
                while hit:
                    low = hit & -hit
                    m = rep[low.bit_length() - 1]
                    entry[m] = entry.get(m, 0) + w
                    hit ^= low
            else:
                for m, cell in zip(members, cells):
                    count = (ball & cell).bit_count()
                    if count:
                        entry[m] = entry.get(m, 0) + w * count
        return common, entry

    return row


def local_search(g: Graph, group, c, plan, stats, table=None):
    """Single-swap local search from ``group``; ``c`` as in ``swap_rows``.
    Unless ``table`` is None, the rows read it, the graph's ball table
    (``unit_table``), and run no traversal.

    Each pass scores every removal with one ``removal_cost`` pass and scans
    the members by (cost, id), cheapest removal first. ``plan(state,
    objective)`` gives the candidates in scan order and ``accepts(value)``,
    which judges the objective after a swap; the swap of v for u scores
    objective - cost[u] + common + entry[u] from v's row. The first
    accepted swap in member-major order commits; a pass without one ends
    the search. Rows are built when first needed and kept for the pass: at
    most n - k per pass, counted in ``stats["evaluated"]``, passes in
    ``stats["iterations"]``. Returns (group, [(u, v), ...], the group's
    distances).
    """
    swaps = []
    while True:
        stats["iterations"] += 1
        state = state_init(g, group)
        objective, cost = removal_cost(state, c)
        candidates, accepts = plan(state, objective)
        row = swap_rows(state, c, table)
        rows = {}
        for u in sorted(cost, key=lambda m: (cost[m], m)):
            without = objective - cost[u]
            for v in candidates:
                r = rows.get(v)
                if r is None:
                    r = rows[v] = row(v)
                    stats["evaluated"] += 1
                if accepts(without + r[0] + r[1].get(u, 0)):
                    break
            else:
                continue
            swaps.append((u, v))
            group = sorted(set(group) - {u} | {v})
            break
        else:
            return group, swaps, state.dist_nearest


class Marginal(NamedTuple):
    """What ``marginal_value`` returns; ``bench/tracing.py`` counts the
    aborted traversals of both objectives by ``is_exact``, which is always
    true from a ``BallSuffix``."""
    is_exact: bool
    value: float  # the exact change, or an upper bound on it once aborted


class BallSuffix(NamedTuple):
    """``marginal_value``'s suffix from a ball table (``graph.ball_table``)
    and a group, from ``ball_suffix``. For d = 1, 2, ...: ``balls[d-1]`` is
    the table's level d, ``beyond[d-1]`` the bitset of the vertices farther
    than d from every member (all of them for the empty group), and
    ``weight[d-1]`` is c(d) - c(d+1), or c(L) at the table's last level L;
    levels where nothing is beyond are left out."""
    balls: list
    beyond: list
    weight: list


def ball_suffix(table, group, c) -> BallSuffix:
    """The ``BallSuffix`` of ``group`` over ``table``, in O(L k) bitset
    operations for L levels and k members."""
    everyone = (1 << len(table[0])) - 1
    top = len(table) - 1
    balls, beyond, weight = [], [], []
    for d in range(1, top + 1):
        level = table[d]
        near = 0
        for m in group:
            near |= level[m]
        if near == everyone:
            break
        balls.append(level)
        beyond.append(everyone ^ near)
        weight.append(c(d) if d == top else c(d) - c(d + 1))
    return BallSuffix(balls, beyond, weight)


def base_suffixes(dist, c):
    """(bases, count, total, cdist) for ``marginal_value``'s bounds, from
    one counting pass over ``dist`` and a sort of its distinct values, so
    O(n log n) time and O(n) memory whatever the weights: ``bases`` lists
    the distinct finite base distances t >= 1 ascending, and ``count[i]``
    vertices are at distance ``bases[i]`` or more, c of their distances
    summing to ``total[i]``; the last index holds only the unreachable
    vertices. A threshold t reads index ``bisect_left(bases, t)``.
    ``cdist[x]`` is c(dist[x]). c(UNREACHABLE) is 0, so the unreachable
    vertices add nothing to any total."""
    at = Counter(dist)
    far = at.pop(UNREACHABLE, 0)
    at.pop(0, None)
    bases = sorted(at)
    count = [far] * (len(bases) + 1)
    total = [far * c(UNREACHABLE)] * (len(bases) + 1)
    for i in range(len(bases) - 1, -1, -1):
        t = bases[i]
        count[i] = count[i + 1] + at[t]
        total[i] = total[i + 1] + at[t] * c(t)
    return bases, count, total, [c(d) for d in dist]


def marginal_value(g: Graph, dist, v: int, c, suffix=None, stop_below=None,
                   record=None) -> Marginal:
    """(exact, value): the change in the objective when v joins the group
    whose distances are ``dist``, or (False, bound) once an upper bound on
    it drops below ``stop_below``; an exact 0 when v is already a member.
    ``record`` collects every bound checked. ``c`` is what a vertex at
    distance d adds, as in ``swap_rows``. One closer-than-base traversal
    (``closer_levels``) from v: each vertex x it reaches past v trades
    c(dist[x]) for c(d), and v itself, now a member, loses c(dist[v]); the
    terms are summed in traversal order, level by level and by id within a
    level. Over the empty group's base (all UNREACHABLE) every term of a
    level is the same c(d), so the value depends only on how many vertices
    each level holds.

    Given ``stop_below`` or ``record``, the loop checks the level bound
    of Bergamini et al. (TKDD 2019), written in c, after each level d, in
    both weight regimes, over ``suffix``, ``base_suffixes(dist, c)``;
    otherwise it only sums the terms, over cdist. Either is built here
    when not given. Over the empty group's base the suffix is ([], [r],
    total, cdist), r the number of vertices v reaches or more. An
    uncounted x gains only if it ends closer than its base distance b, at
    d+1 or more: at most a cap of those with b >= d+2 end at d+1, and
    every other one gains at most c(d+2) - c(b), positive only for b >=
    d+3. A vertex first reached at d+1 has a counted shortest-path
    predecessor x (the cut is exact), so the cap is the number of arcs
    (x, w) out of counted vertices with d_x + w = d+1: level d's fan-out
    on unit weights, less one parent arc per vertex of a level d > 0 when
    undirected; otherwise a tally by d_x + w of each counted vertex's
    ``Graph.weight_counts``, one entry per distinct weight. Once level d
    is counted, the counted vertices with b <= d+1 are final (a vertex at
    level d' has b > d'), and the suffixes minus the running totals over
    the counted vertices give the uncounted ones.

    Given a ``BallSuffix`` of the group behind ``dist`` on unit weights,
    no traversal runs and the value is exact, with one AND and one
    popcount per level: a vertex x at base b that v reaches at e < b gains
    c(e) - c(b), the sum of c(d) - c(d+1) over the levels e <= d < b, where
    x lies in v's ball and beyond d; an unreached x (b = UNREACHABLE, c(b)
    = 0) lies beyond every level, and the last level's weight c(L) closes
    its sum at c(e). v itself lies in every ball and beyond each level
    below its base, so the levels count it as moved from its base to
    distance 1; it joins the group instead, so c(1) is taken back."""
    own = dist[v]
    if not own:
        return Marginal(True, 0)
    value = 0
    if isinstance(suffix, BallSuffix):
        for balls, far, w in zip(*suffix):
            value += w * (balls[v] & far).bit_count()
        return Marginal(True, value - c(1))
    bounded = stop_below is not None or record is not None
    bases, count, total, cdist = suffix or (
        base_suffixes(dist, c) if bounded
        else (None, None, None, [c(d) for d in dist]))
    c_own = cdist[v]
    levels = closer_levels(g, dist, (v,))
    if not bounded:
        next(levels)  # (0, [v])
        for d, level in levels:
            cd = c(d)
            for x in level:
                value += cd - cdist[x]
        return Marginal(True, value - c_own)
    unit, adj = g.unit_weights, g.adj
    back = 0 if g.directed else 1  # undirected: one arc leads to the parent
    weight_counts = None if unit else g.weight_counts()
    due = {}             # weighted: arcs (x, w) out of counted x, by d_x + w
    at = {}              # counted vertices per finite base distance
    counted = csum = 0   # all counted: how many, sum of c over their bases
    final = fsum = 0     # counted at base distance d+1 or less
    # v's own term cancels at level 0; then cd, c1, c2 = c(d), c(d+1), c(d+2)
    cd, c1, c2 = c_own, c(1), c(2)
    for d, level in levels:
        cap = -back * len(level) if d else 0  # unit: fan-out less parent arcs
        if d:
            if unit:
                cd, c1, c2 = c1, c2, c(d + 2)
            else:
                cd, c1, c2 = c(d), c(d + 1), c(d + 2)
        for x in level:
            b, cb = dist[x], cdist[x]
            value += cd - cb
            if b != UNREACHABLE:
                at[b] = at.get(b, 0) + 1
            csum += cb
            cap += len(adj[x])
        counted += len(level)
        if unit:
            m = at.get(d + 1, 0)
            final += m
            fsum += m * c1
        else:
            # the cap is every arc due at d+1, not level d's fan-out
            for x in level:
                for w, m in weight_counts[x]:
                    due[d + w] = due.get(d + w, 0) + m
            cap = due.pop(d + 1, 0)
            if at:  # levels may skip distances: pop the bases now final
                for t in [t for t in at if t <= d + 1]:
                    m = at.pop(t)
                    final += m
                    fsum += m * c(t)
        beyond = counted - final  # counted at base distance d+2 or more
        i = bisect_left(bases, d + 2)
        avail = count[i] - beyond
        promoted = cap if cap < avail else avail
        m = at.get(d + 2, 0)
        i = bisect_left(bases, d + 3, i)
        # every uncounted vertex at base distance d+3 or more, put at d+2
        rest = (count[i] - beyond + m) * c2 - (total[i] - csum + fsum + m * c2)
        bound = value - c_own + promoted * (c1 - c2) + rest
        if record is not None:
            record.append(bound)
        if stop_below is not None and bound < stop_below:
            return Marginal(False, bound)
    return Marginal(True, value - c_own)


def sweep_values(g: Graph, dist, c, max_level=math.inf):
    """Every vertex's exact marginal value over the group whose distances
    are ``dist``, 0 for a member, from one streamed sweep of the masked
    balls of ``graph.ball_levels``, the bit-parallel all-sources traversal
    of Then et al. (PVLDB 2014); None unless its window, (max_weight + 1)
    n^2 bits, fits ``graph.REACH_MASK_BITS``, and None once it would step
    past level ``max_level``. ``c`` is as in ``swap_rows``.

    A vertex x enters v's masked ball at e = dist(v, x) and leaves it at
    its base b = dist[x] > e, so x gains c(e) - c(b). With p_d the size of
    v's ball at level d, the value is the sum over d >= 1 of c(d) (p_d -
    p_{d-1}): v itself, in the ball from level 0 until its base, counts
    -c(dist[v]), as it joins the group. Only the balls that change at a
    level add to it, and a ball that no longer changes adds nothing."""
    n = g.n
    if (g.max_weight + 1) * n * n > graph.REACH_MASK_BITS:
        return None
    levels = ball_levels(g, dist)
    size = [ball.bit_count() for ball in next(levels)[1]]
    value = [0] * n
    for d, balls, changed in levels:
        if d > max_level:
            return None
        cd = c(d)
        for v in changed:
            p = balls[v].bit_count()
            value[v] += cd * (p - size[v])
            size[v] = p
    return value


def unit_table(g: Graph):
    """The ball table (``graph.ball_table``) that greedy and local search
    read: None on weighted graphs and on unit graphs over its budget."""
    return ball_table(g) if g.unit_weights else None


_OWN_TABLE = object()  # greedy's default: build the table itself


class Objective(NamedTuple):
    """What differs between the maximized objectives: what a vertex at
    distance d adds, and what follows from it. ``solve`` and the oracles
    run everything else alike.

    ``check(g, k)`` raises on an instance the objective cannot solve.
    ``greedy`` runs ``gain``, ``c`` and ``margin``. ``c`` is also local
    search's, and is 0 at UNREACHABLE; ``plan(g, k, eps, bounds)`` is local
    search's plan, given greedy's final bounds.
    ``report(g, dist, members)`` is (value, raw farness or None) of the
    group whose distances are ``dist``."""
    check: Callable
    gain: Callable
    c: Callable
    margin: float
    plan: Callable
    report: Callable


def greedy(g: Graph, k: int, objective: Objective, stats, table=_OWN_TABLE):
    """Greedy of ``objective`` from the empty group up to k members, with
    the lazy queue of Leskovec et al. (KDD 2007). Returns (group, best
    value per round, the group's distances, final bounds); k = 0 returns
    the first bounds.

    ``objective.gain(g, dist, v, suffix, stop_below)`` is ``marginal_value``
    with ``objective.c`` over the group's distances ``dist``: one list, all
    UNREACHABLE for the empty group, which the winner's closer-than-base
    traversal (``lower_distances``) lowers after each round, so it ends as
    the final group's distances. ``table`` is the graph's ball table
    (``unit_table``), which ``solve`` passes and which is built here when
    not given. With one, every round passes the group's ``ball_suffix``,
    so every value is exact and no candidate runs a traversal, and r(v),
    the number of vertices v reaches, is the popcount of v's last ball.
    With None, in round 1 ``suffix`` is ([], [r(v)], total, cdist) of the
    empty base, with r(v) from ``reachable_counts``; later unit-weight
    rounds pass ``base_suffixes(dist, c)``. Later weighted rounds are
    exact (an abort leaves a bound that a later round evaluates again):
    they pass no stop value, and only c of each base distance, (None,
    None, None, cdist).

    Also with None, round 1, and round 2 where the bounds restart at +inf,
    may be swept. After the round's first value, which is exact, ``left``
    counts the candidates the queue cannot yet rule out: the traversals
    the lazy loop may still run, each reading each vertex and arc at most
    once. A sweep level reads each ball and arc at most once too, so the
    round sweeps when the sweep's levels, as far as they can be told,
    fit in ``left``. A ball stops growing once it passes every vertex
    still beyond the group, and is final ``max_weight`` quiet levels
    later: in round 2 that is at most the group's farthest finite
    distance, plus ``max_weight``, where the group reaches every vertex.
    In round 1 the first candidate's traversal gives its eccentricity e:
    at least its level count less one, at most that times ``max_weight``
    (consecutive distances differ by at most that). Every eccentricity
    is at most twice that on an undirected graph; on a directed one only
    the lower bound is known. ``sweep_values``, allowed ``left`` levels,
    then gives every candidate's exact value: the round counts one
    evaluation per candidate and no abort, and the values are the bounds
    the next round starts from. Where the sweep is over its budget or
    gives up, the lazy loop goes on.

    ``bound[v]`` is an upper bound on v's marginal value. It starts at
    min(out-degree, r(v) - 1) (c(1) - c(2)) + (r(v) - 1) c(2), the unit
    level bound after level 0, which holds for every weight: arcs weigh at
    least 1, so at most v's out-degree vertices end at distance 1 and the
    others v reaches at 2 or more. It then keeps the last value computed
    for v, exact or the first bound below the stop value; marginal values
    only shrink as the group grows, so it stays one. Round 1's values are
    those of the groups of one; where c(UNREACHABLE) > c(n max_weight), as
    for -farness, they lie below every later value, so every bound
    restarts at +inf after round 1.

    A round pops candidates by (bound descending, id) and ends once the
    top one is below the incumbent (the best value, then the smallest id)
    by more than ``margin``. v's traversal aborts below what v needs to
    beat the incumbent: for exact integer values (``margin`` 0) the best
    value, plus one when v's id is larger; for floats, the best value
    minus ``margin``. Evaluations count in ``stats["evaluated"]``, aborts
    in ``stats["pruned"]``."""
    c, margin, n = objective.c, objective.margin, g.n
    dist = [UNREACHABLE] * n
    if table is _OWN_TABLE:
        table = unit_table(g)
    if table:
        reach = [ball.bit_count() for ball in table[-1]]
    else:
        reach = reachable_counts(g)
        bases, _, total, cdist = base_suffixes(dist, c)
    c1, c2 = c(1), c(2)
    bound = [min(g.out_degree(v), r - 1) * (c1 - c2) + (r - 1) * c2
             for v, r in enumerate(reach)]
    restart = c(UNREACHABLE) > c(n * g.max_weight)
    group, gains = [], []
    while len(group) < k:
        bounded = g.unit_weights or not group
        if table:
            suffix = ball_suffix(table, group, c)
        elif not bounded:  # exact rounds read only c of each base distance
            suffix = None, None, None, [c(d) for d in dist]
        elif group:
            suffix = base_suffixes(dist, c)
        heap = [(-bound[v], v) for v in range(n) if dist[v]]
        heapify(heap)
        best, best_v = -math.inf, n
        sweep = not table and (not group or restart and len(group) == 1)
        record = None if group else []  # a bound per level of v's traversal
        while heap and heap[0] < (margin - best, best_v):
            v = heappop(heap)[1]
            if not (group or table):
                suffix = (bases, [reach[v]], total, cdist)
            stop = best - margin if margin else best + (v > best_v)
            exact, value = objective.gain(g, dist, v, suffix,
                                          stop if bounded else None,
                                          record if sweep else None)
            stats["evaluated"] += 1
            bound[v] = value
            if not exact:
                stats["pruned"] += 1
            elif value > best or (value == best and v < best_v):
                best, best_v = value, v
            if sweep:  # after the round's first value, which is exact
                sweep = False
                left = sum(top < (margin - best, best_v) for top in heap)
                if group:
                    far = max(d for d in dist if d != UNREACHABLE)
                elif g.directed:
                    far = len(record) - 1
                else:
                    far = 2 * (len(record) - 1) * g.max_weight
                swept = (None if far + g.max_weight > left
                         else sweep_values(g, dist, c, left))
                if swept is not None:  # every candidate's exact value
                    best_v = min((x for x in range(n) if dist[x]),
                                 key=lambda x: (-swept[x], x))
                    best, bound = swept[best_v], swept
                    stats["evaluated"] += len(heap)
                    break
        if not group and restart:
            bound = [math.inf] * n
        group.append(best_v)
        gains.append(best)
        lower_distances(g, dist, (best_v,))
    return group, gains, dist, bound


def solve(g: Graph, k: int, cfg: AlgoConfig | None, objective: Objective,
          algorithm: str) -> RunReport:
    """Report of ``algorithm``: greedy, then for "ls-*" local search from
    greedy's group, both reading the one ball table (``unit_table``) built
    here. The value is summed over the distances the last phase holds for
    the final group; ``iterations`` counts greedy's rounds, or local
    search's passes. A ``cfg`` of another k raises ValueError."""
    cfg = checked_config(cfg, k=k)
    objective.check(g, k)
    t0 = time.perf_counter()
    stats = {"evaluated": 0, "pruned": 0, "iterations": k}
    table = unit_table(g)
    group, gains, dist, bounds = greedy(g, k, objective, stats, table)
    swaps = ()
    if algorithm.startswith("ls-"):
        stats["iterations"] = 0
        if k < g.n:  # a full group has no swap
            group, swaps, dist = local_search(
                g, group, objective.c, objective.plan(g, k, cfg.eps, bounds),
                stats, table)
    members = sorted(group)
    value, raw = objective.report(g, dist, set(members))
    return solver_report(g, algorithm, members, value, raw, cfg, t0, stats,
                         swaps, gains)
