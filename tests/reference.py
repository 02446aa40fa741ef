"""Reference implementations that the solvers are compared against.

``plain_greedy_harmonic`` and ``plain_greedy_closeness`` are greedy-h and
greedy-c without laziness or pruning. The per-pair local searches are the
scan loops the solvers ran before swap rows: one exact traversal per
(member u, candidate v) pair over the distances of the group without u,
with the same member order, candidate order and acceptance test; member
losses are differences of group values, exact ones for the member order,
and so are ls-h's objectives without each member. They return (sorted
group, swap sequence) for comparison with ``local_search_closeness`` and
``local_search_harmonic``. ``exact_harmonic`` sums reciprocal distances
as ``Fraction``, so exact ties stay ties.
``heap_farness_decrease`` is the unit-weight farness decrease with the
suffix heaps it kept before its bound counted vertices per base distance,
over suffixes of the base distances scanned by ``suffix_ge``.
``count_visits`` counts the vertices the solvers' traversals visit.
``without_ball_table`` makes greedy run its kernels in every round.
``per_member_state`` is ``state_init``'s three lists from one ``sssp`` per
member. ``radius_milp`` is an exact optimum of either objective from a
mixed-integer program, where scipy is installed.
"""

import sys
from collections import Counter
from fractions import Fraction
from heapq import heappop, heappush

from groupcent import graph
from groupcent.centrality import (greedy, group_farness_raw, harmonic_sum,
                                  patched_distances, state_init)
from groupcent.closeness import CLOSENESS, add_estimate, farness_decrease
from groupcent.graph import UNREACHABLE, closer_levels, multi_source_sssp, sssp
from groupcent.harmonic import ABS_IMPROVE, HARMONIC, pruned_marginal_gain


def count_visits(monkeypatch):
    """A one-element list counting the vertices ``closer_levels`` yields
    from now on, through a wrapper put in its place in every groupcent
    module that bound it; a level counts once yielded, also when its
    consumer then stops."""
    visits = [0]

    def counted(g, dbase, seeds):
        for d, level in closer_levels(g, dbase, seeds):
            visits[0] += len(level)
            yield d, level

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("groupcent")
                and getattr(module, "closer_levels", None) is closer_levels):
            monkeypatch.setattr(module, "closer_levels", counted)
    return visits


def without_ball_table(monkeypatch):
    """A bit budget of 0: ``graph.ball_table`` and
    ``centrality.sweep_values`` refuse every graph, so greedy scores
    candidates with its kernels and their level bound in every round, as on
    graphs over both budgets (and directed reach counts become upper
    bounds)."""
    monkeypatch.setattr(graph, "REACH_MASK_BITS", 0)


def per_member_state(g, group):
    """(dist_nearest, nearest_member, dist_second) of ``group``: x's nearest
    member has the smallest (distance, id), -1 when no member reaches x,
    and the second distance is the smallest over the other members."""
    tables = {u: sssp(g, u) for u in set(group)}
    nearest, rep, second = [], [], []
    for x in range(g.n):
        d, u = min((t[x], u) for u, t in tables.items())
        if d == UNREACHABLE:
            u = -1
        nearest.append(d)
        rep.append(u)
        second.append(min((t[x] for m, t in tables.items() if m != u),
                          default=UNREACHABLE))
    return nearest, rep, second


def exact_harmonic(dist, members):
    """``harmonic_sum`` as a ``Fraction``."""
    return sum((Fraction(1, d) for x, d in enumerate(dist)
                if x not in members and d != UNREACHABLE), Fraction(0))


def exact_start(g):
    """The vertex of largest exact harmonic centrality, the smallest id on
    ties."""
    values = [exact_harmonic(sssp(g, u), {u}) for u in range(g.n)]
    return values.index(max(values))


def plain_greedy_harmonic(g, k):
    """The exact harmonic centrality argmax (``exact_start``), then in every
    round the candidate of largest gain, the smallest id on ties. Returns
    the sorted group."""
    group = [exact_start(g)]
    while len(group) < k:
        dist = multi_source_sssp(g, group)
        gains = [float("-inf") if u in group
                 else pruned_marginal_gain(g, dist, u).value for u in range(g.n)]
        group.append(gains.index(max(gains)))
    return sorted(group)


def plain_greedy_closeness(g, k):
    """The sum(sssp) argmin, then in every round the candidate of largest
    exact farness decrease, the smallest id on ties. Returns the sorted
    group."""
    totals = [sum(sssp(g, v)) for v in range(g.n)]
    group = [totals.index(min(totals))]
    while len(group) < k:
        raw = group_farness_raw(g, group)
        decs = [raw - group_farness_raw(g, group + [v]) if v not in group else -1
                for v in range(g.n)]
        group.append(decs.index(max(decs)))
    return sorted(group)


class _SuffixTracker:
    """Count/sum of recorded values at or above a nondecreasing threshold."""

    __slots__ = ("_heap", "cnt", "total")

    def __init__(self):
        self._heap = []
        self.cnt = 0
        self.total = 0

    def add(self, value):
        heappush(self._heap, value)
        self.cnt += 1
        self.total += value

    def stats_ge(self, t):
        h = self._heap
        while h and h[0] < t:
            self.cnt -= 1
            self.total -= heappop(h)
        return self.cnt, self.total


def suffix_ge(dbase, t):
    """(count, sum) of the base distances that are t or more."""
    ds = [d for d in dbase if d >= t]
    return len(ds), sum(ds)


def heap_farness_decrease(g, dbase, v, stop_below=None, record=None):
    """``farness_decrease`` of a non-member v on a unit-weight graph, with
    the counted vertices' base distances in two heaps queried at thresholds
    d+2 and d+3. Returns (exact, value)."""
    assert g.unit_weights and dbase[v]
    dec = 0
    back = 0 if g.directed else 1
    near = _SuffixTracker()
    far = _SuffixTracker()
    for d, level in closer_levels(g, dbase, (v,)):
        fanout = 0
        for x in level:
            dx = dbase[x]
            dec += dx - d
            near.add(dx)
            far.add(dx)
            fanout += g.out_degree(x)
        if d:
            fanout -= back * len(level)
        ecnt2, _ = near.stats_ge(d + 2)
        promoted = min(fanout, suffix_ge(dbase, d + 2)[0] - ecnt2)
        ecnt3, esum3 = far.stats_ge(d + 3)
        cnt3, sum3 = suffix_ge(dbase, d + 3)
        bound = dec + promoted + (sum3 - esum3 - (d + 2) * (cnt3 - ecnt3))
        if record is not None:
            record.append(bound)
        if stop_below is not None and bound < stop_below:
            return False, bound
    return True, dec


def per_pair_closeness(g, k, eps):
    n = g.n
    group = greedy(g, k, CLOSENESS, Counter())[0]
    shrink = 1 - Fraction(str(eps)) / (k * (n - k))
    exclude_deg1 = g.unit_weights and not g.directed
    swaps = []
    while True:
        state = state_init(g, group)
        raw = group_farness_raw(g, group)
        threshold = shrink * raw
        if k == 1:
            members = [(0, group[0])]
        else:
            members = sorted((group_farness_raw(g, [m for m in group if m != u])
                              - raw, u) for u in group)
        candidates = sorted(
            (v for v in range(n) if v not in state.member_set
             and not (exclude_deg1 and g.out_degree(v) == 1)),
            key=lambda v: (-add_estimate(state, v), v))
        committed = None
        for cost_u, u in members:
            if k > 1:
                dbase = patched_distances(state, u)
            for v in candidates:
                if k == 1:
                    new_raw = group_farness_raw(g, [v])
                else:
                    exact, dec = farness_decrease(g, dbase, v)
                    assert exact
                    new_raw = raw + cost_u - dec
                if new_raw <= threshold:
                    committed = (u, v)
                    break
            if committed:
                break
        if committed is None:
            return sorted(group), swaps
        swaps.append(committed)
        group = sorted(set(group) - {committed[0]} | {committed[1]})


def per_pair_harmonic(g, k, eps):
    n = g.n
    group, _, _, gain_bound = greedy(g, k, HARMONIC, Counter())
    swaps = []
    if k == n:
        return sorted(group), swaps
    q_size = k * (n - k)
    while True:
        state = state_init(g, group)
        gh_here = harmonic_sum(state.dist_nearest, state.member_set)
        if gh_here > 0.0:
            threshold = gh_here * (1.0 + eps / q_size)
            accepts = lambda val: val >= threshold
        else:
            threshold = gh_here + ABS_IMPROVE
            accepts = lambda val: val > threshold
        exact_here = exact_harmonic(state.dist_nearest, state.member_set)
        scan = []
        for u in group:
            d_without = patched_distances(state, u)
            without = state.member_set - {u}
            scan.append((exact_here - exact_harmonic(d_without, without), u,
                         d_without, harmonic_sum(d_without, without)))
        scan.sort(key=lambda item: (item[0], item[1]))
        candidates = sorted((x for x in range(n) if x not in state.member_set),
                            key=lambda x: (-gain_bound[x], x))
        committed = None
        for _, u, d_without, gh_without in scan:
            for v in candidates:
                if accepts(gh_without + pruned_marginal_gain(g, d_without, v).value):
                    committed = (u, v)
                    break
            if committed:
                break
        if committed is None:
            return sorted(group), swaps
        swaps.append(committed)
        group = sorted(set(group) - {committed[0]} | {committed[1]})


def radius_milp(g, k, c, fixed=None):
    """(group, value): a k-group of largest sum of c(dist(S, x)) over the
    outside vertices x, with c as in ``swap_rows``, from the radius
    formulation of p-median (Garcia, Labbe & Marin, INFORMS J. Computing
    2011) solved by scipy's HiGHS with no optimality gap; ``fixed`` pins the
    group, so the value is the model's for that group.

    For each vertex i, t_1 < ... < t_m are the distinct finite distances
    to i from the other vertices. z_{i,a} is 1 when i is outside the group
    and within t_a of it: z_{i,a} - z_{i,a-1} <= the sum of y_j over the j
    at t_a, and z_{i,a} + y_i <= 1. i adds the telescoped sum over a of
    (c(t_a) - c(t_{a+1})) z_{i,a} plus base_i (1 - y_i), where c(t_{m+1})
    is base_i = min(c(UNREACHABLE), c(t_m)): 0 for harmonic, whose
    unreached vertices add 0, and c(t_m) for -farness, whose members reach
    every vertex within t_m. Given y, the best z are 0 or 1, so only y is
    integral. The value sums the coefficients over the rounded solution:
    exact integers for -farness."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range")
    if fixed is not None and (len(set(fixed)) != k
                              or not set(fixed) <= set(range(n))):
        raise ValueError(f"{fixed} is not a group of k={k} vertices")
    rows = [sssp(g, j) for j in range(n)]
    gain = [0] * n       # objective coefficient per variable: y, then z
    constant = 0
    entries, lower, upper = [], [], []

    def constrain(terms, lo, hi):
        entries.extend((len(lower), var, coef) for var, coef in terms)
        lower.append(lo)
        upper.append(hi)

    for i in range(n):
        at = {}
        for j in range(n):
            if j != i and rows[j][i] != UNREACHABLE:
                at.setdefault(rows[j][i], []).append(j)
        ts = sorted(at)
        base = min(c(UNREACHABLE), c(ts[-1])) if ts else c(UNREACHABLE)
        constant += base
        gain[i] -= base
        prev = []
        for a, t in enumerate(ts):
            z = len(gain)
            gain.append(c(t) - (c(ts[a + 1]) if a + 1 < len(ts) else base))
            constrain([(z, 1)] + prev + [(j, -1) for j in at[t]], -np.inf, 0)
            constrain([(z, 1), (i, 1)], -np.inf, 1)
            prev = [(z, -1)]
    constrain([(j, 1) for j in range(n)], k, k)
    r, col, coef = zip(*entries)
    a = coo_array((coef, (r, col)), shape=(len(lower), len(gain))).tocsr()
    lo, hi = np.zeros(len(gain)), np.ones(len(gain))
    if fixed is not None:
        lo[:n] = hi[:n] = [j in set(fixed) for j in range(n)]
    integral = np.zeros(len(gain))
    integral[:n] = 1
    res = milp(-np.array(gain, dtype=float),
               constraints=LinearConstraint(a, lower, upper),
               integrality=integral, bounds=Bounds(lo, hi),
               options={"mip_rel_gap": 0})
    assert res.success, res.message
    x = [round(v) for v in res.x]
    value = constant + sum(w * v for w, v in zip(gain, x) if v)
    assert abs(value - constant + res.fun) <= 1e-9 * max(1.0, abs(value))
    return [j for j in range(n) if x[j]], value
