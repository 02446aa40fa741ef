"""Ground-truth and baseline solvers: exhaustive enumeration, best-of-N
random groups, and an exportable 0/1 assignment model for the harmonic
objective (solver-free; the model can be checked by plugging a known group
into its objective)."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .centrality import group_farness_raw, group_harmonic
from .graph import Graph, UNREACHABLE, is_connected, sssp
from .reporting import AlgoConfig, RunReport, solver_report

DEFAULT_ENUM_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    def __init__(self, count, budget):
        super().__init__(f"enumeration needs {count} evaluations, budget is {budget}")
        self.count = count
        self.budget = budget


def _distance_matrix(g):
    return [sssp(g, u) for u in range(g.n)]


def exhaustive_best(g: Graph, k: int, objective: str = "harmonic",
                    budget: int = DEFAULT_ENUM_BUDGET,
                    cfg: AlgoConfig | None = None) -> RunReport:
    """Exact optimum by lexicographic enumeration of all k-subsets.

    Ties resolve to the first (lexicographically smallest) optimum. Refuses
    instances whose subset count exceeds the evaluation budget."""
    if objective not in ("harmonic", "closeness"):
        raise ValueError(f"unknown objective {objective!r}")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range")
    total = math.comb(g.n, k)
    if total > budget:
        raise BudgetExceededError(total, budget)
    if objective == "closeness":
        if k >= g.n:
            raise ValueError(f"k={k} out of range for n={g.n} (closeness needs k < n)")
        if not is_connected(g):
            raise ValueError("closeness oracle requires a (strongly) connected graph")
    cfg = cfg or AlgoConfig(k=k)
    t0 = time.perf_counter()
    dist = _distance_matrix(g)
    n = g.n
    best_group = None
    if objective == "harmonic":
        best_val = float("-inf")
        for combo in combinations(range(n), k):
            rows = [dist[u] for u in combo]
            inset = set(combo)
            val = 0.0
            for v in range(n):
                if v in inset:
                    continue
                d = min(row[v] for row in rows)
                if d != UNREACHABLE:
                    val += 1.0 / d
            if val > best_val:
                best_val, best_group = val, combo
        group = list(best_group)
        return solver_report(g, "exact-h", group, group_harmonic(g, group).value,
                             None, cfg, t0, {"iterations": total, "evaluated": total})
    best_raw = None
    for combo in combinations(range(n), k):
        rows = [dist[u] for u in combo]
        inset = set(combo)
        raw = 0
        for v in range(n):
            if v not in inset:
                raw += min(row[v] for row in rows)
        if best_raw is None or raw < best_raw:
            best_raw, best_group = raw, combo
    group = list(best_group)
    raw = group_farness_raw(g, group)
    return solver_report(g, "exact-c", group, g.n / raw, raw, cfg, t0,
                         {"iterations": total, "evaluated": total})


def best_random(g: Graph, k: int, trials: int = 100, seed: int = 0,
                objective: str = "harmonic",
                cfg: AlgoConfig | None = None) -> RunReport:
    """Best objective over seeded uniform k-subsets, one sample per trial."""
    if objective not in ("harmonic", "closeness"):
        raise ValueError(f"unknown objective {objective!r}")
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if objective == "closeness":
        if k >= g.n:
            raise ValueError(f"k={k} out of range for n={g.n} (closeness needs k < n)")
        if not is_connected(g):
            raise ValueError("closeness baseline requires a (strongly) connected graph")
    cfg = cfg or AlgoConfig(k=k, trials=trials, seed=seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    best_group = None
    best_key = None
    for _ in range(trials):
        group = sorted(rng.sample(range(g.n), k))
        if objective == "harmonic":
            key = -group_harmonic(g, group).value
        else:
            key = group_farness_raw(g, group)
        if best_key is None or key < best_key:
            best_key, best_group = key, group
    algo = "random-h" if objective == "harmonic" else "random-c"
    if objective == "harmonic":
        value, raw = group_harmonic(g, best_group).value, None
    else:
        raw = group_farness_raw(g, best_group)
        value = g.n / raw
    return solver_report(g, algo, best_group, value, raw, cfg, t0,
                         {"iterations": trials, "evaluated": trials})


@dataclass
class IlpModel:
    """Binary assignment model for group-harmonic maximization.

    Variables: y_j = 1 if vertex j is in the group; x_ij = 1 if vertex i is
    served by group member j (declared only when j can reach i). Objective
    sums x_ij / d(j, i) where d(j, i) is the member-to-vertex distance, so
    the best assignment for a group (each outside vertex to a nearest
    member) scores exactly its group-harmonic value. Constraints: each
    vertex is in the group or assigned at most once, so a vertex no member
    reaches stays unassigned and adds 0; exactly k members; assignment only
    to members.
    """

    n: int
    k: int
    dist: dict  # (i, j) -> exact int distance from j to i, finite pairs only

    def x_pairs(self):
        return sorted(self.dist)


def build_harmonic_model(g: Graph, k: int) -> IlpModel:
    if not 1 <= k <= g.n:
        raise ValueError(f"k={k} out of range")
    n = g.n
    dist = {}
    for j in range(n):
        dj = sssp(g, j)
        for i in range(n):
            if i != j and dj[i] != UNREACHABLE:
                dist[(i, j)] = dj[i]
    return IlpModel(n=n, k=k, dist=dist)


def write_lp(model: IlpModel, path) -> None:
    """CPLEX-style text LP: Maximize / Subject To / Binary / End."""
    lines = ["\\ group-harmonic assignment model",
             f"\\ n={model.n} k={model.k}",
             "Maximize"]
    terms = []
    for (i, j) in model.x_pairs():
        coeff = format(1.0 / model.dist[(i, j)], ".17g")
        terms.append(f"{coeff} x_{i}_{j}")
    lines.append(" obj: " + " + ".join(terms) if terms else " obj: 0 y_0")
    lines.append("Subject To")
    for i in range(model.n):
        parts = [f"x_{i}_{j}" for j in range(model.n) if (i, j) in model.dist]
        parts.append(f"y_{i}")
        lines.append(f" assign_{i}: " + " + ".join(parts) + " <= 1")
    budget = " + ".join(f"y_{j}" for j in range(model.n))
    lines.append(f" budget: {budget} = {model.k}")
    for (i, j) in model.x_pairs():
        lines.append(f" link_{i}_{j}: x_{i}_{j} - y_{j} <= 0")
    lines.append("Binary")
    for j in range(model.n):
        lines.append(f" y_{j}")
    for (i, j) in model.x_pairs():
        lines.append(f" x_{i}_{j}")
    lines.append("End")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def export_ilp_harmonic(g: Graph, k: int, path) -> IlpModel:
    model = build_harmonic_model(g, k)
    write_lp(model, path)
    return model


def evaluate_assignment(model: IlpModel, group) -> float:
    """Plug a group into the model: assign every outside vertex to its
    nearest member (ties to the smaller id), leave a vertex no member
    reaches unassigned, verify all constraints, and return the objective
    value."""
    members = sorted(set(group))
    if len(members) != model.k:
        raise ValueError(f"group size {len(members)} != k={model.k}")
    member_set = set(members)
    y = {j: int(j in member_set) for j in range(model.n)}
    if sum(y.values()) != model.k:
        raise AssertionError("budget constraint violated")
    objective = 0.0
    for i in range(model.n):
        if i in member_set:
            continue
        best_j = None
        best_d = None
        for j in members:
            d = model.dist.get((i, j))
            if d is not None and (best_d is None or d < best_d):
                best_d, best_j = d, j
        if best_j is None:
            continue
        if y[best_j] != 1:
            raise AssertionError("assignment to a non-member")
        objective += 1.0 / best_d
    return objective
