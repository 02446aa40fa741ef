"""Ground-truth and baseline solvers: exhaustive enumeration and best-of-N
random groups of either objective, which score groups by the
``centrality.Objective`` records the solvers run (``OBJECTIVES``), and an
exportable 0/1 assignment model for the harmonic objective (solver-free;
the model can be checked by plugging a known group into its objective)."""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from itertools import combinations

from .closeness import CLOSENESS
from .graph import Graph, UNREACHABLE, multi_source_sssp, sssp
from .harmonic import HARMONIC
from .reporting import AlgoConfig, RunReport, checked_config, solver_report

DEFAULT_ENUM_BUDGET = 5_000_000
OBJECTIVES = {"harmonic": HARMONIC, "closeness": CLOSENESS}


class BudgetExceededError(RuntimeError):
    def __init__(self, count, budget):
        super().__init__(f"enumeration needs {count} evaluations, budget is {budget}")
        self.count = count
        self.budget = budget


def _objective(g, k, name):
    """The ``OBJECTIVES`` record of ``name``, once it accepts k on g."""
    if name not in OBJECTIVES:
        raise ValueError(f"unknown objective {name!r}")
    OBJECTIVES[name].check(g, k)
    return OBJECTIVES[name]


def _best(g, objective, algorithm, groups, distances, cfg, t0, count):
    """Report of the first of ``groups`` whose objective, ``objective.c``
    summed over the outside vertices of ``distances(group)`` in id order,
    is largest."""
    c = objective.c
    best = best_group = None
    for group in groups:
        members = set(group)
        value = 0
        for v, d in enumerate(distances(group)):
            if v not in members:
                value += c(d)
        if best is None or value > best:
            best, best_group = value, list(group)
    value, raw = objective.report(g, multi_source_sssp(g, best_group),
                                  set(best_group))
    return solver_report(g, algorithm, best_group, value, raw, cfg, t0,
                         {"iterations": count, "evaluated": count})


def exhaustive_best(g: Graph, k: int, objective: str = "harmonic",
                    budget: int = DEFAULT_ENUM_BUDGET,
                    cfg: AlgoConfig | None = None) -> RunReport:
    """Exact optimum by lexicographic enumeration of all k-subsets.

    Ties resolve to the first (lexicographically smallest) optimum. Refuses
    instances whose subset count exceeds the evaluation budget, and a
    ``cfg`` of another k."""
    record = _objective(g, k, objective)
    total = math.comb(g.n, k)
    if total > budget:
        raise BudgetExceededError(total, budget)
    cfg = checked_config(cfg, k=k)
    t0 = time.perf_counter()
    rows = [sssp(g, u) for u in range(g.n)]
    return _best(g, record, f"exact-{objective[0]}", combinations(range(g.n), k),
                 lambda combo: map(min, zip(*(rows[u] for u in combo))),
                 cfg, t0, total)


def best_random(g: Graph, k: int, trials: int = 100, seed: int = 0,
                objective: str = "harmonic",
                cfg: AlgoConfig | None = None) -> RunReport:
    """Best objective over seeded uniform k-subsets, one sample per trial.
    Refuses a ``cfg`` of another k, trials or seed."""
    record = _objective(g, k, objective)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = checked_config(cfg, k=k, trials=trials, seed=seed)
    t0 = time.perf_counter()
    rng = random.Random(seed)
    groups = (sorted(rng.sample(range(g.n), k)) for _ in range(trials))
    return _best(g, record, f"random-{objective[0]}", groups,
                 lambda group: multi_source_sssp(g, group), cfg, t0, trials)


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
