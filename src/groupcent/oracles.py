"""Ground-truth and baseline solvers: exhaustive enumeration and best-of-N
random groups of either objective, which score groups by the
``centrality.Objective`` records the solvers run (``OBJECTIVES``)."""

from __future__ import annotations

import math
import random
import time
from itertools import combinations

from .closeness import CLOSENESS
from .graph import Graph, multi_source_sssp, sssp
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


def outside_sum(c, dist, group):
    """``c`` summed over the distances ``dist`` of the vertices outside
    ``group``, in id order: the objective of ``group`` when ``dist`` are
    its distances."""
    members = set(group)
    value = 0
    for v, d in enumerate(dist):
        if v not in members:
            value += c(d)
    return value


def _best(g, objective, algorithm, groups, distances, cfg, t0, count):
    """Report of the first of ``groups`` whose objective, ``outside_sum``
    of ``objective.c`` over ``distances(group)``, is largest."""
    best = best_group = None
    for group in groups:
        value = outside_sum(objective.c, distances(group), group)
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
