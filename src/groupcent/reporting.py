"""Run configuration and machine-readable run reports."""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

from .graph import Graph


@dataclass
class AlgoConfig:
    k: int
    eps: float = 0.01
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0 < self.eps < math.inf:  # NaN fails too
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def echo(self) -> dict:
        # every run is serial and deterministic; "workers" and
        # "deterministic" stay in the report format with their fixed values
        return {
            "k": self.k,
            "eps": self.eps,
            "trials": self.trials,
            "seed": self.seed,
            "workers": 1,
            "deterministic": True,
        }


def checked_config(cfg: AlgoConfig | None, **given) -> AlgoConfig:
    """``cfg``, which must agree with the arguments ``given`` to a solver,
    or a config of them when it is None; a report echoes its config."""
    if cfg is None:
        return AlgoConfig(**given)
    for name, value in given.items():
        if getattr(cfg, name) != value:
            raise ValueError(f"cfg.{name}={getattr(cfg, name)} differs from "
                             f"{name}={value}")
    return cfg


def graph_summary(g: Graph) -> dict:
    return {
        "n": g.n,
        "m": g.num_edges,
        "directed": g.directed,
        "weighted": not g.unit_weights,
        "hash": g.content_hash(),
    }


@dataclass
class RunReport:
    algorithm: str
    group: list[int]
    objective_kind: str
    objective_value: float
    raw_farness: int | None
    iterations: int
    swaps_committed: int
    candidates_evaluated: int
    traversals_pruned: int
    wall_time_millis: float
    config: dict
    graph: dict
    # internals for tests and comparisons, not serialized; round_gains holds
    # greedy's best marginal value of each of its k rounds
    swap_sequence: list = field(default_factory=list, compare=False, repr=False)
    round_gains: list = field(default_factory=list, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "group": list(self.group),
            "objectiveKind": self.objective_kind,
            "objectiveValue": self.objective_value,
            "rawFarness": self.raw_farness,
            "iterations": self.iterations,
            "swapsCommitted": self.swaps_committed,
            "candidatesEvaluated": self.candidates_evaluated,
            "traversalsPruned": self.traversals_pruned,
            "wallTimeMillis": self.wall_time_millis,
            "config": self.config,
            "graph": self.graph,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))


def solver_report(g: Graph, algorithm: str, group, value, raw, cfg: AlgoConfig,
                  t0: float, stats: dict, swap_sequence=(), round_gains=()) -> RunReport:
    """Report of a run started at ``t0``. ``raw`` is the raw farness of a
    closeness run and None for a harmonic one; ``stats`` holds the counters
    iterations, evaluated and pruned, each 0 when absent."""
    return RunReport(
        algorithm=algorithm,
        group=group,
        objective_kind="harmonic" if raw is None else "closeness",
        objective_value=value,
        raw_farness=raw,
        iterations=stats.get("iterations", 0),
        swaps_committed=len(swap_sequence),
        candidates_evaluated=stats.get("evaluated", 0),
        traversals_pruned=stats.get("pruned", 0),
        wall_time_millis=(time.perf_counter() - t0) * 1000.0,
        config=cfg.echo(),
        graph=graph_summary(g),
        swap_sequence=list(swap_sequence),
        round_gains=list(round_gains),
    )


# JSON keys, from the report, its "config" and its "graph"
CSV_COLUMNS = [
    "algorithm", "k", "group", "objectiveKind", "objectiveValue", "rawFarness",
    "iterations", "swapsCommitted", "candidatesEvaluated", "traversalsPruned",
    "wallTimeMillis", "n", "m", "directed", "weighted", "hash", "eps",
    "trials", "seed", "workers", "deterministic",
]


def report_to_csv_row(report: RunReport) -> str:
    d = report.to_dict()
    flat = {**d, **d["config"], **d["graph"],
            "group": " ".join(map(str, d["group"])),
            "rawFarness": "" if d["rawFarness"] is None else d["rawFarness"]}
    return ",".join(str(flat[c]) for c in CSV_COLUMNS)
