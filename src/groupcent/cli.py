"""Command-line front end: solve, compare, check.

Exit codes: 0 success, 1 usage error (including a k out of range, which
every solver rejects itself), 2 infeasible input (closeness on a
disconnected graph), 3 enumeration-budget refusal, 4 a check suite failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .checks import ALL_SUITES
from .closeness import (DisconnectedGraphError, greedy_closeness,
                        local_search_closeness)
from .graph import (GraphError, largest_component, load_edge_list,
                    multi_source_sssp)
from .harmonic import greedy_harmonic, local_search_harmonic
from .oracles import (OBJECTIVES, BudgetExceededError, best_random,
                      exhaustive_best)
from .reporting import CSV_COLUMNS, AlgoConfig, report_to_csv_row

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_CHECK_FAILED = 4

# name -> solve(g, cfg); a name ending in "-c" is a closeness algorithm.
# Each solver is looked up when called, so a patched module attribute (a
# tracer's span, a test's stub) takes effect.
SOLVERS = {
    "greedy-h": lambda g, cfg: greedy_harmonic(g, cfg.k, cfg),
    "ls-h": lambda g, cfg: local_search_harmonic(g, cfg.k, cfg),
    "greedy-c": lambda g, cfg: greedy_closeness(g, cfg.k, cfg),
    "ls-c": lambda g, cfg: local_search_closeness(g, cfg.k, cfg),
    "exact-h": lambda g, cfg: exhaustive_best(g, cfg.k, "harmonic", cfg=cfg),
    "exact-c": lambda g, cfg: exhaustive_best(g, cfg.k, "closeness", cfg=cfg),
    "random-h": lambda g, cfg: best_random(g, cfg.k, cfg.trials, cfg.seed,
                                           "harmonic", cfg=cfg),
    "random-c": lambda g, cfg: best_random(g, cfg.k, cfg.trials, cfg.seed,
                                           "closeness", cfg=cfg),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_solve_args(p):
    p.add_argument("--graph", required=True, action="append",
                   help="edge-list file; may repeat for compare")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--algo", required=True, choices=tuple(SOLVERS))
    p.add_argument("--directed", action="store_true")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true",
                   help="accepted for compatibility; every run is deterministic")
    p.add_argument("--scc", action="store_true",
                   help="run on the largest (strongly) connected component")
    p.add_argument("--output", choices=("json", "csv"), default="json")


def build_parser():
    parser = _Parser(prog="groupcent",
                     description="Group-harmonic and group-closeness maximization")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run one algorithm on one graph")
    _add_solve_args(solve)
    compare = sub.add_parser("compare", help="run an algorithm against a baseline")
    _add_solve_args(compare)
    compare.add_argument("--baseline", required=True, choices=("exact", "random"))
    check = sub.add_parser("check", help="run property-check suites")
    check.add_argument("--suite", default="all",
                       choices=tuple(ALL_SUITES) + ("all",))
    check.add_argument("--graph", default=None,
                       help="optional edge-list file for the sampling suites")
    check.add_argument("--directed", action="store_true")
    check.add_argument("--weighted", action="store_true")
    check.add_argument("--seed", type=int, default=1)
    return parser


def _prepare_graph(args, path):
    g = load_edge_list(path, directed=args.directed, weighted=args.weighted)
    return largest_component(g) if args.scc else g


def _solve(algo, g, cfg, path):
    """``algo``'s verified report on g, the graph of ``path``. The solver
    checks its own input; a refused disconnected graph names the file."""
    try:
        report = SOLVERS[algo](g, cfg)
    except DisconnectedGraphError:
        raise DisconnectedGraphError(
            f"{path}: closeness algorithms need a (strongly) connected graph; "
            f"pass --scc to use the largest component") from None
    _verify_report(g, report)
    return report


def _verify_report(g, report):
    """The emitted objective and raw farness, which the solver summed over
    its own distances, must equal a from-scratch recomputation exactly:
    both sum the same terms of exact integer distances in id order."""
    group = report.group
    fresh = OBJECTIVES[report.objective_kind].report(
        g, multi_source_sssp(g, group), set(group))
    if fresh != (report.objective_value, report.raw_farness):
        raise RuntimeError("emitted objective does not match recomputation")


def _emit(report, output):
    if output == "csv":
        print(",".join(CSV_COLUMNS))
        print(report_to_csv_row(report))
    else:
        print(report.to_json())


def _cmd_solve(args):
    if len(args.graph) != 1:
        raise UsageError("solve takes exactly one --graph")
    cfg = _config_from_args(args)
    path = args.graph[0]
    report = _solve(args.algo, _prepare_graph(args, path), cfg, path)
    _emit(report, args.output)
    return EXIT_OK


def _config_from_args(args):
    try:
        return AlgoConfig(k=args.k, eps=args.eps, trials=args.trials, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_compare(args):
    cfg = _config_from_args(args)
    closeness = args.algo.endswith("-c")
    baseline_algo = f"{args.baseline}-{args.algo[-1]}"
    ratios = []
    speeds = []
    for path in args.graph:
        g = _prepare_graph(args, path)
        target = _solve(args.algo, g, cfg, path)
        base = _solve(baseline_algo, g, cfg, path)
        # maximization framing for both objectives: higher is better
        if closeness:
            ratio = base.raw_farness / target.raw_farness
        else:
            ratio = (target.objective_value / base.objective_value
                     if base.objective_value > 0 else None)
        speed = (target.wall_time_millis / base.wall_time_millis
                 if base.wall_time_millis > 0 else None)
        ratios.append(ratio)
        speeds.append(speed)
        print(json.dumps({
            "graph": path, "algo": args.algo, "baseline": baseline_algo,
            "targetValue": target.objective_value,
            "baselineValue": base.objective_value,
            "qualityRatio": ratio,
            "targetMillis": target.wall_time_millis,
            "baselineMillis": base.wall_time_millis,
            "relativeTime": speed,
        }, separators=(",", ":"), allow_nan=False))
    if len(args.graph) > 1:
        print(json.dumps({
            "aggregate": "geometric-mean",
            "graphs": len(args.graph),
            "qualityRatio": _geo_mean(ratios),
            "relativeTime": _geo_mean(speeds),
        }, separators=(",", ":"), allow_nan=False))
    return EXIT_OK


def _geo_mean(xs):
    """Geometric mean of the positive values; None (JSON null) when there
    is none. Undefined per-graph values are None and are skipped."""
    xs = [x for x in xs if x is not None and x > 0]
    return math.exp(sum(map(math.log, xs)) / len(xs)) if xs else None


def _cmd_check(args):
    suites = list(ALL_SUITES) if args.suite == "all" else [args.suite]
    graphs = None
    passed = True
    if args.graph:
        graphs = [load_edge_list(args.graph, directed=args.directed,
                                 weighted=args.weighted)]
    for name in suites:
        fn = ALL_SUITES[name]
        if name in ("submodularity", "bounds") and graphs is not None:
            outcome = fn(graphs=graphs, seed=args.seed)
        else:
            outcome = fn(seed=args.seed)
        passed = passed and outcome.passed
        print(outcome.summary())
        for note in outcome.notes:
            print(f"  note: {note}")
        for v in outcome.violations[:10]:
            print(f"  counterexample: {v}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_check(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
