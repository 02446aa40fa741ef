#!/usr/bin/env python3
"""Benchmark of the groupcent solvers on seeded sparse graphs.

Each workload's fixed graph (see workloads.py) is written to an edge-list
file whose layout ``--seed`` chooses. The four solver algorithms,
greedy-h, ls-h, greedy-c and ls-c, then solve it through the CLI entry point,
``groupcent.cli.main``, with the argv a user would type and the CLI's default
configuration except for ``--deterministic`` (serial scans, see
solve_argv), until ``--seconds`` have passed. The next solve is always of
the algorithm with the least measured time so far, so each algorithm gets
about the same share of the run and a cheap one, whose single solves spread
more, gets more samples; every algorithm is solved at least once. Every
output is checked; a solve that exits nonzero or fails a check counts as
failed. Run from the repository root:

    python3 bench/run.py --workload sparse-n800-k10 --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` follows every
untraced solve with a traced one of the same algorithm and reports the
per-layer metrics of the traced solves (tracing.py), with the tracing
overhead as traced minus untraced solve time. Every time is the median over
the run's samples.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give a table with sample counts and the run environment, and a full record
goes to ``bench/_work/BENCH_<workload>.json``. The exit code is 0 only when
every solve was correct.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import Tracer, layer_metric_units
from workloads import WORKLOADS, generate, write_edge_list

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
ALGOS = ("greedy-h", "ls-h", "greedy-c", "ls-c")
HARMONIC_RTOL = 1e-9
SETUP_REPEATS = 3  # set-ups timed before each solve
WORK_KEYS = ("candidatesEvaluated", "traversalsPruned", "iterations", "swapsCommitted")
REPORT_KEYS = ("objectiveValue", "rawFarness", "graph", "config", *WORK_KEYS)

END_TO_END_UNITS = {
    "setup_s": "s",
    "greedy_h_s": "s",
    "ls_h_s": "s",
    "greedy_c_s": "s",
    "ls_c_s": "s",
    "greedy_h_value": "1/dist",
    "ls_h_value": "1/dist",
    "greedy_c_farness": "dist",
    "ls_c_farness": "dist",
    "peak_rss_mb": "MB",
}


def load_library():
    """Import groupcent from this checkout's src/, never from elsewhere."""
    init = SRC / "groupcent" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import groupcent
    if Path(groupcent.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: groupcent was imported from {groupcent.__file__}")


def algo_key(algo: str) -> str:
    return algo.replace("-", "_")


def family(algo: str) -> str:
    return "harmonic" if algo.endswith("-h") else "closeness"


def per_layer_units() -> dict:
    return {f"{algo_key(a)}.{name}": unit for a in ALGOS
            for name, unit in layer_metric_units(family(a)).items()}


def solve_argv(w, path, algo):
    # --deterministic runs the candidate scans serially. With the default
    # thread pool (one worker per core), solve times follow the host's
    # thread-wakeup latency: medians of blocks of 6 solves spread by 45%
    # (greedy-c, bowtie) against 9% serially, beyond any bound.
    argv = ["solve", "--graph", str(path), "--k", str(w.k), "--algo", algo,
            "--deterministic"]
    if w.directed:
        argv.append("--directed")
    if w.weighted:
        argv.append("--weighted")
    if w.kind == "bowtie" and family(algo) == "closeness":
        argv.append("--scc")  # closeness runs on the strongly connected core
    return argv


def run_solve(argv):
    """One CLI call: (exit code, stdout, stderr, seconds). An exception that
    escapes the CLI is reported with exit code None."""
    from groupcent import cli
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # every solve starts from a collected heap, as a fresh CLI process does
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crashing solve is a failed solve; the run goes on
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def measure_setup(w, path):
    """One set-up: its seconds and the benchmark's own graphs.

    Set-up is ``load_edge_list`` plus the preparation ``solve`` does for a
    closeness algorithm: ``is_connected``, then ``largest_component`` when
    the graph is not connected (the bow-tie). The graphs are the ones each
    family's group ids refer to.
    """
    from groupcent.graph import is_connected, largest_component, load_edge_list
    t0 = time.perf_counter()
    g = load_edge_list(path, directed=w.directed, weighted=w.weighted)
    prepared = g if is_connected(g) else largest_component(g)
    return time.perf_counter() - t0, {"harmonic": g, "closeness": prepared}


def check_solve(algo, code, out, err, graph, graph_hash, k):
    """(report or None, problems) for one solve's output."""
    from groupcent.centrality import group_farness_raw, group_harmonic
    if code != 0:
        return None, [f"exit code {code}: {err.strip()[-500:]}"]
    try:
        report = json.loads(out.strip().splitlines()[-1])
        group = report["group"]
        missing = [key for key in REPORT_KEYS if key not in report]
    except (ValueError, IndexError, KeyError, TypeError):
        return None, [f"report does not parse: {out[:200]!r}"]
    if missing:
        return None, [f"report lacks {missing}"]
    if not (isinstance(group, list) and len(group) == k
            and all(type(v) is int and 0 <= v < graph.n for v in group)
            and len(set(group)) == k):
        return None, [f"group {group!r} is not {k} distinct ids in 0..{graph.n - 1}"]
    problems = []
    if not isinstance(report["graph"], dict) or report["graph"].get("hash") != graph_hash:
        problems.append("graph hash differs from the benchmark's own load")
    if family(algo) == "harmonic":
        fresh = group_harmonic(graph, group).value
        value = report["objectiveValue"]
        if not isinstance(value, (int, float)) or \
                abs(fresh - value) > HARMONIC_RTOL * max(1.0, abs(fresh)):
            problems.append(f"objective {value!r} != recomputed {fresh!r}")
    else:
        fresh = group_farness_raw(graph, group)
        if report["rawFarness"] != fresh:
            problems.append(f"raw farness {report['rawFarness']!r} != recomputed {fresh}")
    return report, problems


def consistency(algo, report, first):
    """Problems across solves: every repetition finds the first group, and
    local search is never worse than greedy (which always runs first)."""
    problems = []
    if algo in first and report["group"] != first[algo]["group"]:
        problems.append(f"group {report['group']} differs from the first "
                        f"repetition's {first[algo]['group']}")
    greedy = first.get(algo.replace("ls-", "greedy-"))
    if algo.startswith("ls-") and greedy is not None:
        if family(algo) == "harmonic":
            base = greedy["objectiveValue"]
            worse = report["objectiveValue"] < base - HARMONIC_RTOL * abs(base)
        else:
            worse = report["rawFarness"] > greedy["rawFarness"]
        if worse:
            problems.append("local search is worse than greedy")
    return problems


def environment(workers):
    cores = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "cores": cores,
        "workers": workers,
        "workers_exceed_cores": workers is not None and workers > cores,
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """Identifies the library sources also where there is no git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "groupcent").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(w, seed, seconds, trace):
    """Run one workload; returns the result record (see module docstring)."""
    load_library()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        path = Path(tmp) / f"{w.name}.txt"
        write_edge_list(path, generate(w, seed), w.weighted)
        return _measure(w, path, seed, seconds, trace)


def _measure(w, path, seed, seconds, trace):
    setup_s, graphs = measure_setup(w, path)
    setup_times = [setup_s]
    hashes = {fam: g.content_hash() for fam, g in graphs.items()}
    times = {algo: [] for algo in ALGOS}   # untraced solve seconds
    cost = dict.fromkeys(ALGOS, 0.0)       # seconds the last visit took
    layers = defaultdict(list)             # per-layer metric -> values
    first = {}                             # algo -> first correct report
    failures = []
    attempted = 0
    absent = []
    start = time.perf_counter()
    while True:
        algo = min(ALGOS, key=lambda a: sum(times[a]) or cost[a])
        if all(cost.values()) and \
                time.perf_counter() - start + cost[algo] > seconds:
            break
        t_visit = time.perf_counter()
        if not trace:  # set-up samples spread over the whole run
            setup_times += [measure_setup(w, path)[0] for _ in range(SETUP_REPEATS)]
        fam = family(algo)
        for traced in ((False, True) if trace else (False,)):
            attempted += 1
            tracer = Tracer() if traced else nullcontext()
            with tracer:
                code, out, err, dt = run_solve(solve_argv(w, path, algo))
            if traced:
                absent = tracer.absent
            report, problems = check_solve(algo, code, out, err, graphs[fam],
                                           hashes[fam], w.k)
            if report is not None and not problems:
                problems = consistency(algo, report, first)
            if problems:
                failures.append({"algo": algo, "traced": traced, "problems": problems})
                continue
            first.setdefault(algo, report)
            if not traced:
                times[algo].append(dt)
                continue
            metrics = tracer.take(fam)
            metrics.update({
                "report.evaluated": report["candidatesEvaluated"],
                "report.pruned": report["traversalsPruned"],
                "report.iterations": report["iterations"],
                "report.swaps": report["swapsCommitted"],
                "trace.overhead_s": dt - statistics.median(times[algo] or [dt]),
            })
            for name, value in metrics.items():
                layers[f"{algo_key(algo)}.{name}"].append(value)
        cost[algo] = time.perf_counter() - t_visit

    values, samples = {}, {}
    if trace:
        units = per_layer_units()
        for name, unit in units.items():
            series = layers.get(name, [])
            middle = statistics.median if unit == "s" else statistics.median_low
            values[name] = middle(series) if series else 0
            samples[name] = len(series)
    else:
        units = END_TO_END_UNITS
        values["setup_s"] = statistics.median(setup_times)
        samples["setup_s"] = len(setup_times)
        for algo, series in times.items():
            values[f"{algo_key(algo)}_s"] = statistics.median(series) if series else 0.0
            samples[f"{algo_key(algo)}_s"] = len(series)
        for algo, metric, field in (("greedy-h", "greedy_h_value", "objectiveValue"),
                                    ("ls-h", "ls_h_value", "objectiveValue"),
                                    ("greedy-c", "greedy_c_farness", "rawFarness"),
                                    ("ls-c", "ls_c_farness", "rawFarness")):
            values[metric] = first[algo][field] if algo in first else 0
            samples[metric] = len(times[algo])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        samples["peak_rss_mb"] = 1
    workers = next((r["config"]["workers"] for r in first.values()), None)
    return {
        "correct": not failures and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "samples": samples,
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "graphs": {fam: {"n": g.n, "m": g.num_edges, "hash": hashes[fam]}
                   for fam, g in graphs.items()},
        "groups": {algo: r["group"] for algo, r in first.items()},
        "work": {algo: {key: r[key] for key in WORK_KEYS} for algo, r in first.items()},
        "environment": environment(workers),
        "absent": absent,
        "untraced_s": {algo: statistics.median(t) for algo, t in times.items() if t},
        "series_s": {"setup": setup_times, **times},
        "failures": failures,
    }


def print_result(result):
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}")
    for fam, g in result["graphs"].items():
        print(f"  {fam} graph: n={g['n']} m={g['m']} hash={g['hash']}")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    if env["workers_exceed_cores"]:
        print(f"  WARNING: {env['workers']} workers exceed the {env['cores']} cores available")
    if result["absent"]:
        print("  absent (recorded as 0): " + ", ".join(result["absent"]))
    print(f"  {'metric':<40} {'value':>14}  {'unit':<7} samples")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g}  {m['unit']:<7} {result['samples'][name]}")
    if result["trace"]:
        print("  untraced solve medians: " + "  ".join(
            f"{algo}={t:.4g}s" for algo, t in result["untraced_s"].items()))
    for algo, work in result["work"].items():
        print(f"  work {algo}: " + "  ".join(f"{k}={v}" for k, v in work.items()))
    print(f"  failed/attempted solves: {result['failed']}/{result['attempted']}")
    for f in result["failures"]:
        print(f"  FAILED {f['algo']} (traced={f['traced']}): " + "; ".join(f["problems"]))


def summary_line(result):
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})


def run_all(args):
    """Every workload in its own process, so peak memory is per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stderr.write(proc.stderr)
        try:
            child = json.loads(lines[-1])
        except (IndexError, ValueError):
            raise SystemExit(f"error: workload {name} printed no result "
                             f"(exit code {proc.returncode})")
        print("\n".join(lines[:-1]))
        merged["correct"] = merged["correct"] and child["correct"] and proc.returncode == 0
        merged["attempted"] += child["attempted"]
        merged["failed"] += child["failed"]
        for metric, m in child["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          args.trace)
    (WORK / f"BENCH_{args.workload}.json").write_text(json.dumps(result, indent=1))
    print_result(result)
    print(summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
