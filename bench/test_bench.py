"""Self-test of the benchmark on graphs of 60 vertices.

Runs under pytest from the repository root:
``PYTHONPATH=src python -m pytest bench``.
"""

import io
import json
from contextlib import redirect_stdout

import pytest

import run
import tracing
from groupcent import cli
from groupcent.graph import Graph, load_edge_list, strongly_connected_components
from workloads import WORKLOADS, Workload, generate, write_edge_list

TINY = (
    Workload("tiny-sparse", "sparse", 60, 5, "self-test"),
    Workload("tiny-bowtie", "bowtie", 60, 4, "self-test", core=18, n_in=21),
)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("w", TINY, ids=lambda w: w.name)
def test_every_declared_metric_is_emitted(w, trace):
    result = run.run_workload(w, seed=3, seconds=0, trace=trace)
    assert result["correct"], result["failures"]
    assert result["attempted"] == len(run.ALGOS) * (1 + trace)
    section = DECLARED["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in section}
    assert all(result["samples"].values()), result["samples"]  # measured, not filled in
    line = json.loads(run.summary_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_declared_workloads_match_the_generators():
    assert [(w["name"], w["why"]) for w in DECLARED["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]


def test_tampered_report_counts_as_failed_solve(monkeypatch):
    real_main = cli.main

    def tampered(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = real_main(argv)
        report = json.loads(buf.getvalue())
        if report["algorithm"] == "ls-h":
            outside = min(set(range(60)) - set(report["group"]))
            report["group"][0] = outside
        print(json.dumps(report))
        return code

    monkeypatch.setattr(cli, "main", tampered)
    result = run.run_workload(TINY[0], seed=3, seconds=0, trace=0)
    assert not result["correct"]
    assert (result["failed"], result["attempted"]) == (1, len(run.ALGOS))
    assert result["failures"][0]["algo"] == "ls-h"


def test_missing_traced_function_is_recorded_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (
        ("parallel", "RetiredPool.map", "parallel.map"),
        ("retired_module", "kernel", "retired.kernel")))
    result = run.run_workload(TINY[0], seed=3, seconds=0, trace=1)
    assert result["correct"], result["failures"]
    assert result["absent"] == ["parallel.RetiredPool.map", "retired_module.kernel"]


@pytest.mark.parametrize("w", WORKLOADS.values(), ids=lambda w: w.name)
def test_seed_changes_the_file_not_the_graph(w, tmp_path):
    a, b = generate(w, 1), generate(w, 2)
    assert a == generate(w, 1)
    assert a != b
    hashes = set()
    for seed, edges in ((1, a), (2, b)):
        path = tmp_path / f"{seed}.txt"
        write_edge_list(path, edges, w.weighted)
        hashes.add(load_edge_list(path, directed=w.directed,
                                  weighted=w.weighted).content_hash())
    assert len(hashes) == 1


def test_bowtie_shape():
    w = next(w for w in WORKLOADS.values() if w.kind == "bowtie")
    g = Graph(w.n, generate(w, 1), directed=True)
    comp, count = strongly_connected_components(g)
    sizes = sorted((comp.count(c) for c in set(comp)), reverse=True)
    assert count == 1 + (w.n - w.core)  # the core plus one per DAG vertex
    assert sizes[0] == w.core
