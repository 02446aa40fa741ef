import json
import math
import random
import re
import signal

import pytest

from groupcent import checks, closeness, graph, harmonic
from groupcent.generators import undirected_connected
from groupcent.cli import SOLVERS, _verify_report, main
from groupcent.graph import Graph, multi_source_sssp
from groupcent.oracles import OBJECTIVES
from groupcent.reporting import CSV_COLUMNS, AlgoConfig, report_to_csv_row


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def path3(tmp_path):
    p = tmp_path / "path3.txt"
    p.write_text("0 1\n1 2\n")
    return str(p)


@pytest.fixture
def weighted_path(tmp_path):
    p = tmp_path / "wpath.txt"
    p.write_text("% weighted 4-path\n0 1 2\n1 2 1\n2 3 1\n")
    return str(p)


@pytest.fixture
def single_edge(tmp_path):
    p = tmp_path / "edge.txt"
    p.write_text("0 1\n")
    return str(p)


def strict_json(line):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.loads(line, parse_constant=reject)


def within(seconds, fn, *args, **kwargs):
    """fn's result, or TimeoutError when it runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no return within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.fixture
def disconnected(tmp_path):
    p = tmp_path / "disc.txt"
    p.write_text("0 1\n2 3\n")
    return str(p)


class TestSolve:
    def test_exact_harmonic_path_center(self, capsys, path3):
        code, out, _ = run(capsys, "solve", "--graph", path3, "--k", "1",
                           "--algo", "exact-h")
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == [1]
        assert payload["objectiveValue"] == 2.0

    def test_exact_closeness_weighted_golden(self, capsys, weighted_path):
        code, out, _ = run(capsys, "solve", "--graph", weighted_path,
                           "--weighted", "--k", "1", "--algo", "exact-c")
        assert code == 0
        payload = json.loads(out)
        assert payload["group"] == [1]
        assert payload["objectiveValue"] == 0.8
        assert payload["rawFarness"] == 5

    def test_deterministic_runs_byte_identical(self, capsys, weighted_path):
        argv = ("solve", "--graph", weighted_path, "--weighted", "--k", "2",
                "--algo", "ls-c", "--deterministic", "--seed", "7")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        strip = lambda s: {k: v for k, v in json.loads(s).items()
                           if k != "wallTimeMillis"}
        assert json.dumps(strip(out1), sort_keys=True) == \
            json.dumps(strip(out2), sort_keys=True)

    def test_csv_output(self, capsys, path3):
        code, out, _ = run(capsys, "solve", "--graph", path3, "--k", "1",
                           "--algo", "greedy-h", "--output", "csv")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("algorithm,k,group")
        assert row.startswith("greedy-h,1,1,")

    def test_csv_row_is_the_json_report_flattened(self):
        g = Graph(7, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 4, 3), (4, 5, 1),
                      (5, 6, 2), (1, 5, 4), (0, 6, 1)])
        pinned = {
            harmonic.greedy_harmonic: "greedy-h,2,2 5,harmonic,3.833333333333333,,"
            "2,0,13,5,12.5,7,8,False,True,1d9d563af8250ede,0.01,100,0,1,True",
            closeness.local_search_closeness: "ls-c,2,2 6,closeness,0.875,8,"
            "3,2,25,5,12.5,7,8,False,True,1d9d563af8250ede,0.01,100,0,1,True",
        }
        for solve, row in pinned.items():
            report = solve(g, 2, AlgoConfig(k=2))
            report.wall_time_millis = 12.5
            assert report_to_csv_row(report) == row
            d = json.loads(report.to_json())
            flat = {**d, **d["config"], **d["graph"]}
            cells = dict(zip(CSV_COLUMNS, row.split(",")))
            assert len(cells) == len(CSV_COLUMNS) == len(row.split(","))
            assert cells.pop("group") == " ".join(map(str, flat["group"]))
            raw = flat["rawFarness"]
            assert cells.pop("rawFarness") == ("" if raw is None else str(raw))
            assert cells == {c: str(flat[c]) for c in cells}

    def test_all_algorithms_run(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 3), (1, 5), (2, 6)]
        p.write_text("".join(f"{u} {v}\n" for u, v in edges))
        for algo in ("greedy-h", "ls-h", "greedy-c", "ls-c", "exact-h",
                     "exact-c", "random-h", "random-c"):
            code, out, err = run(capsys, "solve", "--graph", str(p), "--k", "2",
                                 "--algo", algo, "--deterministic")
            assert code == 0, (algo, err)
            assert json.loads(out)["algorithm"] == algo

    def test_solve_path_runs_no_all_sources_scan(self, capsys, tmp_path,
                                                 monkeypatch):
        # an O(nm) start (one SSSP per vertex) must not come back silently
        def forbidden(*args, **kwargs):
            raise AssertionError("all-sources scan on the solve path")
        monkeypatch.setattr(harmonic, "harmonic_centralities", forbidden)
        for module in (graph, harmonic, closeness):
            monkeypatch.setattr(module, "sssp", forbidden, raising=False)
        rng = random.Random(60)
        g = undirected_connected(300, rng, extra=0.01)
        p = tmp_path / "g300.txt"
        p.write_text("".join(f"{u} {v}\n" for u, v, _ in g.edges()))
        for algo in ("greedy-h", "ls-h", "greedy-c", "ls-c"):
            code, out, err = run(capsys, "solve", "--graph", str(p), "--k", "5",
                                 "--algo", algo)
            assert code == 0, (algo, err)
            assert len(json.loads(out)["group"]) == 5

    def test_serial_by_default_and_retired_options_rejected(self, capsys,
                                                            weighted_path):
        argv = ("solve", "--graph", weighted_path, "--weighted", "--k", "2",
                "--algo", "ls-c")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        strip = lambda s: re.sub(r'"wallTimeMillis":[^,]*,', "", s)
        assert (strip(out1) == strip(out2)
                and json.loads(out1)["config"]["workers"] == 1)
        assert [run(capsys, *argv, *extra)[0] for extra in
                (("--workers", "2"), ("--p", "2"), ("--algo", "multiswap-c"))] \
            == [1, 1, 1]


class TestVerifyReport:
    """The CLI recomputes every emitted value with the solver's own
    objective record and demands exact equality."""

    def test_every_algorithm_matches_its_record_exactly(self):
        rng = random.Random(70)
        for trial in range(4):
            g = undirected_connected(16, rng, weights=(1, 2, 3) if trial % 2 else (1,))
            for algo, solve in SOLVERS.items():
                report = solve(g, AlgoConfig(k=3))
                group = report.group
                fresh = OBJECTIVES[report.objective_kind].report(
                    g, multi_source_sssp(g, group), set(group))
                assert fresh == (report.objective_value, report.raw_farness), algo
                _verify_report(g, report)

    def test_one_ulp_off_fails(self):
        g = undirected_connected(12, random.Random(71), weights=(1, 2, 3))
        for solve in (harmonic.greedy_harmonic, closeness.greedy_closeness):
            report = solve(g, 2)
            value = report.objective_value
            for off in (math.nextafter(value, math.inf),
                        math.nextafter(value, -math.inf)):
                report.objective_value = off
                with pytest.raises(RuntimeError):
                    _verify_report(g, report)
            report.objective_value = value
            _verify_report(g, report)
            if report.raw_farness is not None:
                report.raw_farness += 1
                with pytest.raises(RuntimeError):
                    _verify_report(g, report)


class TestExitCodes:
    def test_unknown_algo_is_usage_error(self, capsys, path3):
        code, _, err = run(capsys, "solve", "--graph", path3, "--k", "1",
                           "--algo", "nonsense")
        assert code == 1

    @pytest.mark.parametrize("algo, k", (("greedy-h", "4"), ("greedy-c", "3")),
                             ids=("greedy-h", "greedy-c"))
    @pytest.mark.parametrize("command", (["solve"], ["compare", "--baseline", "exact"]),
                             ids=("solve", "compare"))
    def test_k_out_of_range(self, capsys, path3, command, algo, k):
        # the smallest k out of range on the 3-vertex path: harmonic allows
        # k = n, closeness needs k < n
        code, out, err = run(capsys, *command, "--graph", path3, "--k", k,
                             "--algo", algo)
        assert code == 1
        assert "out of range" in err and not out

    @pytest.mark.parametrize("eps", ("nan", "inf"))
    @pytest.mark.parametrize("algo", ("ls-h", "ls-c"))
    def test_non_finite_eps_is_usage_error(self, capsys, path3, algo, eps):
        code, out, err = run(capsys, "solve", "--graph", path3, "--k", "1",
                             "--algo", algo, "--eps", eps)
        assert code == 1
        assert "eps" in err and not out

    def test_closeness_on_disconnected_without_scc(self, capsys, disconnected):
        for algo in ("greedy-c", "ls-c", "exact-c", "random-c"):
            code, _, err = run(capsys, "solve", "--graph", disconnected,
                               "--k", "1", "--algo", algo)
            assert code == 2
            assert err.startswith(f"error: {disconnected}: ") and "--scc" in err

    def test_compare_names_the_disconnected_file(self, capsys, path3,
                                                 disconnected):
        code, out, err = run(capsys, "compare", "--graph", path3, "--graph",
                             disconnected, "--k", "1", "--algo", "greedy-c",
                             "--baseline", "exact")
        assert code == 2
        assert json.loads(out)["graph"] == path3
        assert err.startswith(f"error: {disconnected}: ") and "--scc" in err

    @pytest.mark.parametrize("algo", ("greedy-h", "ls-c"))
    def test_scc_on_a_connected_graph_changes_nothing(self, capsys, tmp_path,
                                                      algo):
        p = tmp_path / "g.txt"
        p.write_text("".join(f"{u} {v} {1 + (u * v) % 3}\n" for u, v in
                             [(i, (i + 1) % 9) for i in range(9)] + [(0, 4)]))
        argv = ("solve", "--graph", str(p), "--k", "2", "--algo", algo,
                "--weighted", "--directed")
        reports = []
        for extra in ((), ("--scc",)):
            code, out, _ = run(capsys, *argv, *extra)
            assert code == 0
            reports.append(re.sub(r'"wallTimeMillis":[^,}]*', "", out))
        assert reports[0] == reports[1]

    def test_closeness_with_scc_extracts_component(self, capsys, disconnected):
        code, out, _ = run(capsys, "solve", "--graph", disconnected, "--k", "1",
                           "--algo", "greedy-c", "--scc")
        assert code == 0
        assert json.loads(out)["graph"]["n"] == 2

    def test_budget_refusal(self, capsys, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("".join(f"{i} {i + 1}\n" for i in range(59)))
        code, _, err = run(capsys, "solve", "--graph", str(p), "--k", "20",
                           "--algo", "exact-h")
        assert code == 3


class TestCompare:
    def test_greedy_vs_exact_ratio_floor(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        edges = [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (2, 7)]
        p.write_text("".join(f"{u} {v}\n" for u, v in edges))
        code, out, _ = run(capsys, "compare", "--graph", str(p), "--k", "2",
                           "--algo", "greedy-h", "--baseline", "exact",
                           "--deterministic")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[0])
        assert 0.26 <= payload["qualityRatio"] <= 1.0 + 1e-12

    def test_closeness_framing_inverts_farness(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("".join(f"{i} {i + 1}\n" for i in range(6)))
        code, out, _ = run(capsys, "compare", "--graph", str(p), "--k", "2",
                           "--algo", "ls-c", "--baseline", "exact",
                           "--deterministic")
        assert code == 0
        payload = json.loads(out.strip().splitlines()[0])
        assert payload["qualityRatio"] <= 1.0 + 1e-12

    def test_random_baseline_reproducible(self, capsys, path3):
        argv = ("compare", "--graph", path3, "--k", "1", "--algo", "greedy-h",
                "--baseline", "random", "--seed", "3", "--deterministic")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        keep = lambda s: {k: v for k, v in json.loads(s.splitlines()[0]).items()
                          if "Millis" not in k and k != "relativeTime"}
        assert keep(out1) == keep(out2)

    def test_multi_graph_aggregate(self, capsys, tmp_path):
        paths = []
        for i, n in enumerate((6, 7)):
            p = tmp_path / f"g{i}.txt"
            p.write_text("".join(f"{u} {u + 1}\n" for u in range(n - 1)))
            paths.append(str(p))
        code, out, _ = run(capsys, "compare", "--graph", paths[0], "--graph",
                           paths[1], "--k", "1", "--algo", "greedy-h",
                           "--baseline", "random", "--deterministic")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[-1])["aggregate"] == "geometric-mean"

    def test_aggregate_without_positive_ratio_is_null(self, capsys, single_edge):
        # a full group on a single edge scores 0 for both solvers
        code, out, _ = run(capsys, "compare", "--graph", single_edge, "--graph",
                           single_edge, "--k", "2", "--algo", "greedy-h",
                           "--baseline", "exact")
        assert code == 0
        *per_graph, aggregate = map(strict_json, out.strip().splitlines())
        assert all(line["qualityRatio"] is None for line in per_graph)
        assert aggregate["qualityRatio"] is None

    @pytest.mark.parametrize("algo", ("greedy-h", "ls-h", "greedy-c", "ls-c"))
    @pytest.mark.parametrize("baseline", ("exact", "random"))
    def test_every_line_is_strict_json(self, capsys, single_edge, path3,
                                       algo, baseline):
        # harmonic k=2 fills the single edge, so its baseline scores 0
        k = "2" if algo.endswith("-h") else "1"
        code, out, _ = run(capsys, "compare", "--graph", single_edge, "--graph",
                           path3, "--k", k, "--algo", algo,
                           "--baseline", baseline)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            strict_json(line)


class TestCheck:
    def test_bounds_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "bounds")
        assert code == 0
        assert out.startswith("PASS bounds")

    def test_submodularity_on_given_graph(self, capsys, weighted_path):
        code, out, _ = run(capsys, "check", "--suite", "submodularity",
                           "--graph", weighted_path, "--weighted")
        assert code == 0
        assert out.startswith("PASS submodularity")

    def test_bounds_on_huge_weights(self, capsys, tmp_path):
        # the bounds' suffixes grow with the number of distinct distances,
        # not with the largest one
        p = tmp_path / "huge.txt"
        w = 10 ** 12
        p.write_text(f"0 1 {w}\n1 2 {w}\n2 3 {w}\n3 0 {2 * w}\n")
        code, out, _ = within(60, run, capsys, "check", "--suite", "bounds",
                              "--graph", str(p), "--weighted")
        assert code == 0
        assert out.startswith("PASS bounds")

    @pytest.mark.parametrize("suite", ("bounds", "submodularity"))
    def test_single_edge_graph_falls_back_to_generated(self, capsys,
                                                       single_edge, suite):
        code, out, _ = within(60, run, capsys, "check", "--suite", suite,
                              "--graph", single_edge)
        assert code == 0
        assert out.startswith(f"PASS {suite}")
        assert "generated graphs" in out

    def test_bounds_skip_graphs_that_cannot_host_a_case(self):
        edge = Graph(2, [(0, 1, 1)])
        outcome = within(60, checks.bound_check, cases_per_regime=5,
                         graphs=[edge])
        assert outcome.passed and outcome.checked > 0 and outcome.notes
        pair = Graph(4, [(0, 1, 1), (2, 3, 1)])
        path = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
        outcome = within(60, checks.bound_check, cases_per_regime=5,
                         graphs=[pair, path])
        assert outcome.passed and outcome.checked > 0 and not outcome.notes

    def test_submodularity_skips_small_graphs_keeping_the_stream(self):
        path = Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)])
        alone = checks.submodularity_check(min_triples=50, graphs=[path])
        mixed = checks.submodularity_check(
            min_triples=50, graphs=[Graph(2, [(0, 1, 1)]), path])
        assert mixed == alone and alone.checked == 50 and not alone.notes

    def test_all_suites(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "all")
        assert code == 0
        assert out.splitlines() == [
            "PASS submodularity: 1000 checks, 0 violations",
            "PASS bounds: 28228 checks, 0 violations",
            "PASS oracle: 90 checks, 0 violations",
            "  note: directed greedy/opt mean ratio 0.9889 over 36 instances",
            "  note: undirected greedy/opt mean ratio 0.9954 over 36 instances",
        ]

    def test_failing_suite_fails_the_process(self, capsys, monkeypatch):
        failing = lambda seed: checks.CheckOutcome(
            name="failing", passed=False, checked=1, violations=["x"])
        monkeypatch.setitem(checks.ALL_SUITES, "failing", failing)
        code, out, _ = run(capsys, "check")
        assert code == 4
        assert "FAIL failing: 1 checks, 1 violations" in out
        assert run(capsys, "check", "--suite", "bounds")[0] == 0
