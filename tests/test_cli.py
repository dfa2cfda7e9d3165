"""End-to-end tests for the command-line interface."""

import ast
import io
import json
import re
import threading
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import ID3, K4, THETA, TRIANGLE
import trofey
from trofey import cli, fock
from trofey.cli import main
from trofey.covers import cover_count, cover_table, descendant_contribution
from trofey.graphs import FeynmanGraph, all_orders, orientation_classes
from trofey.integrals import multidegrees, refined_coeff
from trofey.quasimodular import fit as quasimodular_fit


@pytest.fixture()
def graphs(tmp_path):
    files = {}
    specs = {
        "triangle": {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "genus": [1, 0, 0]},
        "right": {"n": 3, "edges": [[1, 1], [1, 2], [2, 3], [1, 3]]},
        "theta": {"n": 2, "edges": [[1, 2], [1, 2], [1, 2]]},
        "k4": {"n": 4, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]},
        "dbl_dbl": {"n": 4, "edges": [[1, 2], [1, 2], [1, 3], [2, 4], [3, 4], [3, 4]]},
        "unsorted": {"n": 3, "edges": [[1, 2], [1, 1], [2, 3], [1, 3]]},
        # the 3-cube: 8! vertex orders, 37 orbits under its 48 symmetries and reversal
        "cube": {
            "n": 8,
            "edges": [
                [1, 2], [2, 3], [3, 4], [1, 4], [5, 6], [6, 7],
                [7, 8], [5, 8], [1, 5], [2, 6], [3, 7], [4, 8],
            ],
        },
        # two triangles with a doubled edge each, joined by the bridge (1, 4)
        "bridged": {
            "n": 6,
            "edges": [[1, 2], [1, 3], [2, 3], [2, 3], [4, 5], [4, 6], [5, 6], [5, 6], [1, 4]],
        },
    }
    for name, payload in specs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        files[name] = str(path)
    return files


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_integral_triangle_example(graphs, capsys):
    code, out, _ = run(
        capsys,
        "integral", "--graph", graphs["triangle"], "--k", "2,0,0",
        "--gf", "1,0,0", "--order", "id", "--a", "0,0,3",
    )
    assert code == 0
    assert out == "115/6\n"


def test_integral_right_example(graphs, capsys):
    code, out, _ = run(
        capsys,
        "integral", "--graph", graphs["right"], "--gf", "0,0,0",
        "--order", "id", "--a", "2,0,0,1",
    )
    assert code == 0
    assert out == "3\n"


def test_integral_loop_without_degree(graphs, capsys):
    code, out, _ = run(
        capsys,
        "integral", "--graph", graphs["right"], "--gf", "0,0,0",
        "--order", "id", "--a", "0,1,0,2",
    )
    assert code == 0
    assert out == "0\n"


def test_integral_genus_from_file(graphs, capsys):
    # triangle.json carries genus [1,0,0]; omitting --gf uses it
    code, out, _ = run(
        capsys,
        "integral", "--graph", graphs["triangle"], "--order", "id", "--a", "0,0,3",
    )
    assert code == 0
    assert out == "115/6\n"


def test_integral_inconsistent_k_is_validation_error(graphs, capsys):
    code, _, err = run(
        capsys,
        "integral", "--graph", graphs["triangle"], "--k", "1,1,0",
        "--gf", "1,0,0", "--order", "id", "--a", "0,0,3",
    )
    assert code == 3
    assert "error:" in err


def test_integral_needs_a_or_q_order(graphs, capsys):
    code, _, err = run(capsys, "integral", "--graph", graphs["triangle"])
    assert code == 2
    assert "--a or --q-order" in err


def test_integral_rejects_both_a_and_q_order(graphs, capsys):
    # one query reads one multidegree or one q-series, never both
    code, out, err = run(
        capsys,
        "integral", "--graph", graphs["triangle"], "--a", "0,0,0", "--q-order", "2",
    )
    assert (code, out, err) == (2, "", "error: use one of --a or --q-order\n")


def test_integral_rejects_leaks_with_q_order(graphs, capsys):
    # a leak vector refines one multidegree: a q-series query has none
    code, out, err = run(
        capsys,
        "integral", "--graph", graphs["triangle"], "--q-order", "2", "--l", "1,-1,0",
    )
    assert (code, out, err) == (2, "", "error: leaks only combine with --a\n")


def test_integral_bad_vector_is_parse_error(graphs, capsys):
    code, _, _ = run(
        capsys,
        "integral", "--graph", graphs["triangle"], "--order", "id", "--a", "0,x,3",
    )
    assert code == 2


def test_integral_order_that_is_no_permutation_is_validation_error(graphs, capsys):
    code, out, err = run(
        capsys, "integral", "--graph", graphs["triangle"], "--a", "0,0,3", "--order", "1,1,2"
    )
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: order must be a permutation of 1..3, got '1,1,2'"]


def test_integral_negative_q_order_is_validation_error(graphs, capsys):
    for order in ("id", "all"):
        code, out, err = run(
            capsys,
            "integral", "--graph", graphs["triangle"], "--order", order, "--q-order", "-3",
        )
        assert code == 3
        assert out == ""
        assert err == "error: q-order must be >= 0, got -3\n"


@pytest.mark.parametrize(
    "name, leak_vectors",
    [
        ("theta", [None, (1, -1), (2, -2)]),
        ("k4", [None, (1, -1, 0, 0), (1, -1, 1, -1)]),
        # on dbl_dbl some orientation classes hold 2 or 4 orders; these
        # leaks reach them at sum(a) <= 2
        ("dbl_dbl", [None, (1, -1, 1, -1), (1, -1, -1, 1)]),
    ],
    ids=["theta", "k4", "dbl_dbl"],
)
def test_integral_all_orders_is_the_sum_over_orders(graphs, capsys, name, leak_vectors):
    # --order all reads one representative per orientation class, weighted
    # by its size; the output equals the sum over every vertex order
    path = graphs[name]
    data = json.loads(Path(path).read_text())
    graph = FeynmanGraph(data["n"], tuple(map(tuple, data["edges"])))
    nonzero = 0
    for a in multidegrees(graph, 2):
        for l in leak_vectors:
            total = sum(refined_coeff(graph, order, a, l=l) for order in all_orders(graph.n))
            argv = ["integral", "--graph", path, "--order", "all", "--a", ",".join(map(str, a))]
            if l is not None:
                argv += ["--l", ",".join(map(str, l))]
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (0, f"{cli._format_rational(total)}\n", ""), (a, l)
            nonzero += total != 0
    assert nonzero >= 10


def test_one_row_queries_print_a_bare_value(graphs, capsys):
    # a single result row prints its value alone, with no labels
    code, out, err = run(capsys, "invariant", "--k", "1,1", "--dmax", "1")
    assert (code, out, err) == (0, "0\n", "")
    code, out, err = run(
        capsys, "integral", "--graph", graphs["triangle"], "--order", "id", "--q-order", "0"
    )
    assert (code, out, err) == (0, "0\n", "")


def test_one_row_queries_in_json(graphs, capsys):
    code, out, err = run(capsys, "--format", "json", "invariant", "--k", "1,1", "--dmax", "1")
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "meta": {\n    "edge_relabeling": null,\n    "version": "%s"\n  },\n'
        '  "query": {\n    "command": "invariant",\n    "dmax": 1,\n'
        '    "k": [\n      1,\n      1\n    ],\n    "route": "covers"\n  },\n'
        '  "results": [\n    {\n      "labels": {\n        "d": 1\n      },\n'
        '      "value": "0"\n    }\n  ]\n}\n' % trofey.__version__
    )
    path = graphs["triangle"]
    code, out, err = run(
        capsys, "--format", "json", "integral", "--graph", path, "--order", "id",
        "--q-order", "0",
    )
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "meta": {\n    "edge_relabeling": null,\n    "version": "%s"\n  },\n'
        '  "query": {\n    "a": null,\n    "command": "integral",\n'
        '    "gf": [\n      1,\n      0,\n      0\n    ],\n    "graph": %s,\n'
        '    "l": null,\n    "order": "id",\n    "q_order": 0\n  },\n'
        '  "results": [\n    {\n      "labels": {\n        "d": 0,\n'
        '        "order": "id"\n      },\n      "value": "0"\n    }\n  ]\n}\n'
        % (trofey.__version__, json.dumps(path))
    )


def test_missing_graph_file_is_parse_error(capsys, tmp_path):
    code, _, err = run(
        capsys, "integral", "--graph", str(tmp_path / "nope.json"), "--a", "1"
    )
    assert code == 2
    assert "cannot read graph file" in err


def test_missing_series_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "nope.json"
    code, out, err = run(capsys, "fit", "--from", str(path), "--max-weight", "2")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot read series file: ")
    assert str(path) in err


@pytest.mark.parametrize(
    "argv, what",
    [
        (["integral", "--a", "1", "--graph"], "graph"),
        (["fock", "check", "--amax", "1", "--graph"], "graph"),
        (["fit", "--max-weight", "2", "--from"], "series"),
    ],
)
def test_non_utf8_file_is_parse_error(capsys, tmp_path, argv, what):
    # ff fe 7b does not decode as UTF-8, so the file holds no JSON text
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\xff\xfe\x7b")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {what} file is not valid JSON: ")


def test_json_report_schema(graphs, capsys):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "integral", "--graph", graphs["triangle"], "--gf", "1,0,0",
        "--order", "id", "--a", "0,0,3",
    )
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"query", "results", "meta"}
    assert report["meta"]["version"] == trofey.__version__
    assert report["meta"]["edge_relabeling"] is None
    assert report["results"] == [
        {"labels": {"order": "id", "a": "0,0,3"}, "value": "115/6"}
    ]


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 3.7, "edges": [[1, 2], [2, 3], [1, 3]]}, "graph JSON needs an integer field 'n'"),
        ({"n": "3", "edges": [[1, 2], [2, 3], [1, 3]]}, "graph JSON needs an integer field 'n'"),
        ({"n": 3, "edges": [[True, 2], [2, 3], [1, 3]]}, "bad edge entry [True, 2]"),
        (
            {"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "genus": [True, False, False]},
            "'genus' must be a list of integers",
        ),
    ],
)
def test_graph_file_takes_only_json_integers(capsys, tmp_path, payload, message):
    # 3.7 is not read as 3, "3" not as 3, true not as 1
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "integral", "--graph", str(path), "--a", "0,0,3")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: bad graph file: {message}"]


@pytest.mark.parametrize(
    "payload, argv",
    [
        # an isolated vertex: the integral is 0 at every q-order, a vacuous table
        ({"n": 3, "edges": [[1, 2]]}, ["integral", "--q-order", "2"]),
        # two disjoint theta graphs: a sweep over a graph the routes do not count
        (
            {"n": 4, "edges": [[1, 2], [1, 2], [1, 2], [3, 4], [3, 4], [3, 4]]},
            ["fock", "check", "--amax", "2"],
        ),
        # 10**12 vertices and one edge: no spanning tree, turned down
        # before anything of size n is built
        ({"n": 10**12, "edges": [[1, 2]]}, ["integral", "--a", "0"]),
        ({"n": 10**12, "edges": [[1, 2]]}, ["fock", "check", "--amax", "1"]),
    ],
)
def test_disconnected_graph_file_is_parse_error(capsys, tmp_path, payload, argv):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, *argv, "--graph", str(path))
    assert (code, out, err) == (2, "", "error: bad graph file: graph is not connected\n")


def test_loop_resort_warns_and_records_permutation(graphs, capsys):
    code, out, err = run(
        capsys,
        "--format", "json",
        "integral", "--graph", graphs["unsorted"], "--gf", "0,0,0",
        "--order", "id", "--a", "2,0,0,1",
    )
    assert code == 0
    assert "loop edges moved to the front" in err
    report = json.loads(out)
    assert report["meta"]["edge_relabeling"] == [2, 1, 3, 4]
    assert report["results"][0]["value"] == "3"


def test_invariant_covers_route(capsys):
    code, out, _ = run(capsys, "invariant", "--k", "2,0,0", "--dmax", "3")
    assert code == 0
    assert out.splitlines() == ["d=1 1/4", "d=2 27", "d=3 279"]


def test_invariant_integral_route_agrees(capsys):
    code, out, _ = run(
        capsys, "invariant", "--k", "2,0,0", "--dmax", "2", "--route", "integrals"
    )
    assert code == 0
    assert out.splitlines() == ["d=1 1/4", "d=2 27"]


def test_invariant_compare_passes(capsys):
    code, out, _ = run(capsys, "invariant", "--k", "1,1", "--dmax", "2", "--compare")
    assert code == 0
    assert out.splitlines() == ["d=1 0", "d=2 4"]
    # three vertices: some orientation classes hold two vertex orders
    code, out, _ = run(capsys, "invariant", "--k", "2,0,0", "--dmax", "3", "--compare")
    assert code == 0
    assert out.splitlines() == ["d=1 1/4", "d=2 27", "d=3 279"]


def test_invariant_rejects_route_with_compare(capsys):
    # --compare runs both routes, so a --route beside it would go unread
    for route in ("covers", "integrals"):
        code, out, err = run(
            capsys, "invariant", "--k", "1,1", "--dmax", "2", "--compare", "--route", route
        )
        assert (code, out, err) == (2, "", "error: use one of --route or --compare\n")
    # the query echo names the route that ran, covers by default
    cases = [((), "covers"), (("--route", "integrals"), "integrals"), (("--compare",), "compare")]
    for flags, route in cases:
        code, out, _ = run(
            capsys, "--format", "json", "invariant", "--k", "1,1", "--dmax", "1", *flags
        )
        assert code == 0
        assert json.loads(out)["query"]["route"] == route


def test_invariant_compare_mismatch_prints_reproducible_witness(capsys, monkeypatch, tmp_path):
    # corrupt the integral side off the identity order (the first class
    # representative of every graph), so the witness has to name another order
    true_table = cli.integral_series_refined

    def doubled(graph, order, *args, **kwargs):
        table = true_table(graph, order, *args, **kwargs)
        if order == tuple(range(1, graph.n + 1)):
            return table
        return {a: 2 * c for a, c in table.items()}

    monkeypatch.setattr(cli, "integral_series_refined", doubled)
    code, out, err = run(capsys, "invariant", "--k", "2,0,0", "--dmax", "2", "--compare")
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(
        r"route mismatch: edges=(.*) gf=(.*) order=(.*) a=(.*) covers=(\S+) integral=(\S+)",
        lines[0],
    )
    assert match, lines[0]
    edges, gf, order, a = (ast.literal_eval(match.group(i)) for i in range(1, 5))
    covers, integral = (Fraction(match.group(i)) for i in (5, 6))
    graph = FeynmanGraph(len(gf), edges)
    assert order != (1, 2, 3)
    assert order in [rep for rep, _ in orientation_classes(graph)]
    # the printed order and multidegree reproduce both sides of the mismatch
    assert descendant_contribution(graph, gf, order, a, (2, 0, 0)) == covers
    assert doubled(graph, order, 2, gf=gf)[a] == integral
    assert covers != integral
    # and so does the integral command at that order (which the doubling misses)
    path = tmp_path / "witness.json"
    path.write_text(json.dumps({"n": graph.n, "edges": [list(e) for e in edges]}))
    code, out, _ = run(
        capsys, "integral", "--graph", str(path), "--gf", ",".join(map(str, gf)),
        "--order", ",".join(map(str, order)), "--a", ",".join(map(str, a)),
    )
    assert code == 0
    assert 2 * Fraction(out.strip()) == integral
    assert Fraction(out.strip()) == covers


def test_invariant_rejects_one_point(capsys):
    code, _, err = run(capsys, "invariant", "--k", "1", "--dmax", "1")
    assert code == 3
    assert "error:" in err


def test_invariant_rejects_dmax_below_one(capsys):
    code, out, err = run(capsys, "invariant", "--k", "1,1", "--dmax", "0")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: --dmax must be >= 1"]


def test_invariant_csv(capsys):
    code, out, _ = run(
        capsys, "--format", "csv", "invariant", "--k", "2,0,0", "--dmax", "3"
    )
    assert code == 0
    assert out.splitlines() == ["d,value", "1,1/4", "2,27", "3,279"]


def test_fock_double(capsys):
    code, out, _ = run(capsys, "fock", "double", "--mu", "2,1", "--nu", "2,1", "--n", "2")
    assert code == 0
    assert out == "9\n"


def test_fock_double_rejects_negative_n(capsys):
    code, out, err = run(capsys, "fock", "double", "--mu", "2,1", "--nu", "2,1", "--n", "-1")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: --n must be >= 0, got -1"]


def test_fock_elliptic_prints_formula_value(capsys):
    code, out, _ = run(capsys, "fock", "elliptic", "--g", "2", "--d", "3")
    assert code == 0
    assert out == "36\n"


@pytest.mark.parametrize(
    "g, d, message",
    [
        ("0", "2", "--g must be >= 1, got 0"),
        ("-1", "2", "--g must be >= 1, got -1"),
        ("2", "0", "--d must be >= 1, got 0"),
        ("2", "-3", "--d must be >= 1, got -3"),
    ],
)
def test_fock_elliptic_rejects_bad_g_or_d(capsys, g, d, message):
    code, out, err = run(capsys, "fock", "elliptic", f"--g={g}", f"--d={d}")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_fock_check_passes(graphs, capsys):
    code, _, err = run(capsys, "fock", "check", "--graph", graphs["theta"], "--amax", "2")
    assert code == 0
    assert err == ""


@pytest.mark.parametrize(
    "name, amax",
    [("theta", "0"), ("theta", "1"), ("dbl_dbl", "1"), ("k4", "2"), ("bridged", "3")],
)
def test_fock_check_refuses_a_run_that_compares_only_zeros(graphs, capsys, name, amax):
    # every order's operator and cover tables agree because all are empty:
    # "N instances" would be a vacuous pass.  A bridge's winding is the net
    # flow out of one side, 0 without leaks, so a graph with a bridge has
    # no cover at any amax
    code, out, err = run(capsys, "fock", "check", "--graph", graphs[name], "--amax", amax)
    assert (code, out) == (3, "")
    assert err == (
        f"error: --amax {amax}: no vertex order has a cover with sum(a) <= {amax}, "
        "so nothing was compared\n"
    )


def test_fock_check_reports_a_mismatch_before_empty_cover_tables(graphs, capsys, monkeypatch):
    # theta has no cover at amax 1; an operator entry there is a mismatch (exit 4)
    true_tables = cli.fock_tables

    def one_entry(graph, amax):
        tables = true_tables(graph, amax)
        tables[1, 2][1, 0, 0] = 1
        return tables

    monkeypatch.setattr(cli, "fock_tables", one_entry)
    code, out, err = run(capsys, "fock", "check", "--graph", graphs["theta"], "--amax", "1")
    assert (code, out) == (4, "")
    assert err == "operator/cover mismatch: order=(1, 2) a=(1, 0, 0) fock=1 covers=0\n"


def test_fock_check_mismatch_prints_one_witness(graphs, capsys, monkeypatch):
    true_tables = cli.fock_tables

    def off_by_one(graph, amax):
        tables = true_tables(graph, amax)
        for table in tables.values():
            table[2, 0, 0] = table.get((2, 0, 0), 0) + 1
        return tables

    monkeypatch.setattr(cli, "fock_tables", off_by_one)
    code, out, err = run(capsys, "fock", "check", "--graph", graphs["theta"], "--amax", "2")
    assert code == 4
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    match = re.fullmatch(
        r"operator/cover mismatch: order=(.*) a=(.*) fock=(\S+) covers=(\S+)", lines[0]
    )
    assert match, lines[0]
    order, a = ast.literal_eval(match.group(1)), ast.literal_eval(match.group(2))
    assert a == (2, 0, 0)
    covers = cover_count(THETA, order, a)
    assert Fraction(match.group(4)) == covers
    assert Fraction(match.group(3)) == covers + 1


def test_run_tasks_is_serial_in_task_order():
    calls = []

    def task(i):
        calls.append((i, threading.get_ident()))
        return i * i

    tasks = [lambda i=i: task(i) for i in range(5)]
    results = cli._run_tasks(tasks, 2)
    assert calls == []
    # taking one result runs exactly one task
    assert next(results) == 0
    assert calls == [(0, threading.get_ident())]
    assert list(results) == [1, 4, 9, 16]
    assert calls == [(i, threading.get_ident()) for i in range(5)]


def test_fock_check_stops_at_the_first_mismatch(graphs, capsys, monkeypatch):
    # every order mismatches at a = (2, 0, 0); the operator side is one walk
    # over every order, and only the first order's cover pass may run
    true_tables = cli.fock_tables
    true_cover = cli.cover_table
    walks, cover_orders = [], []

    def off_by_one(graph, amax):
        walks.append(amax)
        tables = true_tables(graph, amax)
        for table in tables.values():
            table[2, 0, 0] = table.get((2, 0, 0), 0) + 1
        return tables

    def counted_cover(graph, order, *args):
        cover_orders.append(order)
        return true_cover(graph, order, *args)

    monkeypatch.setattr(cli, "fock_tables", off_by_one)
    monkeypatch.setattr(cli, "cover_table", counted_cover)
    code, out, err = run(capsys, "fock", "check", "--graph", graphs["theta"], "--amax", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("operator/cover mismatch: order=(1, 2) a=(2, 0, 0) ")
    assert walks == [2]
    assert cover_orders == [(1, 2)]


@pytest.mark.parametrize(
    "name, amax, out, passes",
    [
        ("k4", "4", "5040\n", 1),
        ("dbl_dbl", "4", "5040\n", 4),
        ("theta", "2", "20\n", 1),
        ("cube", "3", "18345600\n", 37),
    ],
)
def test_fock_check_runs_one_cover_pass_per_orbit(
    graphs, capsys, monkeypatch, name, amax, out, passes
):
    # the cover side runs once per orbit of vertex orders under the graph's
    # symmetries and reversal: K4's 24 orders are one orbit, dbl_dbl's fall
    # into four and the cube's 40,320 into 37
    true_cover = cli.cover_table
    cover_orders = []

    def counted_cover(graph, order, *args):
        cover_orders.append(order)
        return true_cover(graph, order, *args)

    monkeypatch.setattr(cli, "cover_table", counted_cover)
    assert run(capsys, "fock", "check", "--graph", graphs[name], "--amax", amax) == (0, out, "")
    assert len(cover_orders) == passes


@pytest.mark.parametrize("order", [(4, 3, 2, 1), (3, 1, 4, 2)])
def test_fock_check_compares_every_order_of_an_orbit(graphs, capsys, monkeypatch, order):
    # one order of K4's one orbit has a wrong operator table; it is still
    # compared, with its own cover values, though only the first order ran
    # a cover pass
    a = min(cover_table(K4, order, 4))
    value = cover_count(K4, order, a)
    true_tables, true_cover = cli.fock_tables, cli.cover_table
    cover_orders = []

    def one_off(graph, amax):
        tables = true_tables(graph, amax)
        tables[order][a] += 1
        return tables

    def counted_cover(graph, at, *args):
        cover_orders.append(at)
        return true_cover(graph, at, *args)

    monkeypatch.setattr(cli, "fock_tables", one_off)
    monkeypatch.setattr(cli, "cover_table", counted_cover)
    code, out, err = run(capsys, "fock", "check", "--graph", graphs["k4"], "--amax", "4")
    assert (code, out) == (4, "")
    assert err == f"operator/cover mismatch: order={order} a={a} fock={value + 1} covers={value}\n"
    assert cover_orders == [(1, 2, 3, 4)]


def test_fock_check_prints_the_first_mismatching_multidegree(graphs, capsys, monkeypatch):
    # two multidegrees of the first order mismatch, one of them missing from
    # the table; the witness is the one multidegrees yields first, whatever
    # order the table holds them in
    first, later = (0, 1, 1), (2, 0, 0)
    yielded = list(multidegrees(THETA, 2))
    assert yielded.index(first) < yielded.index(later)
    true_tables = cli.fock_tables

    def two_off(graph, amax):
        tables = true_tables(graph, amax)
        for order, table in tables.items():
            wrong = {later: table.get(later, 0) + 1}
            wrong.update((a, c) for a, c in table.items() if a not in (first, later))
            tables[order] = wrong
        return tables

    monkeypatch.setattr(cli, "fock_tables", two_off)
    code, out, err = run(capsys, "fock", "check", "--graph", graphs["theta"], "--amax", "2")
    assert code == 4
    assert out == ""
    covers = cover_count(THETA, (1, 2), first)
    assert covers != 0
    assert err == f"operator/cover mismatch: order=(1, 2) a={first} fock=0 covers={covers}\n"


def test_invariant_compare_prints_the_first_mismatching_multidegree(capsys, monkeypatch):
    # as above, for the first task of --compare
    true_table = cli.integral_series_refined
    corrupted = []

    def two_off(graph, order, dmax, **kwargs):
        table = true_table(graph, order, dmax, **kwargs)
        if corrupted:
            return table
        yielded = list(multidegrees(graph, dmax))
        first, later = yielded[0], yielded[-1]
        corrupted.append((graph.edges, order, first, table.get(first, 0)))
        wrong = {later: table.get(later, 0) + 1}
        wrong.update((a, c) for a, c in table.items() if a not in (first, later))
        wrong[first] = table.get(first, 0) + 1
        return wrong

    monkeypatch.setattr(cli, "integral_series_refined", two_off)
    code, out, err = run(capsys, "invariant", "--k", "2,0,0", "--dmax", "2", "--compare")
    assert code == 4
    assert out == ""
    [(edges, order, first, value)] = corrupted
    match = re.fullmatch(
        r"route mismatch: edges=(.*) gf=.* order=(.*) a=(.*) covers=(\S+) integral=(\S+)\n", err
    )
    assert match, err
    assert ast.literal_eval(match.group(1)) == edges
    assert ast.literal_eval(match.group(2)) == order
    assert ast.literal_eval(match.group(3)) == first
    assert Fraction(match.group(4)) == value
    assert Fraction(match.group(5)) == value + 1


def test_invariant_compare_stops_at_the_first_mismatch(capsys, monkeypatch):
    # the last task run is the one whose witness is printed
    true_table = cli.integral_series_refined
    calls = []

    def doubled(graph, order, *args, **kwargs):
        calls.append((graph.edges, order))
        table = true_table(graph, order, *args, **kwargs)
        return {a: 2 * c for a, c in table.items()}

    monkeypatch.setattr(cli, "integral_series_refined", doubled)
    code, out, err = run(capsys, "invariant", "--k", "2,0,0", "--dmax", "2", "--compare")
    assert code == 4
    assert out == ""
    match = re.fullmatch(r"route mismatch: edges=(.*) gf=.* order=(.*) a=.*\n", err)
    assert match, err
    edges, order = (ast.literal_eval(match.group(i)) for i in (1, 2))
    assert calls[-1] == (edges, order)
    assert len(calls) < len(cli._compare_tasks((2, 0, 0), 2))


def test_fock_check_guards_the_graph_once(graphs, capsys, monkeypatch):
    # the operator tables check the graph once, before any order, and the
    # command runs no check of its own
    calls = []
    true_guard = fock._check_operator_graph

    def counted(graph):
        calls.append(graph)
        true_guard(graph)

    monkeypatch.setattr(fock, "_check_operator_graph", counted)
    code, out, _ = run(capsys, "fock", "check", "--graph", graphs["theta"], "--amax", "2")
    assert code == 0
    assert out == "20\n"
    assert len(calls) == 1


def test_fock_check_rejects_negative_amax(graphs, capsys):
    # a negative bound sweeps no multidegree; "0 instances" would be a vacuous pass
    code, out, err = run(capsys, "fock", "check", "--graph", graphs["theta"], "--amax", "-1")
    assert code == 3
    assert out == ""
    assert err.splitlines() == ["error: --amax must be >= 0, got -1"]


def test_fock_check_rejects_bad_graph(graphs, capsys):
    code, _, _ = run(capsys, "fock", "check", "--graph", graphs["right"], "--amax", "1")
    assert code == 3


@pytest.mark.parametrize("amax", ["0", "1"])
def test_fock_check_rejects_loops_before_any_order(capsys, tmp_path, amax):
    # the dumbbell's two loops need a_k >= 1 each, so at amax 0 or 1 no
    # multidegree fits; "0 instances" would be a vacuous pass.  Listed
    # after its bridge, the loops are moved to the front with no warning:
    # fock check reads no per-edge data
    path = tmp_path / "dumbbell.json"
    for edges in ([[1, 1], [2, 2], [1, 2]], [[1, 2], [1, 1], [2, 2]]):
        path.write_text(json.dumps({"n": 2, "edges": edges}))
        code, out, err = run(capsys, "fock", "check", "--graph", str(path), "--amax", amax)
        assert (code, out, err) == (
            3, "", "error: labeled matrix elements need a loop-free graph\n"
        ), edges


def test_fit_constant(capsys):
    code, out, _ = run(capsys, "fit", "--coeffs", "1", "--max-weight", "0")
    assert code == 0
    assert out.splitlines() == ["1", "weights {0} homogeneous"]


def test_fit_round_trip_from_json(graphs, capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "--format", "json",
        "integral", "--graph", graphs["triangle"], "--gf", "1,0,0",
        "--order", "id", "--q-order", "16",
    )
    assert code == 0
    series_file = tmp_path / "series.json"
    series_file.write_text(out)

    code, fit_out, _ = run(
        capsys, "--format", "json", "fit", "--from", str(series_file), "--max-weight", "8"
    )
    assert code == 0
    report = json.loads(fit_out)

    # byte-for-byte agreement with the in-process fit
    from trofey.integrals import integral_series_q

    series = integral_series_q(TRIANGLE, (1, 0, 0), ID3, 16)
    direct = quasimodular_fit(series, 8, 16)
    assert report["meta"]["polynomial"] == direct.format_polynomial()
    assert report["meta"]["homogeneous"] is False
    assert report["meta"]["weight_profile"] == [6, 8]


def test_fit_failure_is_exit_5(graphs, capsys, tmp_path):
    # no weight-<=4 polynomial matches the triangle series
    code, out, _ = run(
        capsys,
        "--format", "json",
        "integral", "--graph", graphs["triangle"], "--gf", "1,0,0",
        "--order", "id", "--q-order", "16",
    )
    series_file = tmp_path / "series.json"
    series_file.write_text(out)
    code, _, err = run(
        capsys, "fit", "--from", str(series_file), "--max-weight", "4"
    )
    assert code == 5
    assert "no polynomial of weight" in err


def test_fit_underdetermined_is_exit_5(capsys):
    code, _, err = run(
        capsys, "fit", "--coeffs", "1,2,3", "--max-weight", "8", "--q-order", "4"
    )
    assert code == 5
    assert "underdetermined" in err


def test_fit_odd_weight_bound_is_exit_5(capsys):
    code, out, err = run(capsys, "fit", "--coeffs", "1,0,240", "--max-weight", "3")
    assert code == 5
    assert out == ""
    assert err == "error: weight bound must be a nonnegative even integer\n"


def test_fit_needs_exactly_one_source(capsys):
    code, _, _ = run(capsys, "fit", "--max-weight", "2")
    assert code == 2


def test_fit_rejects_a_coefficient_that_is_no_rational(capsys):
    code, out, err = run(capsys, "fit", "--coeffs", "1,x", "--max-weight", "2")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: not a rational number: 'x'"]


SERIES_FILE_ERROR = (
    "error: series file must be a prior integral/invariant JSON output with d-labeled rows"
)


@pytest.mark.parametrize(
    "rows",
    [
        [{"labels": {"d": "x"}, "value": "1"}],
        [{"labels": {"d": 0.5}, "value": "1"}],
        [{"labels": {"d": 0.0}, "value": "1"}],
        [{"labels": {"d": True}, "value": "1"}],
        [{"labels": {"d": 0}, "value": 1}],
        [{"labels": {"d": 0}, "value": None}],
        [{"labels": {"e": 0}, "value": "1"}],
        [{"labels": ["d"], "value": "1"}],
        [],
    ],
)
def test_fit_rejects_malformed_series_rows(capsys, tmp_path, rows):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"results": rows}))
    code, out, err = run(capsys, "fit", "--from", str(path), "--max-weight", "0")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [SERIES_FILE_ERROR]


def test_fit_q_order_past_the_file_is_validation_error(capsys, tmp_path):
    # the file holds E2 through q^7; q^8 on is unknown, not 0
    e2 = ["1", "-24", "-72", "-96", "-168", "-144", "-288", "-192"]
    path = tmp_path / "series.json"
    rows = [{"labels": {"d": d}, "value": v} for d, v in enumerate(e2)]
    path.write_text(json.dumps({"results": rows}))
    argv = ("fit", "--from", str(path), "--max-weight", "2")
    assert run(capsys, *argv) == (0, "E2\nweights {2} homogeneous\n", "")
    assert run(capsys, *argv, "--q-order", "7")[0] == 0
    code, out, err = run(capsys, *argv, "--q-order", "8")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: --q-order 8 is past the series file's last coefficient, q^7"
    ]
    # --coeffs is a finite polynomial: the terms it omits are 0
    code, out, _ = run(capsys, "fit", "--coeffs", "1", "--max-weight", "2", "--q-order", "8")
    assert (code, out) == (0, "1\nweights {0} homogeneous\n")


def test_fit_reads_every_coeffs_term(capsys):
    # E2 through q^9 with a wrong q^9 (E2's is -312): the default q-order
    # reaches the last given term, and an explicit one may not stop short
    e2 = "1,-24,-72,-96,-168,-144,-288,-192,-360"
    code, out, err = run(capsys, "fit", "--coeffs", f"{e2},999", "--max-weight", "2")
    assert (code, out) == (5, "")
    assert err.splitlines() == [
        "error: no polynomial of weight <= 2 matches the series through q^9"
    ]
    argv = ("fit", "--coeffs", f"{e2},-312", "--max-weight", "2")
    assert run(capsys, *argv) == (0, "E2\nweights {2} homogeneous\n", "")
    code, out, err = run(capsys, *argv, "--q-order", "8")
    assert (code, out) == (3, "")
    assert err.splitlines() == ["error: --q-order 8 is below the last --coeffs term, q^9"]


def test_fit_row_missing_inside_the_file_is_validation_error(capsys, tmp_path):
    # the file holds E2 through q^7 without q^3: that coefficient is
    # unknown, not 0; a file that starts past q^0 still reads q^0 as 0
    e2 = ["1", "-24", "-72", "-96", "-168", "-144", "-288", "-192"]
    path = tmp_path / "series.json"
    rows = [{"labels": {"d": d}, "value": v} for d, v in enumerate(e2) if d not in (3, 5)]
    path.write_text(json.dumps({"results": rows}))
    for extra in ((), ("--q-order", "2")):
        code, out, err = run(capsys, "fit", "--from", str(path), "--max-weight", "2", *extra)
        assert (code, out) == (3, "")
        assert err.splitlines() == [
            "error: series file has no row for q^3 (its rows run from q^0 to q^7)"
        ]
    sigma = ["1", "3", "4", "7", "6", "12", "8"]  # (1 - E2) / 24 from q^1 on
    rows = [{"labels": {"d": d}, "value": v} for d, v in enumerate(sigma, start=1)]
    path.write_text(json.dumps({"results": rows}))
    code, out, err = run(capsys, "fit", "--from", str(path), "--max-weight", "2")
    assert (code, out, err) == (0, "1/24 - 1/24*E2\nweights {0,2} mixed\n", "")


def test_fit_rejects_two_rows_for_one_exponent(capsys, tmp_path):
    # E2 through q^10 plus a wrong second q^3 row: whichever row comes
    # first, neither is taken over the other
    e2 = ["1", "-24", "-72", "-96", "-168", "-144", "-288", "-192", "-360", "-312", "-432"]
    rows = [{"labels": {"d": d}, "value": v} for d, v in enumerate(e2)]
    wrong = {"labels": {"d": 3}, "value": "5"}
    path = tmp_path / "series.json"
    for results in (rows[:3] + [wrong] + rows[3:], rows + [wrong]):
        path.write_text(json.dumps({"results": results}))
        code, out, err = run(capsys, "fit", "--from", str(path), "--max-weight", "2")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: series file has two rows for q^3"]
    path.write_text(json.dumps({"results": rows}))
    assert run(capsys, "fit", "--from", str(path), "--max-weight", "2")[:2] == (
        0, "E2\nweights {2} homogeneous\n"
    )


def test_fit_negative_q_order_is_validation_error(capsys, tmp_path):
    # as for integral: a negative --q-order is a bad query, not a failed fit
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"results": [{"labels": {"d": 0}, "value": "1"}]}))
    for source in (("--coeffs", "1,2"), ("--from", str(path))):
        code, out, err = run(capsys, "fit", *source, "--max-weight", "2", "--q-order", "-1")
        assert (code, out) == (3, "")
        assert err.splitlines() == ["error: --q-order must be >= 0, got -1"]


def test_fit_rejects_a_negative_q_exponent_row(capsys, tmp_path):
    # a malformed row, named by its exponent, wherever it sits in the file
    e2 = ["1", "-24", "-72", "-96", "-168", "-144", "-288", "-192"]
    rows = [{"labels": {"d": d}, "value": v} for d, v in enumerate(e2)]
    negative = {"labels": {"d": -1}, "value": "0"}
    path = tmp_path / "series.json"
    for results in ([negative] + rows, rows + [negative]):
        path.write_text(json.dumps({"results": results}))
        code, out, err = run(capsys, "fit", "--from", str(path), "--max-weight", "2")
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: series file has a row for q^-1: q-exponents must be nonnegative"
        ]


def test_threads_flag_does_not_change_output(graphs, capsys):
    # both commands that hand out tasks, at two thread counts
    for argv in (
        ("--format", "json", "invariant", "--k", "2,0,0", "--dmax", "2", "--compare"),
        ("--format", "json", "fock", "check", "--graph", graphs["theta"], "--amax", "2"),
    ):
        outputs = [run(capsys, "--threads", threads, *argv) for threads in ("1", "3")]
        assert outputs[0][0] == 0, argv
        assert outputs[0] == outputs[1], argv


# no subcommand reads TROFEY_THREADS: it is not a setting
THREAD_ENV_ARGVS = (
    ("invariant", "--k", "1,1", "--dmax", "1"),
    ("invariant", "--k", "1,1", "--dmax", "1", "--compare"),
    ("fit", "--coeffs", "1,0,240", "--max-weight", "4"),
    ("fock", "double", "--mu", "2,1", "--nu", "2,1", "--n", "2"),
    ("fock", "elliptic", "--g", "2", "--d", "3"),
)


def test_threads_env_is_ignored(graphs, capsys, monkeypatch):
    integral = ("integral", "--graph", graphs["theta"], "--a", "0,0,1")
    for argv in THREAD_ENV_ARGVS + (integral,):
        monkeypatch.delenv("TROFEY_THREADS", raising=False)
        unset = run(capsys, *argv)
        for value in ("abc", "0", "3"):
            monkeypatch.setenv("TROFEY_THREADS", value)
            assert run(capsys, *argv) == unset, (argv, value)


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_flag_below_one_is_validation_error(capsys, threads):
    for argv in (
        ("invariant", "--k", "2,0,0", "--dmax", "1", "--compare"),
        ("fock", "elliptic", "--g", "2", "--d", "3"),
    ):
        code, out, err = run(capsys, f"--threads={threads}", *argv)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [f"error: --threads must be >= 1, got {threads}"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("integral_series_q", ["integral", "--graph", "theta", "--q-order", "1"]),
        ("invariant_series", ["invariant", "--k", "2,0,0", "--dmax", "1"]),
        ("double_hurwitz", ["fock", "double", "--mu", "2", "--nu", "2", "--n", "0"]),
        ("elliptic_hurwitz_disconnected", ["fock", "elliptic", "--g", "1", "--d", "1"]),
        ("fock_tables", ["fock", "check", "--graph", "theta", "--amax", "1"]),
    ],
)
def test_a_failed_library_check_exits_3_from_every_subcommand(
    graphs, capsys, monkeypatch, name, argv
):
    # main is the one place that maps a library ValueError to exit 3
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, name, fail)
    argv = [graphs[arg] if arg in graphs else arg for arg in argv]
    assert run(capsys, *argv) == (3, "", "error: boom\n")


def test_a_failed_fit_solve_still_exits_5(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "quasimodular_fit", fail)
    assert run(capsys, "fit", "--coeffs", "1", "--max-weight", "0") == (5, "", "error: boom\n")


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    capsys.readouterr()
    assert info.value.code == 2


# -- fuzzing the input contract --------------------------------------------

# flag -> (well-formed values, malformed or out-of-range values); the
# sizes stay small (dmax <= 2, amax <= 1, g <= 2, d <= 3) to keep runs short
FUZZ_VALUES = {
    "--format": (["plain", "json", "csv"], ["xml"]),
    "--threads": (["1", "2"], ["-5", "0", "x"]),
    "--k": (["2,0,0", "1,1", "1,1,1", "0,0", "2,0", "1"], ["-1,3", "", "x", "1,,1"]),
    "--dmax": (["1", "2"], ["-1", "0", "", "x", "1.5"]),
    "--route": (["covers", "integrals"], ["hurwitz"]),
    "--gf": (["1,0,0", "0,0,0", "0,0"], ["-1,0,0", "x", ""]),
    "--order": (["id", "all", "2,1,3"], ["1,1,1", "x", ""]),
    "--a": (["0,0,3", "0,0,1", "1,0,0,1", "0,0"], ["-1,0,0", "x", ""]),
    "--l": (["0,0,0", "1,-1,0", "1,0,0"], ["x", ""]),
    "--q-order": (["0", "3"], ["-1", "", "x"]),
    "--mu": (["2,1", "3", "1,1,1", "2"], ["0", "-1", "x", ""]),
    "--nu": (["2,1", "3", "1,1,1", "2"], ["0", "-1", "x", ""]),
    "--n": (["0", "2"], ["-1", "", "x"]),
    "--g": (["1", "2"], ["-1", "0", "", "x"]),
    "--d": (["1", "3"], ["-1", "0", "", "x"]),
    "--amax": (["0", "1"], ["-1", "", "x"]),
    "--coeffs": (
        ["1,-24,-72,-96,-168,-144,-288,-192", "1,0,240", "1", "1/2,3"],
        ["", "x", "1/0"],
    ),
    "--max-weight": (["0", "2", "4"], ["-2", "3", "", "x"]),
}
FUZZ_FLAGS = {
    ("integral",): ["--graph", "--k", "--gf", "--order", "--a", "--l", "--q-order"],
    ("invariant",): ["--k", "--dmax", "--route", "--compare"],
    ("fock", "double"): ["--mu", "--nu", "--n"],
    ("fock", "elliptic"): ["--g", "--d"],
    ("fock", "check"): ["--graph", "--amax"],
    ("fit",): ["--from", "--coeffs", "--max-weight", "--q-order"],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    payloads = {
        "triangle.json": '{"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "genus": [1, 0, 0]}',
        "right.json": '{"n": 3, "edges": [[1, 1], [1, 2], [2, 3], [1, 3]]}',
        "unsorted.json": '{"n": 3, "edges": [[1, 2], [1, 1], [2, 3], [1, 3]]}',
        "theta.json": '{"n": 2, "edges": [[1, 2], [1, 2], [1, 2]]}',
        "point.json": '{"n": 1, "edges": [[1, 1]]}',
        "bad_edge.json": '{"n": 2, "edges": [[1, 3]]}',
        "list.json": "[1, 2]",
        "broken.json": '{"n": 3,',
        "empty.json": "",
        "not_utf8.json": b"\xff\xfe\x7b",
        "series.json": json.dumps(
            {"results": [{"labels": {"d": d}, "value": v} for d, v in enumerate(["1", "-24", "-72"])]}
        ),
        "series_d_text.json": '{"results": [{"labels": {"d": "x"}, "value": "1"}]}',
        "series_d_float.json": '{"results": [{"labels": {"d": 0.5}, "value": "1"}]}',
        "series_d_bool.json": '{"results": [{"labels": {"d": true}, "value": "1"}]}',
        "series_value_number.json": '{"results": [{"labels": {"d": 0}, "value": 1}]}',
        "series_no_rows.json": '{"results": []}',
        "series_gap.json": json.dumps(
            {"results": [{"labels": {"d": d}, "value": "1"} for d in (0, 1, 3)]}
        ),
        "series_two_rows.json": json.dumps(
            {"results": [{"labels": {"d": d}, "value": "1"} for d in (0, 1, 2, 1)]}
        ),
        "series_negative_d.json": json.dumps(
            {"results": [{"labels": {"d": d}, "value": "1"} for d in (-1, 0, 1, 2)]}
        ),
        "n_float.json": '{"n": 3.7, "edges": [[1, 2], [2, 3], [1, 3]]}',
        "n_text.json": '{"n": "3", "edges": [[1, 2], [2, 3], [1, 3]]}',
        "edge_bool.json": '{"n": 3, "edges": [[true, 2], [2, 3], [1, 3]]}',
        "genus_bool.json": '{"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "genus": [true, false, false]}',
        "disconnected.json": '{"n": 3, "edges": [[1, 2]]}',
        "two_thetas.json": '{"n": 4, "edges": [[1, 2], [1, 2], [1, 2], [3, 4], [3, 4], [3, 4]]}',
        "huge_n.json": '{"n": 1000000000000, "edges": [[1, 2]]}',
    }
    for name, text in payloads.items():
        (root / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    return [str(root / name) for name in payloads] + [str(root / "missing.json")]


@st.composite
def fuzz_argv(draw, files):
    def value(flag):
        if flag in ("--graph", "--from"):
            return draw(st.sampled_from(files))
        good, bad = FUZZ_VALUES[flag]
        return draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 0 else good))

    def option(flag):
        if flag == "--compare":
            return [flag]
        text = value(flag)
        return [f"{flag}={text}"] if draw(st.booleans()) else [flag, text]

    argv = []
    for flag in ("--format", "--threads"):
        if draw(st.booleans()):
            argv += option(flag)
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv += list(command)
    for flag in FUZZ_FLAGS[command]:
        if draw(st.integers(0, 7)):  # each flag present seven times in eight
            argv += option(flag)
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(["--bogus", "extra", "-1"])))
    return argv


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzz_cli_exit_codes_and_one_line_errors(fuzz_files, data):
    # Every argv ends in a documented exit code with no traceback (in
    # process, an uncaught exception leaves main and fails the test); a
    # validation or fit error is exactly one "error:" line.
    argv = data.draw(fuzz_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    stderr = err.getvalue()
    assert code in (0, 2, 3, 4, 5), (argv, code, stderr)
    assert "Traceback" not in stderr
    messages = [line for line in stderr.splitlines() if not line.startswith("warning:")]
    if code in (3, 5):
        assert len(messages) == 1 and messages[0].startswith("error: "), (argv, stderr)
    if code == 0:
        assert messages == [] and out.getvalue(), (argv, stderr)


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_examples():
    """Every ``$ trofey ...`` line of the README followed by its shown output."""
    examples, current = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ trofey "):
            current = (line[len("$ trofey "):], [])
            examples.append(current)
        elif current is not None and line and not line.startswith(("#", "```")):
            current[1].append(line)
        else:
            current = None
    return [(command, output) for command, output in examples if output]


def test_readme_cli_examples(tmp_path, capsys, monkeypatch):
    (tmp_path / "triangle.json").write_text(
        '{"n": 3, "edges": [[1, 2], [2, 3], [1, 3]], "genus": [1, 0, 0]}'
    )
    (tmp_path / "theta.json").write_text('{"n": 2, "edges": [[1, 2], [1, 2], [1, 2]]}')
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert [command for command, _ in examples] == [
        "integral --graph triangle.json --order id --a 0,0,3",
        "invariant --k 2,0,0 --dmax 3 --compare",
        "invariant --k=-1,3 --dmax 2",
        "fock double --mu 2,1 --nu 2,1 --n 2",
        "fock check --graph theta.json --amax 2",
        "fit --coeffs 1,-24,-72,-96,-168,-144,-288,-192 --max-weight 2",
    ]
    failing = {"invariant --k=-1,3 --dmax 2": 3}
    for command, output in examples:
        code, out, err = run(capsys, *command.split())
        expected_code = failing.get(command, 0)
        assert code == expected_code, command
        assert (err if expected_code else out).splitlines() == output, command
        assert (out if expected_code else err) == "", command
