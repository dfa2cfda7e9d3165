"""The benchmark's workloads: the queries of one round, built from a seed.

A round is a list of queries, each run in a fresh process.  The seed
permutes the entries of ``k`` and relabels the vertices of every graph file
(genus list included); the answers do not depend on either, so each query
has one expected output for every seed.  Plain outputs are compared byte
for byte; ``--format json`` outputs echo the permuted query, so for them the
``results`` rows are compared.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

TRIANGLE = (3, ((1, 2), (2, 3), (1, 3)), (1, 0, 0))
DBL_DBL = (4, ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4)), None)
K4 = (4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)), None)

INVARIANT_1111 = "d=1 0\nd=2 48\nd=3 3840\n"
# The (2,0,0) invariant series through q^16; d=3 is the paper's 279.
SERIES_200 = (
    "1/4 27 279 1372 8775/2 11988 25382 54000 372357/4 171450 258093 442512 "
    "1207843/2 963144 1267650 1906624"
).split()
# The triangle with genus (1,0,0), summed over vertex orders, through q^20.
SERIES_TRIANGLE = (
    "0 1/4 15 117 556 3075/2 4428 8330 18480 121581/4 56250 80223 146160 "
    "370279/2 302232 395550 597184 1417545/2 1100547 1236425 1835400"
).split()
FIT_200 = (
    "1/4608*E2^4 - 1/3456*E2^2*E4 - 1/3456*E2*E6 + 5/13824*E4^2\n"
    "weights {8} homogeneous\n"
)
FIT_TRIANGLE = (
    "1/6912*E2^3 - 1/2304*E2*E4 + 1/3456*E6 + 1/3456*E2^2*E4 - 1/1728*E2*E6 + 1/3456*E4^2\n"
    "weights {6,8} mixed\n"
)


@dataclass(frozen=True)
class Query:
    name: str
    kind: str  # "cli": trofey's command line; "product": the library query
    args: tuple[str, ...]
    expected: str  # stdout, or for JSON output the canonical ``results`` rows
    json_results: bool = False

    def output_ok(self, stdout: bytes) -> bool:
        if not self.json_results:
            return stdout == self.expected.encode()
        try:
            return canonical_results(json.loads(stdout)["results"]) == self.expected
        except (ValueError, KeyError, TypeError):
            return False


def canonical_results(rows: list) -> str:
    return json.dumps(rows, sort_keys=True)


def _series_rows(values: list[str], first_d: int, labels: dict) -> str:
    return canonical_results(
        [{"labels": {**labels, "d": d}, "value": v} for d, v in enumerate(values, first_d)]
    )


def _graph_file(workdir: str, name: str, graph: tuple, rng: random.Random) -> tuple[str, list[int]]:
    """Write ``graph`` with its vertices relabeled by a random permutation;
    return the path and the permutation (vertex v becomes ``perm[v - 1]``)."""
    n, edges, genus = graph
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    data: dict = {"n": n, "edges": [[perm[u - 1], perm[v - 1]] for u, v in edges]}
    if genus is not None:
        relabeled = [0] * n
        for v, g in enumerate(genus, 1):
            relabeled[perm[v - 1] - 1] = g
        data["genus"] = relabeled
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path, perm


def _k(entries: tuple[int, ...], rng: random.Random) -> str:
    k = list(entries)
    rng.shuffle(k)
    return ",".join(map(str, k))


def invariant_1111(rng: random.Random, workdir: str) -> list[Query]:
    k = _k((1, 1, 1, 1), rng)
    base = ("--threads", "1", "invariant", "--k", k, "--dmax", "3")
    return [
        Query("invariant", "cli", base, INVARIANT_1111),
        Query("invariant-compare", "cli", base + ("--compare",), INVARIANT_1111),
    ]


def qseries_fit(rng: random.Random, workdir: str) -> list[Query]:
    """Each fit reads the JSON that the query before it wrote (see run.py)."""
    triangle, _ = _graph_file(workdir, "triangle", TRIANGLE, rng)
    k = _k((2, 0, 0), rng)
    return [
        Query(
            "series-200", "cli",
            ("--format", "json", "invariant", "--k", k, "--dmax", "16", "--route", "integrals"),
            _series_rows(SERIES_200, 1, {}), json_results=True,
        ),
        Query("fit-200", "cli", ("fit", "--from", stdout_path(workdir, "series-200"),
                                 "--max-weight", "8"), FIT_200),
        Query(
            "series-triangle", "cli",
            ("--format", "json", "integral", "--graph", triangle, "--order", "all",
             "--q-order", "20"),
            _series_rows(SERIES_TRIANGLE, 0, {"order": "all"}), json_results=True,
        ),
        Query("fit-triangle", "cli", ("fit", "--from", stdout_path(workdir, "series-triangle"),
                                      "--max-weight", "8"), FIT_TRIANGLE),
    ]


def operator_check(rng: random.Random, workdir: str) -> list[Query]:
    """``fock check`` sums over all vertex orders, so relabeling moves no work
    there.  The product check runs one order: the identity order relabeled
    with the graph, which keeps its work that of the identity order on the
    unrelabeled graph (other orders cost up to 5x the time and 3x the RSS)."""
    dbl_dbl, perm = _graph_file(workdir, "dbl_dbl", DBL_DBL, rng)
    k4, _ = _graph_file(workdir, "k4", K4, rng)
    return [
        Query("check-dbl_dbl", "cli",
              ("--threads", "2", "fock", "check", "--graph", dbl_dbl, "--amax", "4"), "5040\n"),
        Query("check-k4", "cli",
              ("--threads", "2", "fock", "check", "--graph", k4, "--amax", "4"), "5040\n"),
        Query("elliptic", "cli", ("fock", "elliptic", "--g", "4", "--d", "10"),
              "15765963912000\n"),
        Query("product-dbl_dbl", "product", (dbl_dbl, ",".join(map(str, perm))), "True\n"),
    ]


def stdout_path(workdir: str, name: str) -> str:
    return os.path.join(workdir, f"{name}.out")


WORKLOADS = {
    "invariant-1111": invariant_1111,
    "qseries-fit": qseries_fit,
    "operator-check": operator_check,
}
