"""Command-line surface for the three routes and the Eisenstein fit.

Subcommands: ``integral`` (coefficient or q-series of one graph),
``invariant`` (assembled descendant invariants by either route, with
``--compare`` cross-checking them), ``fock`` (operator-route values and
sweeps), ``fit`` (match a q-series against Q[E2, E4, E6]).

Each subcommand is one function that argparse dispatches to and that
ends in :func:`_emit`, the one renderer of all three ``--format``s, but
for plain ``fit``, which writes its polynomial and weights line itself.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 route
mismatch, 5 fit failure.  :func:`main` is the one error boundary: a
library check that fails on a query (a ``ValueError``) exits 3 with its
message, from any subcommand but ``fit``, whose failed solve exits 5.
A route mismatch is raised by the task that finds it and exits 4 with
its witness line, without the ``error: `` prefix.
:func:`~trofey.graphs.graph_sum` totals the ``--compare`` tables, as it
does the library's assemblies.
All rationals are printed as "num/den" strings; JSON output is
byte-deterministic for a given query.  The global ``--threads N`` must
be at least 1 and is otherwise ignored: every query runs on the calling
thread.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence

from . import __version__
from .covers import cover_table, invariant_series
from .fock import double_hurwitz, elliptic_hurwitz_disconnected, fock_tables
from .graphs import (
    FeynmanGraph,
    graph_from_json_dict,
    graph_sum,
    identity_order,
    orbit_members,
    orientation_classes,
    symmetries,
    validate_assignment,
    weighted_classes,
)
from .integrals import (
    integral_series_q,
    integral_series_all_orders,
    integral_series_refined,
    mirror_total_series,
    multidegrees,
    refined_coeff,
)
from .quasimodular import OVERDETERMINATION_MARGIN, basis
from .quasimodular import fit as quasimodular_fit

PARSE_ERROR = 2
VALIDATION_ERROR = 3
MISMATCH_ERROR = 4
FIT_ERROR = 5


class CliError(Exception):
    def __init__(self, exit_code: int, message: str) -> None:
        super().__init__(message)
        self.exit_code = exit_code


# -- small parsers -------------------------------------------------------


def _format_rational(value: Any) -> str:
    return str(Fraction(value))


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(PARSE_ERROR, f"not a rational number: {text!r}") from exc


def _parse_int_vector(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CliError(PARSE_ERROR, f"{what} must be comma-separated integers") from exc


def _parse_order(text: str, n: int) -> tuple[int, ...] | None:
    """The vertex order ``--order`` names, or None for ``all``."""
    if text == "id":
        return identity_order(n)
    if text == "all":
        return None
    order = _parse_int_vector(text, "order")
    if sorted(order) != list(range(1, n + 1)):
        raise CliError(
            VALIDATION_ERROR, f"order must be a permutation of 1..{n}, got {text!r}"
        )
    return order


def _read_json(path: str, what: str) -> Any:
    """The JSON value in the UTF-8 file at ``path``; ``what`` names the file
    in the parse error an unreadable or invalid file gets."""
    import json  # only JSON input and output need it: keep it out of every other run

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(PARSE_ERROR, f"cannot read {what} file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(PARSE_ERROR, f"{what} file is not valid JSON: {exc}") from exc


def _load_graph(path: str) -> tuple[FeynmanGraph, tuple[int, ...] | None, list[int] | None]:
    data = _read_json(path, "graph")
    try:
        graph, gf, relabeling = graph_from_json_dict(data)
    except ValueError as exc:
        raise CliError(PARSE_ERROR, f"bad graph file: {exc}") from exc
    return graph, gf, relabeling


def _raise_first_mismatch(left: dict, right: dict, witness: str, names: tuple[str, str]) -> None:
    """Raise the route mismatch (exit 4) at the lexicographically least key
    a where two tables differ (a missing key reads 0), if there is one: the
    line ``witness``, then a and each side's value under its name.

    That key is the first mismatch that :func:`multidegrees` would yield,
    since both tables hold only multidegrees it yields.
    """
    differing = [a for a in left.keys() | right.keys() if left.get(a, 0) != right.get(a, 0)]
    if differing:
        a = min(differing)
        raise CliError(
            MISMATCH_ERROR,
            f"{witness} a={a} {names[0]}={_format_rational(left.get(a, 0))} "
            f"{names[1]}={_format_rational(right.get(a, 0))}",
        )


def _run_tasks(tasks: Sequence[Callable[[], Any]], threads: int) -> Iterator[Any]:
    """Run independent tasks in order on the calling thread, lazily.

    Each task runs when its result is taken, so when a task raises its
    mismatch witness, no task after it runs.  ``threads`` (the checked
    ``--threads``) is ignored: the tasks are pure-Python CPU work, which a
    thread pool only slows down under the GIL.  This is the one place
    that every task passes through, so a tracer can wrap it to time each
    task.
    """
    return (task() for task in tasks)


# -- output --------------------------------------------------------------


def _emit(
    fmt: str,
    query: dict[str, Any],
    results: list[dict[str, Any]],
    edge_relabeling: list[int] | None = None,
    **meta: Any,
) -> int:
    """Write one query's rows to stdout in ``fmt``; return exit code 0.  Only
    JSON shows ``query``, the version, ``edge_relabeling`` and ``meta``."""
    if fmt == "json":
        import json  # only this format needs it, as in _read_json

        meta = {"version": __version__, "edge_relabeling": edge_relabeling, **meta}
        report = {"query": query, "results": results, "meta": meta}
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return 0
    if fmt == "csv":
        import csv  # only this format needs it: keep it out of every other run

        keys = sorted({key for row in results for key in row["labels"]})
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(keys + ["value"])
        for row in results:
            writer.writerow([str(row["labels"].get(k, "")) for k in keys] + [row["value"]])
        return 0
    # plain: one value per line, labels prefixed when there are several rows
    for row in results:
        if len(results) == 1:
            sys.stdout.write(f"{row['value']}\n")
        else:
            prefix = " ".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
            sys.stdout.write(f"{prefix} {row['value']}\n".lstrip())
    return 0


# -- integral ------------------------------------------------------------


def cmd_integral(args: argparse.Namespace) -> int:
    graph, file_gf, relabeling = _load_graph(args.graph)
    if relabeling is not None:  # only integral reads per-edge data
        print(
            "warning: loop edges moved to the front; per-edge data (--a) "
            f"follows the new order, original positions {relabeling}",
            file=sys.stderr,
        )
    gf = _parse_int_vector(args.gf, "--gf") if args.gf else file_gf
    order = _parse_order(args.order, graph.n)
    if args.k:
        k = _parse_int_vector(args.k, "--k")
        reasons = validate_assignment(graph, gf if gf else (0,) * graph.n, k)
        if reasons:
            raise CliError(VALIDATION_ERROR, "; ".join(reasons))
    leaks = _parse_int_vector(args.l, "--l") if args.l else None
    if args.a is None and args.q_order is None:
        raise CliError(PARSE_ERROR, "need --a or --q-order")
    if args.a is not None and args.q_order is not None:
        raise CliError(PARSE_ERROR, "use one of --a or --q-order")
    if leaks is not None and args.a is None:
        raise CliError(PARSE_ERROR, "leaks only combine with --a")

    query = {
        "command": "integral",
        "graph": args.graph,
        "gf": list(gf) if gf else None,
        "order": args.order,
        "a": args.a,
        "l": args.l,
        "q_order": args.q_order,
    }
    if args.a is not None:
        a = _parse_int_vector(args.a, "--a")
        # ``all``: one order per orientation class, weighted by its size,
        # since the integrals see an order only through the edge directions
        orders = [(order, 1)] if order is not None else orientation_classes(graph)
        total = sum(count * refined_coeff(graph, o, a, l=leaks, gf=gf) for o, count in orders)
        results = [{"labels": {"order": args.order, "a": args.a}, "value": _format_rational(total)}]
    else:
        if order is None:
            series = integral_series_all_orders(graph, gf, args.q_order)
        else:
            series = integral_series_q(graph, gf, order, args.q_order)
        results = [
            {"labels": {"order": args.order, "d": d}, "value": _format_rational(series.get(d, 0))}
            for d in range(args.q_order + 1)
        ]
    return _emit(args.format, query, results, relabeling)


# -- invariant -----------------------------------------------------------


def _compare_tasks(
    k: tuple[int, ...], dmax: int
) -> list[Callable[[], tuple[dict, Fraction]]]:
    """One task per (isomorphism class, orbit of vertex orders) of
    :func:`~trofey.graphs.weighted_classes`, returning its cover table and
    weight for :func:`~trofey.graphs.graph_sum`.

    A task reads each side at every multidegree from one pass (the
    integral DP and the cover pass) at the orbit's first order, compares
    the two full tables over the union of their keys and raises the first
    mismatch (:func:`_raise_first_mismatch`).  The orbit's other orders
    have the same table up to permuting the edges
    (:func:`~trofey.graphs.weighted_classes` says why).
    """
    tasks = []
    for graph, gf, order, weight in weighted_classes(k):

        def task(graph=graph, gf=gf, order=order, weight=weight):
            integral = integral_series_refined(graph, order, dmax, gf=gf)
            covers = cover_table(graph, order, dmax, k)
            witness = f"route mismatch: edges={graph.edges} gf={gf} order={order}"
            _raise_first_mismatch(covers, integral, witness, ("covers", "integral"))
            return covers, weight

        tasks.append(task)
    return tasks


def cmd_invariant(args: argparse.Namespace) -> int:
    if args.compare and args.route is not None:
        raise CliError(PARSE_ERROR, "use one of --route or --compare")
    k = _parse_int_vector(args.k, "--k")
    if args.dmax < 1:
        raise CliError(VALIDATION_ERROR, "--dmax must be >= 1")
    route = "compare" if args.compare else args.route or "covers"
    query = {"command": "invariant", "k": list(k), "dmax": args.dmax, "route": route}
    if args.compare:
        series = graph_sum(_run_tasks(_compare_tasks(k, args.dmax), args.threads))
    elif route == "integrals":
        series = mirror_total_series(k, args.dmax)
    else:
        series = invariant_series(k, args.dmax)
    results = [
        {"labels": {"d": d}, "value": _format_rational(series.get(d, 0))}
        for d in range(1, args.dmax + 1)
    ]
    return _emit(args.format, query, results)


# -- fock ----------------------------------------------------------------


def cmd_double(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise CliError(VALIDATION_ERROR, f"--n must be >= 0, got {args.n}")
    mu = _parse_int_vector(args.mu, "--mu")
    nu = _parse_int_vector(args.nu, "--nu")
    value = double_hurwitz(mu, nu, args.n)
    query = {"command": "fock double", "mu": list(mu), "nu": list(nu), "n": args.n}
    labels = {"mu": args.mu, "nu": args.nu, "n": args.n}
    return _emit(args.format, query, [{"labels": labels, "value": _format_rational(value)}])


def cmd_elliptic(args: argparse.Namespace) -> int:
    if args.g < 1:
        raise CliError(VALIDATION_ERROR, f"--g must be >= 1, got {args.g}")
    if args.d < 1:
        raise CliError(VALIDATION_ERROR, f"--d must be >= 1, got {args.d}")
    value = elliptic_hurwitz_disconnected(args.g, args.d)
    query = {"command": "fock elliptic", "g": args.g, "d": args.d}
    labels = {"g": args.g, "d": args.d}
    return _emit(args.format, query, [{"labels": labels, "value": _format_rational(value)}])


def cmd_check(args: argparse.Namespace) -> int:
    """Compare every vertex order's operator table with its cover table, in
    the order :func:`~trofey.fock.fock_tables` lists them, and stop at the
    first mismatch.

    One operator walk gives every order's table.  The cover side runs one
    pass per orbit of :func:`~trofey.graphs.orbit_members` under the graph's
    symmetries and order reversal, at the orbit's first order, and carries
    that table to each member along the member's edge slots: it is the
    member's own ``cover_table`` (:func:`~trofey.graphs.weighted_classes`
    says why).
    ``tests/test_acceptance.py::test_fock_check_carries_the_orbit_cover_tables``
    pins this on every order of theta, K4, dbl_dbl and the prism.  A run
    in which every table is empty compared nothing, and exits 3.
    """
    if args.amax < 0:
        raise CliError(VALIDATION_ERROR, f"--amax must be >= 0, got {args.amax}")
    graph = _load_graph(args.graph)[0]
    amax = args.amax
    # one operator walk serves every order; it checks the graph first,
    # so a bad graph gets no vacuous "0"
    tables = fock_tables(graph, amax)
    carried_from = {
        order: (orbit[0][0], images)
        for orbit in orbit_members(graph, symmetries(graph, (0,) * graph.n))
        for order, images in orbit
    }
    covers: dict[tuple[int, ...], dict] = {}  # per orbit, at its first order

    def task(order):
        """One order's operator table against its carried cover table; a
        mismatch raises its witness."""
        rep, images = carried_from[order]
        if rep not in covers:  # the first order of its orbit: no earlier task ran it
            covers[rep] = cover_table(graph, rep, amax)
        carried = {}
        for a, value in covers[rep].items():
            b = [0] * len(a)
            for k, j in enumerate(images):
                b[j] = a[k]
            carried[tuple(b)] = value
        witness = f"operator/cover mismatch: order={order}"
        _raise_first_mismatch(tables[order], carried, witness, ("fock", "covers"))

    for _ in _run_tasks([lambda order=order: task(order) for order in tables], args.threads):
        pass
    if not any(tables.values()):
        no_cover = f"no vertex order has a cover with sum(a) <= {amax}, so nothing was compared"
        raise CliError(VALIDATION_ERROR, f"--amax {amax}: {no_cover}")
    total_checked = sum(1 for _ in multidegrees(graph, amax)) * len(tables)
    query = {"command": "fock check", "graph": args.graph, "amax": amax}
    results = [
        {"labels": {"instances": total_checked}, "value": _format_rational(total_checked)}
    ]
    return _emit(args.format, query, results)


# -- fit -----------------------------------------------------------------


def _series_from_json(path: str) -> dict[int, Fraction]:
    data = _read_json(path, "series")
    try:
        series: dict[int, Fraction] = {}
        for row in data["results"]:
            d, value = row["labels"]["d"], row["value"]
            if type(d) is not int or not isinstance(value, str):  # bool is no label
                raise TypeError(d, value)
            if d < 0:
                raise CliError(
                    PARSE_ERROR,
                    f"series file has a row for q^{d}: q-exponents must be nonnegative",
                )
            if d in series:  # neither row can be trusted over the other
                raise CliError(PARSE_ERROR, f"series file has two rows for q^{d}")
            series[d] = _parse_rational(value)
        if not series:
            raise KeyError("d")
    except (KeyError, TypeError) as exc:
        raise CliError(
            PARSE_ERROR,
            "series file must be a prior integral/invariant JSON output with d-labeled rows",
        ) from exc
    return series


def cmd_fit(args: argparse.Namespace) -> int:
    if (args.coeffs is None) == (args.series is None):
        raise CliError(PARSE_ERROR, "need exactly one of --coeffs or --from")
    if args.coeffs is not None:
        values = [_parse_rational(part) for part in args.coeffs.split(",")]
        series = {d: c for d, c in enumerate(values)}
        known_order = None  # a finite polynomial: exact at every order
    else:
        series = _series_from_json(args.series)
        known_order = max(series)
        gap = next((d for d in range(min(series), known_order) if d not in series), None)
        if gap is not None:
            raise CliError(
                VALIDATION_ERROR,
                f"series file has no row for q^{gap} (its rows run from q^{min(series)} "
                f"to q^{known_order})",
            )
        if args.q_order is not None and args.q_order > known_order:
            raise CliError(
                VALIDATION_ERROR,
                f"--q-order {args.q_order} is past the series file's last coefficient, "
                f"q^{known_order}",
            )

    if args.q_order is not None and args.q_order < 0:
        raise CliError(VALIDATION_ERROR, f"--q-order must be >= 0, got {args.q_order}")

    q_order = args.q_order if args.q_order is not None else known_order
    try:
        if q_order is None:  # --coeffs alone: the least q-order the fit accepts
            q_order = len(basis(args.max_weight, 0)) + OVERDETERMINATION_MARGIN
        result = quasimodular_fit(series, args.max_weight, q_order)
    except ValueError as exc:
        raise CliError(FIT_ERROR, str(exc)) from exc
    if args.format == "plain":
        flag = "homogeneous" if result.is_homogeneous else "mixed"
        profile = ",".join(str(w) for w in sorted(result.weight_profile))
        sys.stdout.write(f"{result.format_polynomial()}\n")
        sys.stdout.write(f"weights {{{profile}}} {flag}\n")
        return 0
    query = {
        "command": "fit",
        "max_weight": args.max_weight,
        "q_order": q_order,
        "source": args.series or "inline",
    }
    rows = [
        {"labels": {"monomial": name}, "value": _format_rational(value)}
        for name, value in result.terms()
    ]
    return _emit(
        args.format,
        query,
        rows,
        weight_profile=sorted(result.weight_profile),
        homogeneous=result.is_homogeneous,
        polynomial=result.format_polynomial(),
    )


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trofey",
        description="Exact tropical descendant invariants of the elliptic curve",
    )
    parser.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    parser.add_argument("--threads", type=int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("integral", help="coefficients of one graph's edge-factor product")
    p_int.add_argument("--graph", required=True, help="graph JSON file")
    p_int.add_argument("--k", help="descendant vector (validates against --gf)")
    p_int.add_argument("--gf", help="genus per vertex; omit for the undressed integral")
    p_int.add_argument("--order", default="id", help='"id", "all", or a permutation like 2,1,3')
    p_int.add_argument("--a", help="one multidegree, e.g. 0,0,3")
    p_int.add_argument("--l", help="leak vector (with --a only)")
    p_int.add_argument("--q-order", dest="q_order", type=int, help="emit the q-series instead")
    p_int.set_defaults(func=cmd_integral)

    p_inv = sub.add_parser("invariant", help="assembled descendant invariants")
    p_inv.add_argument("--k", required=True)
    p_inv.add_argument("--dmax", type=int, required=True)
    p_inv.add_argument("--route", choices=("covers", "integrals"))
    p_inv.add_argument(
        "--compare", action="store_true", help="run both routes, exit 4 on any mismatch"
    )
    p_inv.set_defaults(func=cmd_invariant)

    p_fock = sub.add_parser("fock", help="operator-route values and checks")
    fock_sub = p_fock.add_subparsers(dest="fock_command", required=True)
    p_double = fock_sub.add_parser("double", help="double Hurwitz number")
    p_double.add_argument("--mu", required=True)
    p_double.add_argument("--nu", required=True)
    p_double.add_argument("--n", type=int, required=True)
    p_double.set_defaults(func=cmd_double)
    p_elliptic = fock_sub.add_parser("elliptic", help="disconnected elliptic Hurwitz number")
    p_elliptic.add_argument("--g", type=int, required=True)
    p_elliptic.add_argument("--d", type=int, required=True)
    p_elliptic.set_defaults(func=cmd_elliptic)
    p_check = fock_sub.add_parser("check", help="operator route vs cover route sweep")
    p_check.add_argument("--graph", required=True)
    p_check.add_argument("--amax", type=int, required=True)
    p_check.set_defaults(func=cmd_check)

    p_fit = sub.add_parser("fit", help="match a q-series against Q[E2,E4,E6]")
    p_fit.add_argument("--from", dest="series", help="prior JSON output with d-labeled rows")
    p_fit.add_argument("--coeffs", help="inline polynomial coefficients from q^0, e.g. 1,0,240")
    p_fit.add_argument("--max-weight", dest="max_weight", type=int, required=True)
    p_fit.add_argument("--q-order", dest="q_order", type=int)
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise CliError(VALIDATION_ERROR, f"--threads must be >= 1, got {args.threads}")
        try:
            return args.func(args)
        except ValueError as exc:  # a library check failed on the query
            raise CliError(VALIDATION_ERROR, str(exc)) from exc
    except CliError as exc:
        # a mismatch's message is its whole witness line
        prefix = "" if exc.exit_code == MISMATCH_ERROR else "error: "
        print(f"{prefix}{exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
