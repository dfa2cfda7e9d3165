"""Command-line surface for the three routes and the Eisenstein fit.

Subcommands: ``integral`` (coefficient or q-series of one graph),
``invariant`` (assembled descendant invariants by either route, with
``--compare`` cross-checking them), ``fock`` (operator-route values and
sweeps), ``fit`` (match a q-series against Q[E2, E4, E6]).

Exit codes: 0 success, 2 parse error, 3 validation error, 4 route
mismatch, 5 fit failure.  All rationals are printed as "num/den"
strings; JSON output is byte-deterministic for a given query.  The
global ``--threads N`` must be at least 1 and is otherwise ignored: every
query runs on the calling thread.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction
from typing import Any, Callable, Iterator, Sequence

from . import __version__
from .covers import cover_table, invariant_series
from .fock import double_hurwitz, elliptic_hurwitz_disconnected, fock_tables
from .graphs import (
    FeynmanGraph,
    all_orders,
    graph_from_json_dict,
    identity_order,
    orientation_classes,
    validate_assignment,
    weighted_classes,
)
from .integrals import (
    integral_series_q,
    integral_series_all_orders,
    integral_series_refined,
    multidegrees,
    refined_coeff,
)
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
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


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


def _parse_orders(text: str, graph: FeynmanGraph) -> list[tuple[tuple[int, ...], int]]:
    """The orders ``--order`` names, as (order, multiplicity) pairs: ``all``
    is one representative per orientation class, weighted by its size,
    since the integrals see an order only through the edge directions."""
    n = graph.n
    if text == "id":
        return [(identity_order(n), 1)]
    if text == "all":
        return orientation_classes(graph)
    order = _parse_int_vector(text, "order")
    if sorted(order) != list(range(1, n + 1)):
        raise CliError(
            VALIDATION_ERROR, f"order must be a permutation of 1..{n}, got {text!r}"
        )
    return [(order, 1)]


def _load_graph(path: str) -> tuple[FeynmanGraph, tuple[int, ...] | None, list[int] | None]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(PARSE_ERROR, f"cannot read graph file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(PARSE_ERROR, f"graph file is not valid JSON: {exc}") from exc
    try:
        graph, gf, relabeling = graph_from_json_dict(data)
    except ValueError as exc:
        raise CliError(PARSE_ERROR, f"bad graph file: {exc}") from exc
    if relabeling is not None:
        print(
            "warning: loop edges moved to the front; per-edge data (--a) "
            f"follows the new order, original positions {relabeling}",
            file=sys.stderr,
        )
    return graph, gf, relabeling


def _first_mismatch(left: dict, right: dict) -> tuple | None:
    """(a, left value, right value) at the lexicographically least key
    where two tables differ (a missing key reads 0), or None.

    That key is the first mismatch that :func:`multidegrees` would yield,
    since both tables hold only multidegrees it yields.
    """
    differing = [a for a in left.keys() | right.keys() if left.get(a, 0) != right.get(a, 0)]
    if not differing:
        return None
    a = min(differing)
    return a, left.get(a, 0), right.get(a, 0)


def _run_tasks(tasks: Sequence[Callable[[], Any]], threads: int) -> Iterator[Any]:
    """Run independent tasks in order on the calling thread, lazily.

    Each task runs when its result is taken, so a caller that stops at
    the first mismatch runs no task after it.  ``threads`` (the checked
    ``--threads``) is ignored: the tasks are pure-Python CPU work, which a
    thread pool only slows down under the GIL.  This is the one place
    that every task passes through, so a tracer can wrap it to time each
    task.
    """
    return (task() for task in tasks)


# -- output --------------------------------------------------------------


def _report(
    query: dict[str, Any],
    results: list[dict[str, Any]],
    *,
    edge_relabeling: list[int] | None = None,
    extra_meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    meta: dict[str, Any] = {
        "version": __version__,
        "edge_relabeling": edge_relabeling,
    }
    if extra_meta:
        meta.update(extra_meta)
    return {"query": query, "results": results, "meta": meta}


def _emit(report: dict[str, Any], fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return
    results = report["results"]
    if fmt == "csv":
        import csv  # only this format needs it: keep it out of every other run

        keys = sorted({key for row in results for key in row["labels"]})
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(keys + ["value"])
        for row in results:
            writer.writerow([str(row["labels"].get(k, "")) for k in keys] + [row["value"]])
        sys.stdout.write(buffer.getvalue())
        return
    # plain: one value per line, labels prefixed when there are several rows
    for row in results:
        labels = row["labels"]
        if len(results) == 1:
            sys.stdout.write(f"{row['value']}\n")
        else:
            prefix = " ".join(f"{k}={labels[k]}" for k in sorted(labels))
            sys.stdout.write(f"{prefix} {row['value']}\n".lstrip())


# -- integral ------------------------------------------------------------


def cmd_integral(args: argparse.Namespace) -> int:
    graph, file_gf, relabeling = _load_graph(args.graph)
    gf = _parse_int_vector(args.gf, "--gf") if args.gf else file_gf
    orders = _parse_orders(args.order, graph)
    if args.k:
        k = _parse_int_vector(args.k, "--k")
        reasons = validate_assignment(graph, gf if gf else (0,) * graph.n, k)
        if reasons:
            raise CliError(VALIDATION_ERROR, "; ".join(reasons))
    leaks = _parse_int_vector(args.l, "--l") if args.l else None
    if args.a is None and args.q_order is None:
        raise CliError(PARSE_ERROR, "need --a or --q-order")

    query = {
        "command": "integral",
        "graph": args.graph,
        "gf": list(gf) if gf else None,
        "order": args.order,
        "a": args.a,
        "l": args.l,
        "q_order": args.q_order,
    }
    results: list[dict[str, Any]] = []
    try:
        if args.a is not None:
            a = _parse_int_vector(args.a, "--a")
            total: Any = 0
            for order, count in orders:
                total += count * refined_coeff(graph, order, a, l=leaks, gf=gf)
            results.append(
                {"labels": {"order": args.order, "a": args.a}, "value": _format_rational(total)}
            )
        else:
            if leaks is not None:
                raise CliError(VALIDATION_ERROR, "leaks only combine with --a")
            if args.order == "all":
                series = integral_series_all_orders(graph, gf, args.q_order)
            else:
                [(order, _)] = orders
                series = integral_series_q(graph, gf, order, args.q_order)
            for d in range(args.q_order + 1):
                results.append(
                    {
                        "labels": {"order": args.order, "d": d},
                        "value": _format_rational(series.get(d, 0)),
                    }
                )
    except ValueError as exc:
        raise CliError(VALIDATION_ERROR, str(exc)) from exc
    _emit(_report(query, results, edge_relabeling=relabeling), args.format)
    return 0


# -- invariant -----------------------------------------------------------


def _compare_tasks(
    k: tuple[int, ...], dmax: int
) -> list[Callable[[], tuple[dict[int, Fraction], tuple | None]]]:
    """One task per (isomorphism class, orientation class) of
    :func:`~trofey.graphs.weighted_classes`, carrying its weight.

    A task reads each side at every multidegree from one pass (the
    integral DP and the cover pass) and compares the two tables over the
    union of their keys.
    """
    tasks = []
    for graph, gf, order, weight in weighted_classes(k):

        def task(graph=graph, gf=gf, order=order, weight=weight):
            integral = integral_series_refined(graph, order, dmax, gf=gf)
            covers = cover_table(graph, order, dmax, k)
            mismatch = _first_mismatch(covers, integral)
            if mismatch is not None:
                return {}, (graph.edges, gf, order) + mismatch
            part: dict[int, Fraction] = {}
            for a, value in covers.items():
                d = sum(a)
                part[d] = part.get(d, Fraction(0)) + value * weight
            return part, None

        tasks.append(task)
    return tasks


def cmd_invariant(args: argparse.Namespace) -> int:
    k = _parse_int_vector(args.k, "--k")
    if args.dmax < 1:
        raise CliError(VALIDATION_ERROR, "--dmax must be >= 1")
    query = {
        "command": "invariant",
        "k": list(k),
        "dmax": args.dmax,
        "route": "compare" if args.compare else args.route,
    }
    try:
        if args.compare:
            tasks = _compare_tasks(k, args.dmax)
            totals: dict[int, Fraction] = {}
            for part, witness in _run_tasks(tasks, args.threads):
                for d, c in part.items():
                    totals[d] = totals.get(d, Fraction(0)) + c
                if witness is not None:
                    edges, gf, order, a, cv, iv = witness
                    print(
                        "route mismatch: edges=%s gf=%s order=%s a=%s covers=%s integral=%s"
                        % (edges, gf, order, a, _format_rational(cv), _format_rational(iv)),
                        file=sys.stderr,
                    )
                    return MISMATCH_ERROR
            series = {d: totals.get(d, Fraction(0)) for d in range(1, args.dmax + 1)}
        elif args.route == "integrals":
            from .integrals import mirror_total_series

            series = mirror_total_series(k, args.dmax)
        else:
            series = invariant_series(k, args.dmax)
    except ValueError as exc:
        raise CliError(VALIDATION_ERROR, str(exc)) from exc
    results = [
        {"labels": {"d": d}, "value": _format_rational(series.get(d, 0))}
        for d in range(1, args.dmax + 1)
    ]
    _emit(_report(query, results), args.format)
    return 0


# -- fock ----------------------------------------------------------------


def cmd_fock(args: argparse.Namespace) -> int:
    try:
        if args.fock_command == "double":
            if args.n < 0:
                raise CliError(VALIDATION_ERROR, f"--n must be >= 0, got {args.n}")
            mu = _parse_int_vector(args.mu, "--mu")
            nu = _parse_int_vector(args.nu, "--nu")
            value = double_hurwitz(mu, nu, args.n)
            query = {"command": "fock double", "mu": list(mu), "nu": list(nu), "n": args.n}
            results = [
                {
                    "labels": {"mu": args.mu, "nu": args.nu, "n": args.n},
                    "value": _format_rational(value),
                }
            ]
            _emit(_report(query, results), args.format)
            return 0
        if args.fock_command == "elliptic":
            if args.g < 1:
                raise CliError(VALIDATION_ERROR, f"--g must be >= 1, got {args.g}")
            if args.d < 1:
                raise CliError(VALIDATION_ERROR, f"--d must be >= 1, got {args.d}")
            value = elliptic_hurwitz_disconnected(args.g, 2 * args.g - 2, args.d)
            query = {"command": "fock elliptic", "g": args.g, "d": args.d}
            results = [
                {"labels": {"g": args.g, "d": args.d}, "value": _format_rational(value)}
            ]
            _emit(_report(query, results), args.format)
            return 0
        # fock check
        if args.amax < 0:
            raise CliError(VALIDATION_ERROR, f"--amax must be >= 0, got {args.amax}")
        graph, _, relabeling = _load_graph(args.graph)
        amax = args.amax
        # one operator walk serves every order; it checks the graph first,
        # so a bad graph gets no vacuous "0"
        tables = fock_tables(graph, amax)
        orders = list(all_orders(graph.n))

        def task(order):
            """One order's operator table against its cover pass."""
            return order, _first_mismatch(tables[order], cover_table(graph, order, amax))

        tasks = [lambda order=order: task(order) for order in orders]
        for order, mismatch in _run_tasks(tasks, args.threads):
            if mismatch is not None:
                a, lhs, rhs = mismatch
                print(
                    "operator/cover mismatch: order=%s a=%s fock=%s covers=%s"
                    % (order, a, _format_rational(lhs), _format_rational(rhs)),
                    file=sys.stderr,
                )
                return MISMATCH_ERROR
        per_order = sum(1 for _ in multidegrees(graph, amax))
        total_checked = per_order * len(orders)
        query = {"command": "fock check", "graph": args.graph, "amax": amax}
        results = [
            {"labels": {"instances": total_checked}, "value": _format_rational(total_checked)}
        ]
        _emit(_report(query, results, edge_relabeling=relabeling), args.format)
        return 0
    except ValueError as exc:
        raise CliError(VALIDATION_ERROR, str(exc)) from exc


# -- fit -----------------------------------------------------------------


def _series_from_json(path: str) -> dict[int, Fraction]:
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CliError(PARSE_ERROR, f"cannot read series file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(PARSE_ERROR, f"series file is not valid JSON: {exc}") from exc
    try:
        series: dict[int, Fraction] = {}
        for row in data["results"]:
            d, value = row["labels"]["d"], row["value"]
            if type(d) is not int or not isinstance(value, str):  # bool is no label
                raise TypeError(d, value)
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

    from .quasimodular import OVERDETERMINATION_MARGIN, basis

    q_order = args.q_order
    try:
        n_basis = len(basis(args.max_weight, 0))
        if q_order is None:
            q_order = known_order if known_order is not None else n_basis + OVERDETERMINATION_MARGIN
        result = quasimodular_fit(series, args.max_weight, q_order)
    except ValueError as exc:
        raise CliError(FIT_ERROR, str(exc)) from exc
    if not result.residual_ok:
        raise CliError(
            FIT_ERROR,
            f"no polynomial of weight <= {args.max_weight} matches the series "
            f"through q^{q_order}",
        )
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
    extra = {
        "weight_profile": sorted(result.weight_profile),
        "homogeneous": result.is_homogeneous,
        "polynomial": result.format_polynomial(),
    }
    report = _report(query, rows, extra_meta=extra)
    if args.format == "plain":
        flag = "homogeneous" if result.is_homogeneous else "mixed"
        profile = ",".join(str(w) for w in sorted(result.weight_profile))
        sys.stdout.write(f"{result.format_polynomial()}\n")
        sys.stdout.write(f"weights {{{profile}}} {flag}\n")
        return 0
    _emit(report, args.format)
    return 0


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
    p_inv.add_argument("--route", choices=("covers", "integrals"), default="covers")
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
    p_elliptic = fock_sub.add_parser("elliptic", help="disconnected elliptic Hurwitz number")
    p_elliptic.add_argument("--g", type=int, required=True)
    p_elliptic.add_argument("--d", type=int, required=True)
    p_check = fock_sub.add_parser("check", help="operator route vs cover route sweep")
    p_check.add_argument("--graph", required=True)
    p_check.add_argument("--amax", type=int, required=True)
    for p in (p_double, p_elliptic, p_check):
        p.set_defaults(func=cmd_fock)

    p_fit = sub.add_parser("fit", help="match a q-series against Q[E2,E4,E6]")
    p_fit.add_argument("--from", dest="series", help="prior JSON output with d-labeled rows")
    p_fit.add_argument("--coeffs", help="inline polynomial coefficients from q^0, e.g. 1,0,240")
    p_fit.add_argument("--max-weight", dest="max_weight", type=int, required=True)
    p_fit.add_argument("--q-order", dest="q_order", type=int)
    p_fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.threads < 1:
            raise CliError(VALIDATION_ERROR, f"--threads must be >= 1, got {args.threads}")
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
