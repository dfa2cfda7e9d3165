"""Test-only oracle: exact multivariate series and series-built propagators.

The production code computes every coefficient with the univariate kernel
of :mod:`trofey.series` and the slice DPs of :mod:`trofey.integrals`.
This module keeps the original general definitions they replaced -- a
sparse truncated series in x/q/z variables, the four edge-factor builders
and a coefficient extraction from their full product -- so tests can pin
the fast paths against them.  It imports nothing from ``trofey.series``:
the reference shares no series arithmetic with production.  It also keeps
the ``Fraction`` Gauss--Jordan solve (:func:`fit_reference`) that the
integer elimination of :func:`trofey.quasimodular.fit` replaced; that
solve shares only the basis with production.

Series in three families of variables:

* ``x1, x2, ...``  -- Laurent variables (negative exponents allowed, one
  per graph vertex), truncated symmetrically at ``|exponent| <= x_bound``;
* ``q1, q2, ...``  -- formal edge variables, exponents >= 0, truncated at a
  per-variable bound;
* ``z1, z2, ...``  -- vertex variables for genus corrections, exponents
  >= 0, truncated at a per-variable bound.

Truncation is enforced eagerly: every arithmetic operation drops monomials
outside the :class:`TruncationSpec`.  Values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Mapping, Sequence, Union

from trofey.graphs import FeynmanGraph, VertexOrder, check_query
from trofey.propagators import divisors, sigma
from trofey.quasimodular import (
    OVERDETERMINATION_MARGIN,
    EisensteinMonomial,
    QuasimodularFit,
    basis,
)

Coeff = Union[int, Fraction]
Variable = tuple[str, int]  # (kind, index) with kind in {"x", "q", "z"}
Monomial = tuple[tuple[Variable, int], ...]  # sorted ((kind, index), exponent)

_KINDS = ("x", "q", "z")


def _norm_coeff(c: Coeff) -> Coeff:
    """Collapse Fractions with denominator one back to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def variable(kind: str, index: int) -> Variable:
    if kind not in _KINDS:
        raise ValueError(f"unknown variable kind {kind!r}")
    if index < 1:
        raise ValueError("variable indices are 1-based")
    return (kind, index)


def monomial(exponents: Mapping[Variable, int]) -> Monomial:
    """Canonical (sorted, zero-free) monomial from a {variable: exponent} map."""
    return tuple(sorted((v, e) for v, e in exponents.items() if e != 0))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two canonical monomials (exponent-wise sum)."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for v, e in b:
        s = out.get(v, 0) + e
        if s == 0:
            out.pop(v, None)
        else:
            out[v] = s
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class TruncationSpec:
    """Per-variable truncation bounds.

    ``q_bounds`` / ``z_bounds`` declare the admissible variables of those
    kinds together with their maximal exponents; a monomial mentioning an
    undeclared q/z variable is a hard error (it means the caller built the
    wrong series, not a truncation event).  All x variables share the
    symmetric window ``|exponent| <= x_bound``.
    """

    x_bound: int = 0
    q_bounds: tuple[tuple[int, int], ...] = ()
    z_bounds: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def make(
        x_bound: int = 0,
        q_bounds: Mapping[int, int] | None = None,
        z_bounds: Mapping[int, int] | None = None,
    ) -> "TruncationSpec":
        if x_bound < 0:
            raise ValueError("x_bound must be >= 0")
        for name, bounds in (("q", q_bounds), ("z", z_bounds)):
            for idx, bnd in (bounds or {}).items():
                if idx < 1 or bnd < 0:
                    raise ValueError(f"bad {name} bound ({idx}: {bnd})")
        return TruncationSpec(
            x_bound=x_bound,
            q_bounds=tuple(sorted((q_bounds or {}).items())),
            z_bounds=tuple(sorted((z_bounds or {}).items())),
        )

    def bound(self, var: Variable) -> int:
        kind, index = var
        if kind == "x":
            return self.x_bound
        table = self.q_bounds if kind == "q" else self.z_bounds
        for idx, bnd in table:
            if idx == index:
                return bnd
        raise KeyError(f"variable {kind}{index} is not declared in this spec")

    def admits(self, mono: Monomial) -> bool:
        """True when the monomial lies inside every bound.

        Negative exponents on q/z variables raise: those families are
        genuine power series and a negative exponent is a logic error.
        """
        for (kind, index), exp in mono:
            if kind == "x":
                if abs(exp) > self.x_bound:
                    return False
            else:
                if exp < 0:
                    raise ValueError(f"negative exponent on {kind}{index}")
                if exp > self.bound((kind, index)):
                    return False
        return True


class TruncatedSeries:
    """Immutable sparse series under a fixed :class:`TruncationSpec`."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: TruncationSpec, terms: Mapping[Monomial, Coeff]):
        clean: dict[Monomial, Coeff] = {}
        for mono, coeff in terms.items():
            coeff = _norm_coeff(coeff)
            if coeff == 0:
                continue
            if not spec.admits(mono):
                continue
            clean[mono] = coeff
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(spec: TruncationSpec) -> "TruncatedSeries":
        return TruncatedSeries(spec, {})

    @staticmethod
    def one(spec: TruncationSpec) -> "TruncatedSeries":
        return TruncatedSeries(spec, {(): 1})

    @staticmethod
    def from_terms(
        spec: TruncationSpec, entries: Iterable[tuple[Mapping[Variable, int], Coeff]]
    ) -> "TruncatedSeries":
        acc: dict[Monomial, Coeff] = {}
        for exponents, coeff in entries:
            mono = monomial(exponents)
            acc[mono] = acc.get(mono, 0) + coeff
        return TruncatedSeries(spec, acc)

    # -- ring operations ----------------------------------------------

    def _check_spec(self, other: "TruncatedSeries") -> None:
        if self.spec != other.spec:
            raise ValueError("series live under different truncation specs")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_spec(other)
        if len(self.terms) < len(other.terms):
            small, big = self.terms, other.terms
        else:
            small, big = other.terms, self.terms
        out = dict(big)
        for mono, coeff in small.items():
            s = out.get(mono, 0) + coeff
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
        return TruncatedSeries(self.spec, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.spec, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return TruncatedSeries.zero(self.spec)
            return TruncatedSeries(
                self.spec, {m: c * other for m, c in self.terms.items()}
            )
        self._check_spec(other)
        admits = self.spec.admits
        out: dict[Monomial, Coeff] = {}
        # iterate the smaller operand outside for fewer dict rebuilds
        if len(self.terms) <= len(other.terms):
            first, second = self.terms, other.terms
        else:
            first, second = other.terms, self.terms
        for m1, c1 in first.items():
            for m2, c2 in second.items():
                mono = mono_mul(m1, m2)
                if not admits(mono):
                    continue
                s = out.get(mono, 0) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return TruncatedSeries(self.spec, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "TruncatedSeries(0)"
        bits = []
        for mono, coeff in sorted(self.terms.items())[:8]:
            vars_part = "*".join(f"{k}{i}^{e}" for (k, i), e in mono) or "1"
            bits.append(f"{coeff}*{vars_part}")
        more = " + ..." if len(self.terms) > 8 else ""
        return "TruncatedSeries(" + " + ".join(bits) + more + ")"

    # -- extraction ---------------------------------------------------

    def coefficient(self, exponents: Mapping[Variable, int]) -> Coeff:
        """Exact coefficient of one monomial."""
        return self.terms.get(monomial(exponents), 0)

    def constant_term(self) -> Coeff:
        return self.terms.get((), 0)

    def extract(self, var: Variable, exponent: int) -> "TruncatedSeries":
        """Series-valued coefficient of ``var**exponent``.

        The result no longer involves ``var``; the truncation settings
        are kept unchanged (the variable is simply absent from all
        surviving monomials).
        """
        out: dict[Monomial, Coeff] = {}
        for mono, coeff in self.terms.items():
            rest = []
            found = 0
            for v, e in mono:
                if v == var:
                    found = e
                else:
                    rest.append((v, e))
            if found == exponent:
                out[tuple(rest)] = coeff
        return TruncatedSeries(self.spec, out)

    def filtered(self, keep) -> "TruncatedSeries":
        """New series keeping only monomials where ``keep(mono)`` is true.

        This is how coefficient-extraction engines discard terms that
        provably cannot contribute to a requested coefficient; it is not a
        ring operation.
        """
        return TruncatedSeries(
            self.spec, {m: c for m, c in self.terms.items() if keep(m)}
        )

    def variables(self) -> set[Variable]:
        out: set[Variable] = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out


def scale_variable(series: TruncatedSeries, var: Variable, factor: Coeff) -> TruncatedSeries:
    """Substitute ``var -> factor * var`` (coefficient picks up factor**exp)."""
    out: dict[Monomial, Coeff] = {}
    for mono, coeff in series.terms.items():
        exp = 0
        for v, e in mono:
            if v == var:
                exp = e
                break
        if exp < 0:
            # int ** negative would produce a float; stay in Fraction land
            coeff = coeff * Fraction(factor) ** exp
        else:
            coeff = coeff * factor**exp
        out[mono] = out.get(mono, 0) + coeff
    return TruncatedSeries(series.spec, out)


def invert(series: TruncatedSeries) -> TruncatedSeries:
    """Multiplicative inverse of a series with invertible constant term.

    Only q/z variables may appear: those have nonnegative exponents, so the
    non-constant part is nilpotent under truncation and the geometric sum
    terminates.  (x variables would allow infinitely many monomials of
    mixed sign at a fixed window, where no well-defined truncated inverse
    exists.)
    """
    c0 = series.constant_term()
    if c0 == 0:
        raise ValueError("cannot invert a series with zero constant term")
    for kind, _ in series.variables():
        if kind == "x":
            raise ValueError("inversion is only supported for q/z series")
    spec = series.spec
    tail = series - TruncatedSeries(spec, {(): c0})  # strictly positive degree
    inv_c0 = _norm_coeff(Fraction(1, 1) / c0)
    # 1/(c0 (1 + t/c0)) = (1/c0) * sum (-t/c0)^k ; terminates because every
    # multiplication by the tail raises total q+z degree by at least one.
    result = TruncatedSeries.one(spec) * inv_c0
    power = TruncatedSeries.one(spec)
    step = tail * (-Fraction(1, 1) / c0 if isinstance(inv_c0, Fraction) else -inv_c0)
    while True:
        power = power * step
        if not power.terms:
            break
        result = result + power * inv_c0
    return result


def s_function_series(
    spec: TruncationSpec, order: int, var: Variable = ("z", 1)
) -> TruncatedSeries:
    """Truncation of S(z) = sinh(z/2)/(z/2) = sum_m z^(2m) / (4^m (2m+1)!).

    Only even powers appear; ``order`` is the maximal retained exponent.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    terms: dict[Monomial, Coeff] = {}
    for m in range(order // 2 + 1):
        coeff: Coeff = 1 if m == 0 else Fraction(1, 4**m * factorial(2 * m + 1))
        terms[monomial({var: 2 * m})] = coeff
    return TruncatedSeries(spec, terms)


# -- edge factors as full series ------------------------------------------


@dataclass(frozen=True)
class EdgeContext:
    """One edge slot of a graph, oriented by a vertex order.

    For loops tail == head and both z-slots refer to that vertex.
    """

    edge_index: int  # 1-based, equals the q-variable index
    tail: int
    head: int

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    @staticmethod
    def from_graph(graph: FeynmanGraph, order: VertexOrder, edge_index: int) -> "EdgeContext":
        u, v = graph.edges[edge_index - 1]
        if u == v:
            return EdgeContext(edge_index, u, u)
        if order.index(u) < order.index(v):
            return EdgeContext(edge_index, u, v)
        return EdgeContext(edge_index, v, u)


def s_at_weight(spec: TruncationSpec, z_var: Variable, w: int) -> TruncatedSeries:
    """S(w z) truncated by the declared bound on ``z_var``."""
    order = spec.bound(z_var)
    return scale_variable(s_function_series(spec, order, z_var), z_var, w)


def propagator(ctx: EdgeContext, spec: TruncationSpec) -> TruncatedSeries:
    """Plain edge factor P(x_tail / x_head, q_k) up to the declared bounds."""
    if ctx.is_loop:
        raise ValueError("propagator() is for non-loop edges; use loop_propagator")
    xt: Variable = ("x", ctx.tail)
    xh: Variable = ("x", ctx.head)
    q: Variable = ("q", ctx.edge_index)
    terms: dict = {}
    for w in range(1, spec.x_bound + 1):
        terms[monomial({xt: w, xh: -w})] = w
    for a in range(1, spec.bound(q) + 1):
        for w in divisors(a):
            if w > spec.x_bound:
                continue
            for sgn in (1, -1):
                mono = monomial({xt: sgn * w, xh: -sgn * w, q: a})
                terms[mono] = terms.get(mono, 0) + w
    return TruncatedSeries(spec, terms)


def loop_propagator(ctx: EdgeContext, spec: TruncationSpec) -> TruncatedSeries:
    """Loop edge factor sum_a sigma(a) q_k^a (no constant term)."""
    if not ctx.is_loop:
        raise ValueError("loop_propagator() is for loop edges")
    q: Variable = ("q", ctx.edge_index)
    return TruncatedSeries(
        spec, {monomial({q: a}): sigma(a) for a in range(1, spec.bound(q) + 1)}
    )


def vertex_propagator(ctx: EdgeContext, spec: TruncationSpec) -> TruncatedSeries:
    """Dressed edge factor: each w-term of P times S(w z_tail) S(w z_head).

    Both endpoint weights attach to every winding term regardless of the
    term's direction: each edge end sits at its vertex either way.
    """
    if ctx.is_loop:
        raise ValueError("vertex_propagator() is for non-loop edges")
    xt: Variable = ("x", ctx.tail)
    xh: Variable = ("x", ctx.head)
    zt: Variable = ("z", ctx.tail)
    zh: Variable = ("z", ctx.head)
    q: Variable = ("q", ctx.edge_index)
    total = TruncatedSeries.zero(spec)
    for w in range(1, spec.x_bound + 1):
        dress = s_at_weight(spec, zt, w) * s_at_weight(spec, zh, w)
        total = total + dress * TruncatedSeries(spec, {monomial({xt: w, xh: -w}): w})
    for a in range(1, spec.bound(q) + 1):
        for w in divisors(a):
            if w > spec.x_bound:
                continue
            dress = s_at_weight(spec, zt, w) * s_at_weight(spec, zh, w)
            both = TruncatedSeries(
                spec,
                {
                    monomial({xt: w, xh: -w, q: a}): w,
                    monomial({xt: -w, xh: w, q: a}): w,
                },
            )
            total = total + dress * both
    return total


def vertex_loop_propagator(ctx: EdgeContext, spec: TruncationSpec) -> TruncatedSeries:
    """Dressed loop factor sum_a sum_{w|a} w S(w z_v)^2 q_k^a."""
    if not ctx.is_loop:
        raise ValueError("vertex_loop_propagator() is for loop edges")
    zv: Variable = ("z", ctx.tail)
    q: Variable = ("q", ctx.edge_index)
    total = TruncatedSeries.zero(spec)
    for a in range(1, spec.bound(q) + 1):
        for w in divisors(a):
            dress = s_at_weight(spec, zv, w)
            total = total + dress * dress * TruncatedSeries(
                spec, {monomial({q: a}): w}
            )
    return total


# -- coefficient extraction from the full product ---------------------------


def refined_coeff_reference(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
    gf: Sequence[int] | None = None,
) -> Coeff:
    """Same coefficient via full TruncatedSeries propagator products: the
    plain edge factors with no genus function, the dressed ones and the
    1/S vertex factors with one.

    Exponentially slower than :func:`trofey.integrals.refined_coeff`; exists to pin the
    fast path against the series-level definitions.  The fast path reads a
    missing genus function as genus 0 and dresses anyway, so comparing it
    with the plain factors here checks that the dressing is trivial there.
    """
    order, a_t, leaks, gf_t = check_query(graph, order, a, l, gf)
    dressed = gf is not None
    direct_cap = sum(a_t) + sum(abs(x) for x in leaks)
    x_bound = max(1, direct_cap * max(graph.degrees()))
    spec = TruncationSpec.make(
        x_bound=x_bound,
        q_bounds={kk + 1: a_t[kk] for kk in range(graph.num_edges)},
        z_bounds={v: 2 * gf_t[v - 1] for v in range(1, graph.n + 1)},
    )
    product = TruncatedSeries.one(spec)
    for idx in range(1, graph.num_edges + 1):
        ctx = EdgeContext.from_graph(graph, order, idx)
        if dressed:
            factor = (
                vertex_loop_propagator(ctx, spec)
                if ctx.is_loop
                else vertex_propagator(ctx, spec)
            )
        else:
            factor = (
                loop_propagator(ctx, spec) if ctx.is_loop else propagator(ctx, spec)
            )
        product = product * factor
    if dressed:
        for v in range(1, graph.n + 1):
            if gf_t[v - 1] > 0:
                product = product * invert(
                    s_function_series(spec, 2 * gf_t[v - 1], ("z", v))
                )
    exponents: dict = {}
    for kk in range(graph.num_edges):
        if a_t[kk]:
            exponents[("q", kk + 1)] = a_t[kk]
    for v in range(1, graph.n + 1):
        if leaks[v - 1]:
            exponents[("x", v)] = leaks[v - 1]
        if dressed and gf_t[v - 1]:
            exponents[("z", v)] = 2 * gf_t[v - 1]
    return product.coefficient(exponents)


# -- the Eisenstein fit over Fraction --------------------------------------


def fit_reference(
    series: Mapping[int, Coeff], max_weight: int, q_order: int
) -> QuasimodularFit:
    """:func:`trofey.quasimodular.fit` by Gauss--Jordan elimination over
    ``Fraction``: the same checks, errors and result, by the plain route."""
    bas = basis(max_weight, q_order)
    if q_order < len(bas) + OVERDETERMINATION_MARGIN:
        raise ValueError(
            f"underdetermined: q_order {q_order} < {len(bas)} basis monomials "
            f"+ margin {OVERDETERMINATION_MARGIN}"
        )
    if any(d < 0 for d in series):
        raise ValueError("q-exponents must be nonnegative")
    target = [series.get(d, 0) for d in range(q_order + 1)]

    # augmented matrix over Fraction: one row per q-coefficient
    rows = [
        [Fraction(row[d]) for _, row in bas] + [Fraction(target[d])]
        for d in range(q_order + 1)
    ]
    ncols = len(bas)
    pivot_of_col: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        pivot_of_col[col] = rank
        rank += 1
    if rank < ncols:
        raise ValueError("basis q-expansions are not independent at this order")
    if not all(row[ncols] == 0 for row in rows[rank:]):
        raise ValueError(
            f"no polynomial of weight <= {max_weight} matches the series through q^{q_order}"
        )
    solution: dict[EisensteinMonomial, Coeff] = {}
    for col, (monomial, _) in enumerate(bas):
        value = rows[pivot_of_col[col]][ncols]
        if value != 0:
            solution[monomial] = _norm_coeff(value)
    return QuasimodularFit(solution)
