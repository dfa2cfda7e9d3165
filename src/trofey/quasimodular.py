"""Membership of q-series in the Eisenstein ring Q[E2, E4, E6].

A q-series known exactly through q^N is matched against the monomials
E2^a E4^b E6^c of weight 2a + 4b + 6c <= max_weight by exact linear
algebra.  The monomials are linearly independent as q-series, so when a
solution exists it is unique; the solve uses more coefficients than
monomials so that wrong normalizations or too small weight bounds fail
loudly instead of producing a spurious polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .graphs import FeynmanGraph
from .propagators import eisenstein_coefficients
from .series import Coeff, mul, normalize

EisensteinMonomial = tuple[int, int, int]  # exponents of E2, E4, E6

#: extra q-coefficients beyond the basis size required before solving
OVERDETERMINATION_MARGIN = 5


def monomial_weight(monomial: EisensteinMonomial) -> int:
    a, b, c = monomial
    return 2 * a + 4 * b + 6 * c


def basis(
    max_weight: int, q_order: int
) -> list[tuple[EisensteinMonomial, list[Coeff]]]:
    """All monomials of weight <= max_weight with their q-expansions.

    Ordered by weight, then within a weight by descending E2 exponent
    (so: 1, E2, E2^2, E4, E2^3, E2 E4, E6, ...).
    """
    if max_weight < 0 or max_weight % 2 != 0:
        raise ValueError("weight bound must be a nonnegative even integer")
    monomials: list[EisensteinMonomial] = []
    for c in range(max_weight // 6 + 1):
        for b in range((max_weight - 6 * c) // 4 + 1):
            for a in range((max_weight - 6 * c - 4 * b) // 2 + 1):
                monomials.append((a, b, c))
    monomials.sort(key=lambda m: (monomial_weight(m), -m[0], -m[1], -m[2]))
    e = {
        w: eisenstein_coefficients(w, q_order)
        for w in (2, 4, 6)
        if max_weight >= w
    }
    out: list[tuple[EisensteinMonomial, list[Coeff]]] = []
    for a, b, c in monomials:
        row: list[Coeff] = [1] + [0] * q_order
        for _ in range(a):
            row = mul(row, e[2], q_order)
        for _ in range(b):
            row = mul(row, e[4], q_order)
        for _ in range(c):
            row = mul(row, e[6], q_order)
        out.append(((a, b, c), row))
    return out


def weight_bound(graph: FeynmanGraph, gf: Sequence[int]) -> int:
    """Top weight 2 (r + sum of vertex genera) a fixed-order series can reach."""
    return 2 * (graph.num_edges + sum(gf))


@dataclass(frozen=True)
class QuasimodularFit:
    """An exact polynomial in E2, E4, E6 matched to a q-series.

    ``coefficients`` holds only nonzero entries.  ``residual_ok`` is False
    when no polynomial within the weight bound reproduces the series;
    the coefficients are then empty.
    """

    coefficients: Mapping[EisensteinMonomial, Coeff]
    max_weight: int
    residual_ok: bool
    verified_order: int

    @property
    def weight_profile(self) -> frozenset[int]:
        return frozenset(monomial_weight(m) for m in self.coefficients)

    @property
    def is_homogeneous(self) -> bool:
        return len(self.weight_profile) <= 1

    @property
    def is_mixed(self) -> bool:
        return len(self.weight_profile) > 1

    def q_expansion(self, q_order: int) -> list[Coeff]:
        rows = dict(basis(self.max_weight, q_order))
        total: list[Coeff] = [0] * (q_order + 1)
        for monomial, coeff in self.coefficients.items():
            row = rows[monomial]
            for d in range(q_order + 1):
                total[d] = total[d] + coeff * row[d]
        return [normalize(c) for c in total]

    def terms(self) -> list[tuple[str, Coeff]]:
        """(monomial name, coefficient) in display order: by weight, then by
        descending E2 and E4 exponents; names like "E2^2*E4", "1" for the
        constant."""
        ordered = sorted(
            self.coefficients.items(),
            key=lambda kv: (monomial_weight(kv[0]), -kv[0][0], -kv[0][1]),
        )
        out: list[tuple[str, Coeff]] = []
        for monomial, coeff in ordered:
            factors = [
                f"{name}^{e}" if e > 1 else name
                for name, e in zip(("E2", "E4", "E6"), monomial)
                if e > 0
            ]
            out.append(("*".join(factors) or "1", coeff))
        return out

    def format_polynomial(self) -> str:
        if not self.coefficients:
            return "0"
        parts: list[str] = []
        for mono, coeff in self.terms():
            coeff = Fraction(coeff)
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if mono == "1":
                parts.append(f"{sign} {mag}")
            elif mag == 1:
                parts.append(f"{sign} {mono}")
            else:
                parts.append(f"{sign} {mag}*{mono}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _coefficient_list(
    series: Mapping[int, Coeff] | Sequence[Coeff], q_order: int
) -> list[Coeff]:
    if isinstance(series, Mapping):
        if any(d < 0 for d in series):
            raise ValueError("q-exponents must be nonnegative")
        return [series.get(d, 0) for d in range(q_order + 1)]
    if len(series) < q_order + 1:
        raise ValueError("series has fewer coefficients than q_order requires")
    return list(series[: q_order + 1])


def fit(
    series: Mapping[int, Coeff] | Sequence[Coeff],
    max_weight: int,
    q_order: int,
) -> QuasimodularFit:
    """Solve for the unique Eisenstein polynomial matching the series.

    The series must be known exactly through q_order, with q_order at
    least (number of basis monomials) + OVERDETERMINATION_MARGIN --
    otherwise the system is declared underdetermined and raises.  All
    q-coefficients through q_order participate: an exact solution must
    reproduce every one of them, else residual_ok is False.
    """
    bas = basis(max_weight, q_order)
    if q_order < len(bas) + OVERDETERMINATION_MARGIN:
        raise ValueError(
            f"underdetermined: q_order {q_order} < {len(bas)} basis monomials "
            f"+ margin {OVERDETERMINATION_MARGIN}"
        )
    target = _coefficient_list(series, q_order)

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
        # cannot happen for independent Eisenstein monomials at this order
        raise ValueError("basis q-expansions are not independent at this order")
    consistent = all(row[ncols] == 0 for row in rows[rank:])
    if not consistent:
        return QuasimodularFit({}, max_weight, False, q_order)
    solution: dict[EisensteinMonomial, Coeff] = {}
    for col, (monomial, _) in enumerate(bas):
        value = rows[pivot_of_col[col]][ncols]
        if value != 0:
            solution[monomial] = normalize(value)
    return QuasimodularFit(solution, max_weight, True, q_order)
