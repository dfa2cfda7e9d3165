"""Membership of q-series in the Eisenstein ring Q[E2, E4, E6].

A q-series known exactly through q^N is matched against the monomials
E2^a E4^b E6^c of weight 2a + 4b + 6c <= max_weight by exact linear
algebra.  The monomials are linearly independent as q-series, so when a
solution exists it is unique; the solve uses more coefficients than
monomials so that wrong normalizations or too small weight bounds fail
loudly instead of producing a spurious polynomial: :func:`fit` returns
the matching polynomial or raises ``ValueError``.

The solve runs in integers: the basis q-expansions are integral, the
target is scaled by the lcm of its denominators, and fraction-free
(Bareiss) elimination keeps every entry an exact integer minor.  Only
back-substitution makes one ``Fraction`` per unknown.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple, Sequence

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


class QuasimodularFit(NamedTuple):
    """An exact polynomial in E2, E4, E6 matched to a q-series.

    ``coefficients`` holds only nonzero entries.  A fit that returns is a
    match: :func:`fit` raises when no polynomial within the weight bound
    reproduces the series.
    """

    coefficients: Mapping[EisensteinMonomial, Coeff]

    @property
    def weight_profile(self) -> frozenset[int]:
        return frozenset(monomial_weight(m) for m in self.coefficients)

    @property
    def is_homogeneous(self) -> bool:
        return len(self.weight_profile) <= 1

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


def fit(series: Mapping[int, Coeff], max_weight: int, q_order: int) -> QuasimodularFit:
    """Solve for the unique Eisenstein polynomial matching the series
    {d: coefficient of q^d}; a missing d reads 0.

    The series must be known exactly through q_order, with q_order at
    least (number of basis monomials) + OVERDETERMINATION_MARGIN --
    otherwise the system is declared underdetermined and raises.  All
    q-coefficients through q_order participate: an exact solution must
    reproduce every one of them, else no polynomial matches and it raises.
    """
    bas = basis(max_weight, q_order)
    if q_order < len(bas) + OVERDETERMINATION_MARGIN:
        raise ValueError(
            f"underdetermined: q_order {q_order} < {len(bas)} basis monomials "
            f"+ margin {OVERDETERMINATION_MARGIN}"
        )
    if any(d < 0 for d in series):
        raise ValueError("q-exponents must be nonnegative")
    target = [series.get(d, 0) for d in range(q_order + 1)]
    scale = lcm(*(c.denominator for c in target))

    # integer augmented matrix: one row per q-coefficient, the target
    # scaled by ``scale`` in the last column
    rows = [
        [row[d] for _, row in bas] + [target[d].numerator * (scale // target[d].denominator)]
        for d in range(q_order + 1)
    ]
    ncols = len(bas)
    # Bareiss: after step col every entry below the pivots is a minor of
    # the (row-permuted) matrix, so each division by the previous pivot
    # is exact
    previous = 1
    for col in range(ncols):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            # cannot happen for independent Eisenstein monomials at this order
            raise ValueError("basis q-expansions are not independent at this order")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for r in range(col + 1, len(rows)):
            row = rows[r]
            factor = row[col]
            rows[r] = [0] * (col + 1) + [
                (p * x - factor * y) // previous
                for x, y in zip(row[col + 1 :], top[col + 1 :])
            ]
        previous = p
    if any(row[ncols] != 0 for row in rows[ncols:]):
        raise ValueError(
            f"no polynomial of weight <= {max_weight} matches the series through q^{q_order}"
        )
    # back-substitution for y = det * x, integral by Cramer's rule
    det = previous
    scaled: list[int] = [0] * ncols
    for i in range(ncols - 1, -1, -1):
        row = rows[i]
        acc = det * row[ncols] - sum(row[j] * scaled[j] for j in range(i + 1, ncols))
        scaled[i] = acc // row[i]
    solution: dict[EisensteinMonomial, Coeff] = {}
    for (monomial, _), y in zip(bas, scaled):
        if y != 0:
            solution[monomial] = normalize(Fraction(y, det * scale))
    return QuasimodularFit(solution)
