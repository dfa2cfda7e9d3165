"""Exact univariate truncated power series.

A series is its coefficient list ``[c_0, c_1, ..., c_order]``.
Coefficients are exact: ``int`` where integral, ``fractions.Fraction``
otherwise (:func:`normalize` collapses denominators of one).  The
operations return new lists truncated at the requested order.  The
coefficients s_m of S are rational for m >= 1; the integral DP in
:mod:`trofey.integrals` does not multiply by them but by integer
multiples K^m s_m, so it stays in ``int`` at every genus and divides once
per monomial, at extraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Sequence, Union

Coeff = Union[int, Fraction]


def normalize(c: Coeff) -> Coeff:
    """Collapse a Fraction with denominator one back to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def mul(u: Sequence[Coeff], v: Sequence[Coeff], order: int) -> list[Coeff]:
    """Product u * v through the coefficient of z^order."""
    out: list[Coeff] = [0] * (order + 1)
    for i, ui in enumerate(u[: order + 1]):
        if ui == 0:
            continue
        for j, vj in enumerate(v[: order + 1 - i]):
            if vj != 0:
                out[i + j] = out[i + j] + ui * vj
    return [normalize(c) for c in out]


def invert(u: Sequence[Coeff], order: int) -> list[Coeff]:
    """1/u through the coefficient of z^order; u needs a nonzero constant term."""
    if not u or u[0] == 0:
        raise ValueError("cannot invert a series with zero constant term")
    inv0 = Fraction(1) / u[0]
    out: list[Coeff] = []
    for i in range(order + 1):
        acc: Coeff = 1 if i == 0 else 0
        for j in range(1, min(i, len(u) - 1) + 1):
            if u[j] != 0:
                acc = acc - u[j] * out[i - j]
        out.append(normalize(acc * inv0))
    return out


@lru_cache(maxsize=None)
def s_coeff(m: int) -> Coeff:
    """z^{2m}-coefficient of S(z) = sinh(z/2)/(z/2) = sum_m z^{2m} / (4^m (2m+1)!)."""
    return 1 if m == 0 else Fraction(1, 4**m * factorial(2 * m + 1))


def s_series(w: int, order: int) -> list[Coeff]:
    """S(w z) through the coefficient of z^order (only even powers occur)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out: list[Coeff] = [0] * (order + 1)
    for m in range(order // 2 + 1):
        out[2 * m] = normalize(s_coeff(m) * w ** (2 * m))
    return out
