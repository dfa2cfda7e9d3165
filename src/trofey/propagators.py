"""Arithmetic of the edge factors and the Eisenstein q-series.

Under a vertex order, every non-loop edge k with oriented endpoints
(tail, head) carries a factor in the endpoint ratio x_tail / x_head and
its own edge variable q_k:

    P(x, q) = sum_{w>=1} w x^w  +  sum_{a>=1} sum_{w | a} w (x^w + x^-w) q^a.

The q^0 part deliberately contains only positive powers of the ratio:
it encodes the orientation of uncurled edges.  Loop edges carry the
x-free factor  P_loop(q) = sum_{a>=1} sigma(a) q^a.

The "vertex-dressed" variants multiply every winding-w term by
S(w z_tail) S(w z_head), where S(z) = sinh(z/2)/(z/2); for a loop both
S-factors sit at the loop vertex.  These carry the genus corrections.
The integral DP of :mod:`trofey.integrals` builds the factors q-slice by
q-slice from :func:`divisors`, with the S-coefficients scaled to integers
by factorials and the vertex's 1/S from :func:`trofey.series.invert` of
:func:`trofey.series.s_series`.

Eisenstein series E2, E4, E6 are provided for the quasimodular fitting
layer; E2 = 1 - 24 sum sigma_1(d) q^d matches the propagator normalization
and E4, E6 use the standard 240/-504 expansions.
"""

from __future__ import annotations

from functools import lru_cache

from .series import Coeff


@lru_cache(maxsize=None)
def divisors(a: int) -> tuple[int, ...]:
    if a < 1:
        raise ValueError("divisors need a positive integer")
    return tuple(w for w in range(1, a + 1) if a % w == 0)


def sigma(a: int, power: int = 1) -> int:
    """Divisor power sum sigma_power(a)."""
    return sum(w**power for w in divisors(a))


def eisenstein_coefficients(weight: int, q_order: int) -> list[Coeff]:
    """Coefficients [q^0 .. q^q_order] of E2, E4 or E6."""
    if weight not in (2, 4, 6):
        raise ValueError("Eisenstein weight must be 2, 4 or 6")
    factor = {2: -24, 4: 240, 6: -504}[weight]
    power = weight - 1
    out: list[Coeff] = [1]
    for d in range(1, q_order + 1):
        out.append(factor * sigma(d, power))
    return out
