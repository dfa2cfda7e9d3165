"""Tests for the univariate series kernel and the multivariate test oracle.

The kernel (:mod:`trofey.series`) is checked against the oracle's
truncated multivariate series (``series_oracle``), which shares no
arithmetic with it; the oracle's own ring laws are checked first.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series_oracle import (
    TruncatedSeries,
    TruncationSpec,
    invert,
    monomial,
    s_function_series,
    scale_variable,
    variable,
)
from trofey import series as kernel
from trofey.covers import one_point_mult
from trofey.integrals import _inv_s_even

X1 = variable("x", 1)
X2 = variable("x", 2)
Q1 = variable("q", 1)
Z1 = variable("z", 1)

SPEC = TruncationSpec.make(x_bound=3, q_bounds={1: 4}, z_bounds={1: 4})


def series(*terms: tuple[dict, int | Fraction]) -> TruncatedSeries:
    return TruncatedSeries(SPEC, {monomial(e): c for e, c in terms})


# -- random series for property tests -------------------------------------

coeffs = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=9),
    ),
)


@st.composite
def random_series(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        expo = {}
        if draw(st.booleans()):
            expo[X1] = draw(st.integers(min_value=-3, max_value=3))
        if draw(st.booleans()):
            expo[Q1] = draw(st.integers(min_value=0, max_value=4))
        if draw(st.booleans()):
            expo[Z1] = draw(st.integers(min_value=0, max_value=4))
        terms[monomial(expo)] = draw(coeffs)
    return TruncatedSeries(SPEC, terms)


@settings(max_examples=150, deadline=None)
@given(random_series(), random_series(), random_series())
def test_linear_and_commutative_laws(a, b, c):
    # Hold for every series, including Laurent (x) windows: truncation is
    # linear and termwise, so sums and products commute with it.
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + TruncatedSeries.zero(SPEC) == a
    assert a * TruncatedSeries.one(SPEC) == a
    assert a - a == TruncatedSeries.zero(SPEC)


@settings(max_examples=150, deadline=None)
@given(random_series(), random_series(), random_series())
def test_multiplication_associative_without_x(a, b, c):
    # q/z truncation is a quotient by an ideal, so products associate.
    a, b, c = (s.filtered(lambda m: all(v[0] != "x" for v, _ in m)) for s in (a, b, c))
    assert (a * b) * c == a * (b * c)


def test_x_window_breaks_associativity():
    # The symmetric x window is a projection, not an ideal: x^-1*(x^3*x^1)
    # loses the out-of-window intermediate x^4, while (x^-1*x^3)*x^1 keeps
    # everything inside.  Callers must size x_bound to the worst
    # intermediate product (the integral engine computes that bound).
    xm1 = series(({X1: -1}, 1))
    x3 = series(({X1: 3}, 1))
    x1 = series(({X1: 1}, 1))
    assert (xm1 * x3) * x1 == series(({X1: 3}, 1))
    assert xm1 * (x3 * x1) == TruncatedSeries.zero(SPEC)


@settings(max_examples=100, deadline=None)
@given(random_series())
def test_truncation_is_idempotent(a):
    # re-wrapping the terms of a truncated series changes nothing
    assert TruncatedSeries(SPEC, dict(a.terms)) == a


def test_coefficients_normalize_to_int():
    s = series(({X1: 1}, Fraction(4, 2)))
    assert s.coefficient({X1: 1}) == 2
    assert isinstance(s.coefficient({X1: 1}), int)


def test_zero_coefficients_are_dropped():
    s = series(({X1: 1}, 1)) - series(({X1: 1}, 1))
    assert s.terms == {}


def test_multiplication_truncates_x_window():
    s = series(({X1: 2}, 1))
    assert (s * s).terms == {}  # x^4 falls outside |exp| <= 3
    t = series(({X1: 2}, 1), ({X1: -1}, 1))
    # x^2*x^-1 survives twice; x^4 and x^-2 once each
    assert (t * t).coefficient({X1: 1}) == 2
    assert (t * t).coefficient({X1: -2}) == 1
    assert (t * t).coefficient({X1: 4}) == 0


def test_multiplication_truncates_q():
    s = series(({Q1: 3}, 1))
    assert (s * s).terms == {}  # q^6 > bound 4


def test_undeclared_variable_is_an_error():
    with pytest.raises(KeyError):
        SPEC.bound(variable("q", 2))


def test_negative_q_exponent_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(SPEC, {monomial({Q1: -1}): 1})


def test_extract_shifts_out_one_variable():
    s = series(({X1: 2, Q1: 1}, 5), ({X1: 2}, 7), ({X1: 1}, 3))
    picked = s.extract(X1, 2)
    assert picked.coefficient({Q1: 1}) == 5
    assert picked.constant_term() == 7
    assert picked.coefficient({X1: 1}) == 0


def test_filtered_keeps_matching_monomials():
    s = series(({X1: 1}, 1), ({X2: 1}, 2))
    kept = s.filtered(lambda mono: any(v == X2 for v, _ in mono))
    assert kept.coefficient({X2: 1}) == 2
    assert kept.coefficient({X1: 1}) == 0


def test_scale_variable_powers_factor():
    s = series(({X1: 2}, 1), ({X1: -1}, 1))
    t = scale_variable(s, X1, 3)
    assert t.coefficient({X1: 2}) == 9
    assert t.coefficient({X1: -1}) == Fraction(1, 3)


def test_invert_geometric_series():
    one_minus_q = series(({}, 1), ({Q1: 1}, -1))
    inv = invert(one_minus_q)
    for k in range(5):
        assert inv.coefficient({Q1: k}) == 1
    assert one_minus_q * inv == TruncatedSeries.one(SPEC)


def test_invert_rejects_x_series():
    with pytest.raises(ValueError):
        invert(series(({}, 1), ({X1: 1}, 1)))
    with pytest.raises(ValueError):
        invert(series(({Q1: 1}, 1)))


@settings(max_examples=60, deadline=None)
@given(random_series())
def test_invert_is_two_sided(a):
    qz = a.filtered(lambda mono: all(v[0] != "x" for v, _ in mono))
    if qz.constant_term() == 0:
        qz = qz + TruncatedSeries.one(SPEC)
    assert qz * invert(qz) == TruncatedSeries.one(SPEC)


def test_s_function_coefficients():
    # sinh(z/2)/(z/2) = 1 + z^2/24 + z^4/1920 + z^6/322560 + ...
    spec = TruncationSpec.make(z_bounds={1: 6})
    s = s_function_series(spec, 6)
    assert s.coefficient({Z1: 0}) == 1
    assert s.coefficient({Z1: 2}) == Fraction(1, 24)
    assert s.coefficient({Z1: 4}) == Fraction(1, 1920)
    assert s.coefficient({Z1: 6}) == Fraction(1, 322560)
    assert s.coefficient({Z1: 1}) == 0
    assert s.coefficient({Z1: 3}) == 0


def test_s_function_inverse_coefficients():
    # 1/S(z) = 1 - z^2/24 + 7 z^4/5760 - 31 z^6/967680 + ...
    spec = TruncationSpec.make(z_bounds={1: 6})
    inv = invert(s_function_series(spec, 6))
    assert inv.coefficient({Z1: 0}) == 1
    assert inv.coefficient({Z1: 2}) == Fraction(-1, 24)
    assert inv.coefficient({Z1: 4}) == Fraction(7, 5760)
    assert inv.coefficient({Z1: 6}) == Fraction(-31, 967680)


# -- the univariate kernel against the oracle ------------------------------


def as_oracle(coeffs, order):
    spec = TruncationSpec.make(q_bounds={1: order})
    return TruncatedSeries(spec, {monomial({Q1: i}): c for i, c in enumerate(coeffs)})


def from_oracle(series, order, var=Q1):
    return [series.coefficient({var: i}) for i in range(order + 1)]


coeff_lists = st.lists(coeffs, min_size=0, max_size=8)


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, st.integers(min_value=0, max_value=6))
def test_kernel_mul_matches_oracle(u, v, order):
    want = from_oracle(as_oracle(u, order) * as_oracle(v, order), order)
    got = kernel.mul(u, v, order)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]  # int where integral


@settings(max_examples=150, deadline=None)
@given(coeffs.filter(lambda c: c != 0), coeff_lists, st.integers(min_value=0, max_value=6))
def test_kernel_invert_is_inverse(c0, tail, order):
    u = [c0] + tail
    inv = kernel.invert(u, order)
    assert len(inv) == order + 1
    assert kernel.mul(u, inv, order) == [1] + [0] * order
    assert inv == from_oracle(invert(as_oracle(u, order)), order)


@pytest.mark.parametrize("u", [[], [0], [0, 1], [Fraction(0), 2, 3]])
def test_kernel_invert_rejects_zero_constant_term(u):
    with pytest.raises(ValueError):
        kernel.invert(u, 3)


def test_kernel_normalize():
    assert kernel.normalize(Fraction(4, 2)) == 2
    assert isinstance(kernel.normalize(Fraction(4, 2)), int)
    assert kernel.normalize(Fraction(1, 2)) == Fraction(1, 2)
    assert kernel.normalize(7) == 7


@pytest.mark.parametrize("w", [1, 2, 3, 5])
@pytest.mark.parametrize("order", range(9))
def test_kernel_s_series_matches_oracle(w, order):
    spec = TruncationSpec.make(z_bounds={1: order})
    want = scale_variable(s_function_series(spec, order, Z1), Z1, w)
    assert kernel.s_series(w, order) == from_oracle(want, order, Z1)
    with pytest.raises(ValueError):
        kernel.s_series(w, -1)


@pytest.mark.parametrize("g", range(7))
def test_inverse_s_coefficients_match_oracle(g):
    spec = TruncationSpec.make(z_bounds={1: 2 * g})
    inv = invert(s_function_series(spec, 2 * g, Z1))
    assert _inv_s_even(g) == tuple(inv.coefficient({Z1: 2 * m}) for m in range(g + 1))


def one_point_by_oracle(ends, k):
    """Coefficient of z^{2g} in prod S(w z) / S(z), 2g = k + 2 - len(ends)."""
    two_g = k + 2 - len(ends)
    if two_g < 0 or two_g % 2 != 0:
        return 0
    spec = TruncationSpec.make(z_bounds={1: two_g})
    product = invert(s_function_series(spec, two_g, Z1))
    for w in ends:
        product = product * scale_variable(s_function_series(spec, two_g, Z1), Z1, w)
    return product.coefficient({Z1: two_g})


def test_one_point_mult_matches_oracle():
    checked = 0
    for length in range(5):
        for ends in combinations_with_replacement(range(1, 5), length):
            split = length // 2
            for k in range(7):
                got = one_point_mult(ends[:split], ends[split:], k)
                want = one_point_by_oracle(ends, k)
                assert got == want, (ends, k)
                assert type(got) is type(want), (ends, k)
                checked += 1
    assert checked == 70 * 7
