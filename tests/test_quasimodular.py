"""Tests for the exact fit into the quasimodular polynomial ring."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import TRIANGLE, RIGHT, MIDDLE, ID3
from trofey.integrals import integral_series_q
from trofey.propagators import eisenstein_coefficients
from trofey.quasimodular import (
    OVERDETERMINATION_MARGIN,
    QuasimodularFit,
    basis,
    fit,
    monomial_weight,
    weight_bound,
)
from series_oracle import fit_reference

Q_ORDER = 16  # 11 basis monomials at weight 8, plus the safety margin


def series_for(graph, gf):
    return integral_series_q(graph, gf, ID3, Q_ORDER)


def test_monomial_weight():
    assert monomial_weight((0, 0, 0)) == 0
    assert monomial_weight((3, 0, 0)) == 6
    assert monomial_weight((1, 1, 1)) == 12


def test_basis_enumeration_and_rows():
    rows = basis(4, 3)
    monos = [m for m, _ in rows]
    assert monos == [(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]
    table = dict(rows)
    assert table[(0, 0, 0)] == [1, 0, 0, 0]
    assert table[(1, 0, 0)] == eisenstein_coefficients(2, 3)
    # E2^2 = 1 - 48q + 432q^2 + ...
    assert table[(2, 0, 0)][:3] == [1, -48, 432]
    assert len(basis(6, 0)) == 7
    assert len(basis(8, 0)) == 11


def test_weight_bound_is_twice_edges_plus_genus():
    assert weight_bound(TRIANGLE, (1, 0, 0)) == 8
    assert weight_bound(RIGHT, (0, 0, 0)) == 8
    assert weight_bound(MIDDLE, (0, 0, 0)) == 8
    assert weight_bound(TRIANGLE, (0, 0, 0)) == 6


def test_fit_constant():
    result = fit({0: 1}, 0, OVERDETERMINATION_MARGIN + 1)
    assert result.coefficients == {(0, 0, 0): 1}
    assert result.weight_profile == {0}
    assert result.is_homogeneous
    assert result.format_polynomial() == "1"


def test_fit_recovers_single_eisenstein():
    coeffs = eisenstein_coefficients(4, 9)
    result = fit(dict(enumerate(coeffs)), 4, 9)
    assert result.coefficients == {(0, 1, 0): 1}
    assert result.format_polynomial() == "E4"


def test_fit_triangle_polynomial():
    result = fit(series_for(TRIANGLE, (1, 0, 0)), 8, Q_ORDER)
    assert result.format_polynomial() == (
        "1/41472*E2^3 - 1/13824*E2*E4 + 1/20736*E6"
        " + 1/20736*E2^2*E4 - 1/10368*E2*E6 + 1/20736*E4^2"
    )
    assert result.weight_profile == {6, 8}
    assert not result.is_homogeneous


def test_fit_right_polynomial():
    result = fit(series_for(RIGHT, (0, 0, 0)), 8, Q_ORDER)
    assert result.format_polynomial() == (
        "-1/41472*E2^3 + 1/13824*E2*E4 - 1/20736*E6"
        " + 1/41472*E2^4 - 1/13824*E2^2*E4 + 1/20736*E2*E6"
    )
    assert result.weight_profile == {6, 8}


def test_fit_middle_polynomial():
    result = fit(series_for(MIDDLE, (0, 0, 0)), 8, Q_ORDER)
    assert result.format_polynomial() == (
        "1/20736*E2^4 - 1/10368*E2^2*E4 + 1/20736*E4^2"
    )
    assert result.weight_profile == {8}
    assert result.is_homogeneous


def test_triangle_plus_right_is_homogeneous():
    tri = series_for(TRIANGLE, (1, 0, 0))
    right = series_for(RIGHT, (0, 0, 0))
    total = {d: tri.get(d, 0) + right.get(d, 0) for d in range(Q_ORDER + 1)}
    result = fit(total, 8, Q_ORDER)
    assert result.is_homogeneous and result.weight_profile == {8}
    assert result.format_polynomial() == (
        "1/41472*E2^4 - 1/41472*E2^2*E4 - 1/20736*E2*E6 + 1/20736*E4^2"
    )


def test_middle_fails_below_its_weight():
    message = f"no polynomial of weight <= 6 matches the series through q^{Q_ORDER}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(series_for(MIDDLE, (0, 0, 0)), 6, Q_ORDER)


def test_underdetermined_raises():
    with pytest.raises(ValueError, match="underdetermined"):
        fit({0: 1}, 8, 10)  # 11 monomials need q_order >= 16


def test_q_expansion_round_trip():
    # the fitted polynomial, expanded from the basis rows, is the series
    series = series_for(MIDDLE, (0, 0, 0))
    result = fit(series, 8, Q_ORDER)
    assert result.coefficients
    rows = dict(basis(8, Q_ORDER))
    expanded = [
        sum(c * rows[m][d] for m, c in result.coefficients.items())
        for d in range(Q_ORDER + 1)
    ]
    assert expanded == [series.get(d, 0) for d in range(Q_ORDER + 1)]


def test_fit_reads_missing_exponents_as_zero():
    # {0: 1} is the constant 1 through every order; q^9 lies beyond q_order
    assert fit({0: 1, 9: 5}, 2, 8).coefficients == {(0, 0, 0): 1}
    with pytest.raises(ValueError, match="nonnegative"):
        fit({-1: 1, 0: 1}, 2, 8)


def test_fit_result_is_frozen():
    result = fit({0: 1}, 0, 6)
    assert isinstance(result, QuasimodularFit)
    with pytest.raises(AttributeError):
        result.coefficients = {}


@st.composite
def eisenstein_polynomials(draw):
    """(max_weight, q_order, coefficient per basis monomial): weights up to
    10, q_order from the smallest the fit accepts to 6 beyond it."""
    max_weight = draw(st.sampled_from(range(0, 12, 2)))
    size = len(basis(max_weight, 0))
    smallest = size + OVERDETERMINATION_MARGIN
    q_order = draw(st.integers(smallest, smallest + 6))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=1000),
            min_size=size,
            max_size=size,
        )
    )
    return max_weight, q_order, coeffs


@settings(max_examples=60, deadline=None)
@given(poly=eisenstein_polynomials(), data=st.data())
def test_integer_fit_matches_fraction_reference(poly, data):
    max_weight, q_order, coeffs = poly
    rows = basis(max_weight, q_order)
    series = {
        d: sum(c * row[d] for c, (_, row) in zip(coeffs, rows)) for d in range(q_order + 1)
    }
    result = fit(series, max_weight, q_order)
    assert result.coefficients == {m: c for c, (m, _) in zip(coeffs, rows) if c != 0}
    reference = fit_reference(series, max_weight, q_order)
    assert result == reference
    assert repr(result) == repr(reference)  # ints where integral, in both
    # q^0 is the basis monomial 1, but no single q^d with d >= 1 lies in
    # the span at these orders: changing one such coefficient breaks the fit
    d = data.draw(st.integers(1, q_order))
    delta = data.draw(st.fractions(min_value=-5, max_value=5).filter(bool))
    perturbed = {**series, d: series[d] + delta}
    message = f"no polynomial of weight <= {max_weight} matches the series through q^{q_order}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(perturbed, max_weight, q_order)
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_reference(perturbed, max_weight, q_order)
