"""Tests for the series-built edge factors of the oracle and the arithmetic q-series."""

from fractions import Fraction

import pytest

from fixtures import TRIANGLE, RIGHT
from series_oracle import (
    EdgeContext,
    TruncationSpec,
    loop_propagator,
    propagator,
    vertex_loop_propagator,
    vertex_propagator,
)
from trofey.propagators import divisors, eisenstein_coefficients, sigma


def test_divisors_and_sigma():
    assert divisors(12) == (1, 2, 3, 4, 6, 12)
    assert sigma(6) == 12
    assert sigma(4, 3) == 1 + 8 + 64
    with pytest.raises(ValueError):
        divisors(0)


def test_edge_context_orientation():
    ctx = EdgeContext.from_graph(TRIANGLE, (2, 3, 1), 1)
    assert (ctx.tail, ctx.head) == (2, 1)  # vertex 2 comes first in the order
    loop = EdgeContext.from_graph(RIGHT, (1, 2, 3), 1)
    assert loop.is_loop and loop.tail == loop.head == 1


def test_propagator_direct_part_is_one_sided():
    # q^0 terms carry only positive powers of x_tail/x_head
    spec = TruncationSpec.make(x_bound=4, q_bounds={1: 3})
    p = propagator(EdgeContext(1, 1, 2), spec)
    for w in range(1, 5):
        assert p.coefficient({("x", 1): w, ("x", 2): -w}) == w
        assert p.coefficient({("x", 1): -w, ("x", 2): w}) == 0


def test_propagator_q_part_sums_divisors_both_directions():
    spec = TruncationSpec.make(x_bound=6, q_bounds={1: 6})
    p = propagator(EdgeContext(1, 1, 2), spec)
    for a in (1, 2, 4, 6):
        for w in divisors(a):
            assert p.coefficient({("x", 1): w, ("x", 2): -w, ("q", 1): a}) == w
            assert p.coefficient({("x", 1): -w, ("x", 2): w, ("q", 1): a}) == w
    # x-free q terms never occur on a non-loop edge
    assert p.coefficient({("q", 1): 3}) == 0


def test_loop_propagator_counts_divisor_sums():
    spec = TruncationSpec.make(q_bounds={2: 6})
    p = loop_propagator(EdgeContext(2, 1, 1), spec)
    assert p.constant_term() == 0
    for a in range(1, 7):
        assert p.coefficient({("q", 2): a}) == sigma(a)


def test_propagator_kind_guards():
    spec = TruncationSpec.make(x_bound=1, q_bounds={1: 1})
    with pytest.raises(ValueError):
        propagator(EdgeContext(1, 2, 2), spec)
    with pytest.raises(ValueError):
        loop_propagator(EdgeContext(1, 1, 2), spec)
    with pytest.raises(ValueError):
        vertex_propagator(EdgeContext(1, 2, 2), spec)
    with pytest.raises(ValueError):
        vertex_loop_propagator(EdgeContext(1, 1, 2), spec)


def test_vertex_propagator_reduces_to_plain_at_z0():
    spec = TruncationSpec.make(x_bound=3, q_bounds={1: 3}, z_bounds={1: 2, 2: 2})
    plain = propagator(EdgeContext(1, 1, 2), spec)
    dressed = vertex_propagator(EdgeContext(1, 1, 2), spec)
    z_free = dressed.filtered(lambda m: all(v[0] != "z" for v, _ in m))
    assert z_free == plain


def test_vertex_propagator_z2_coefficient():
    # the w-winding term is dressed by S(w z_t) S(w z_h); the z_t^2
    # coefficient of S(w z_t) is w^2/24
    spec = TruncationSpec.make(x_bound=3, q_bounds={1: 3}, z_bounds={1: 2, 2: 2})
    dressed = vertex_propagator(EdgeContext(1, 1, 2), spec)
    for w in (1, 2, 3):
        assert dressed.coefficient(
            {("x", 1): w, ("x", 2): -w, ("z", 1): 2}
        ) == w * Fraction(w * w, 24)
    # both endpoint dressings multiply: z_t^2 z_h^2 picks up (w^2/24)^2
    assert dressed.coefficient(
        {("x", 1): 2, ("x", 2): -2, ("q", 1): 2, ("z", 1): 2, ("z", 2): 2}
    ) == 2 * Fraction(4, 24) ** 2


def test_vertex_loop_propagator_squares_one_dressing():
    spec = TruncationSpec.make(q_bounds={1: 4}, z_bounds={1: 2})
    dressed = vertex_loop_propagator(EdgeContext(1, 1, 1), spec)
    for a in range(1, 5):
        assert dressed.coefficient({("q", 1): a}) == sigma(a)
        # z^2 picks up sum over w|a of w * 2*(w^2/24)
        want = sum(w * 2 * Fraction(w * w, 24) for w in divisors(a))
        assert dressed.coefficient({("q", 1): a, ("z", 1): 2}) == want


def test_eisenstein_expansions():
    assert eisenstein_coefficients(2, 4) == [1, -24, -72, -96, -168]
    assert eisenstein_coefficients(4, 3) == [1, 240, 2160, 6720]
    assert eisenstein_coefficients(6, 3) == [1, -504, -16632, -122976]
    with pytest.raises(ValueError):
        eisenstein_coefficients(8, 3)
