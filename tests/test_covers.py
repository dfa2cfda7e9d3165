"""Tests for cover enumeration and the cover-route invariants."""

from fractions import Fraction

import pytest

from trofey.covers import (
    CURLED,
    DIRECT,
    LOOP,
    cover_count,
    cover_count_by_windings,
    descendant_contribution,
    descendant_contribution_by_windings,
    enumerate_tuples,
    fixed_order_series,
    invariant,
    invariant_fixed_order,
    invariant_series,
    one_point_mult,
)
from trofey.graphs import FeynmanGraph, all_orders, identity_order

TRIANGLE = FeynmanGraph(3, ((1, 2), (2, 3), (1, 3)))
RIGHT = FeynmanGraph(3, ((1, 1), (1, 2), (2, 3), (1, 3)))
THETA = FeynmanGraph(2, ((1, 2), (1, 2), (1, 2)))
DUMBBELL = FeynmanGraph(2, ((1, 1), (2, 2), (1, 2)))
EDGE = FeynmanGraph(2, ((1, 2),))
ID2 = identity_order(2)
ID3 = identity_order(3)


# -- tuple enumeration, hand-checked ---------------------------------------


def test_single_direct_edge_needs_leaks():
    # balance at vertex 1 forces w = l_1 on the unique outgoing edge
    assert enumerate_tuples(EDGE, ID2, (0,)) == []
    tuples = enumerate_tuples(EDGE, ID2, (0,), l=(2, -2))
    assert len(tuples) == 1
    t = tuples[0]
    assert t.windings == (2,) and t.arrows == ((1, 2),) and t.kinds == (DIRECT,)
    # a direct edge cannot point against the vertex order
    assert enumerate_tuples(EDGE, ID2, (0,), l=(-1, 1)) == []


def test_theta_balance_hand_count():
    # a = (2,0,0): the marked edge must carry w=2 against the two direct
    # edges of winding 1 each; weight 2*1*1
    tuples = enumerate_tuples(THETA, ID2, (2, 0, 0))
    assert len(tuples) == 1
    t = tuples[0]
    assert t.windings == (2, 1, 1)
    assert t.kinds == (CURLED, DIRECT, DIRECT)
    assert t.arrows[0] == (2, 1)  # curled against the order
    assert cover_count(THETA, ID2, (2, 0, 0)) == 2
    # a = (1,1,0): both marked edges must run backwards with w=1, the
    # direct edge carries w=2
    assert cover_count(THETA, ID2, (1, 1, 0)) == 2
    # the all-zero multidegree cannot balance
    assert cover_count(THETA, ID2, (0, 0, 0)) == 0


def test_dumbbell_loops_do_not_transport():
    # loops never move flow, so the lone connecting edge can never balance
    # at zero leaks, whatever its degree: the dumbbell drops out entirely
    assert enumerate_tuples(DUMBBELL, ID2, (1, 1, 0)) == []
    assert cover_count(DUMBBELL, ID2, (1, 1, 1)) == 0
    # a leak pair absorbs the connecting winding
    tuples = enumerate_tuples(DUMBBELL, ID2, (1, 1, 1), l=(1, -1))
    assert len(tuples) == 1
    assert tuples[0].kinds == (LOOP, LOOP, CURLED)
    assert tuples[0].arrows[2] == (1, 2)


def test_loop_winding_divides_degree():
    tuples = enumerate_tuples(DUMBBELL, ID2, (4, 1, 2), l=(2, -2))
    loop_windings = {t.windings[0] for t in tuples}
    assert loop_windings == {1, 2, 4}
    # every tuple carries the forced w=2 on the connecting edge
    assert {t.windings[2] for t in tuples} == {2}


def test_cover_count_by_windings_keys_marked_edges():
    table = cover_count_by_windings(RIGHT, ID3, (2, 0, 0, 1))
    assert table == {(1, 1): 1, (2, 1): 2}
    assert sum(table.values()) == cover_count(RIGHT, ID3, (2, 0, 0, 1))


# -- one-point multiplicities ----------------------------------------------


def test_one_point_values():
    assert one_point_mult((3,), (3,), 2) == Fraction(17, 24)
    assert one_point_mult((1,), (1,), 2) == Fraction(1, 24)
    assert one_point_mult((1,), (1,), 0) == 1
    # k + 2 - parts = 0 forces the z^0 coefficient, which is always 1
    assert one_point_mult((2, 1), (3,), 1) == 1
    assert one_point_mult((2, 1), (3,), 3) == Fraction(13, 24)


def test_one_point_parity_vanishing():
    # genus bookkeeping kills odd k + len(mu) + len(nu)
    assert one_point_mult((2,), (2,), 1) == 0
    assert one_point_mult((1, 1), (2,), 2) == 0
    assert one_point_mult((3,), (3,), 3) == 0


def test_one_point_rejects_garbage():
    with pytest.raises(ValueError):
        one_point_mult((0,), (1,), 2)
    with pytest.raises(ValueError):
        one_point_mult((1,), (1,), -1)


# -- descendant contributions ----------------------------------------------


def test_triangle_contribution_by_windings():
    # q_3-degree 3 splits into a w=1 and a w=3 cover class
    table = descendant_contribution_by_windings(
        TRIANGLE, (1, 0, 0), ID3, (0, 0, 3), (2, 0, 0)
    )
    assert table == {(1,): Fraction(1, 24), (3,): Fraction(153, 8)}
    assert sum(table.values()) == Fraction(115, 6)
    assert descendant_contribution(
        TRIANGLE, (1, 0, 0), ID3, (0, 0, 3), (2, 0, 0)
    ) == Fraction(115, 6)


def test_contribution_requires_valid_assignment():
    with pytest.raises(ValueError):
        descendant_contribution(TRIANGLE, (0, 0, 0), ID3, (0, 0, 3), (2, 0, 0))


def test_fixed_order_series_divides_vertex_labeled_aut():
    # the doubled-pair graph has 4 vertex-labeled automorphisms; its raw
    # id-order series starts 4 q^2, so the class series starts q^2
    middle = FeynmanGraph(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
    series = fixed_order_series(middle, (0, 0, 0), ID3, (2, 0, 0), 2)
    assert series == {2: 1}


# -- assembled invariants ---------------------------------------------------


def test_invariant_values_k200():
    assert invariant((2, 0, 0), 1) == Fraction(1, 4)
    assert invariant((2, 0, 0), 2) == 27
    assert invariant((2, 0, 0), 3) == 279


def test_invariant_identity_slice():
    assert invariant_fixed_order((2, 0, 0), 3, ID3) == Fraction(93, 2)


def test_invariant_series_matches_pointwise():
    assert invariant_series((2, 0, 0), 3) == {
        1: Fraction(1, 4),
        2: 27,
        3: 279,
    }


@pytest.mark.parametrize(
    "k, q_order", [((2, 0, 0), 4), ((1, 1), 4), ((2, 2), 2), ((2, 1, 1), 2)]
)
def test_invariant_series_equals_sum_of_order_slices(k, q_order):
    # the one-pass series (orientation classes weighted by size) against the
    # per-degree, per-order definition
    expected = {}
    for d in range(1, q_order + 1):
        value = sum(invariant_fixed_order(k, d, order) for order in all_orders(len(k)))
        if value != 0:
            expected[d] = value
    assert invariant_series(k, q_order) == expected


def test_invariant_values_k11():
    assert [invariant((1, 1), d) for d in (1, 2, 3, 4)] == [0, 4, 32, 120]


def test_invariant_rejects_one_point():
    with pytest.raises(ValueError):
        invariant((4,), 1)
