"""Tests for the refined coefficient-extraction engine.

The fast engine works on per-edge q-slices with reachability pruning;
``refined_coeff_reference`` (in ``series_oracle``) multiplies full
truncated propagator series.
Agreement between the two on randomized instances is the core oracle
here, next to a handful of frozen values.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from series_oracle import refined_coeff_reference
from trofey import integrals
from trofey.graphs import (
    FeynmanGraph,
    all_orders,
    enumerate_graphs,
    identity_order,
    orientation_classes,
)
from trofey.integrals import (
    integral_series_all_orders,
    integral_series_q,
    integral_series_refined,
    mirror_total_series,
    multidegrees,
    refined_coeff,
    refined_sweep,
)

TRIANGLE = FeynmanGraph(3, ((1, 2), (2, 3), (1, 3)))
RIGHT = FeynmanGraph(3, ((1, 1), (1, 2), (2, 3), (1, 3)))
MIDDLE = FeynmanGraph(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
THETA = FeynmanGraph(2, ((1, 2), (1, 2), (1, 2)))
DBL_DBL = FeynmanGraph(4, ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4)))
ID3 = identity_order(3)


def refined_table_by_coeff(graph, order, q_order, l=None, gf=None):
    """One refined_coeff per multidegree, to compare with integral_series_refined.

    Both run on the same DP, so this checks the grade bookkeeping (degree
    sets, total cap, multidegree keys), not the DP itself.  The code-disjoint
    checks are criteria 07/08 (the cover route) and refined_coeff_reference
    (the full-series oracle).
    """
    table = {}
    for a in multidegrees(graph, q_order):
        value = refined_coeff(graph, order, a, l=l, gf=gf)
        if value != 0:
            table[a] = value
    return table


def test_frozen_triangle_coefficient():
    assert refined_coeff(TRIANGLE, ID3, (0, 0, 3), gf=(1, 0, 0)) == Fraction(115, 6)


def test_frozen_right_graph_coefficient():
    assert refined_coeff(RIGHT, ID3, (2, 0, 0, 1), gf=(0, 0, 0)) == 3


def test_loop_without_degree_vanishes():
    # a loop factor has no q^0 term, so any multidegree skipping a loop dies
    assert refined_coeff(RIGHT, ID3, (0, 1, 0, 2), gf=(0, 0, 0)) == 0


def test_unbalanced_leak_vanishes():
    # windings transport x-exponents; a nonzero total leak can never cancel
    assert refined_coeff(TRIANGLE, ID3, (0, 0, 2), l=(1, 0, 0)) == 0


def test_refined_coeff_normalizes_its_query_once(monkeypatch):
    calls = []
    normalize_query = integrals._normalize_query

    def counted(*args):
        calls.append(args)
        return normalize_query(*args)

    monkeypatch.setattr(integrals, "_normalize_query", counted)
    assert refined_coeff(TRIANGLE, ID3, (0, 0, 3), gf=(1, 0, 0)) == Fraction(115, 6)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"a": (0, 1)}, "multidegree must be 3 nonnegative integers"),
        ({"a": (0, -1, 1)}, "multidegree must be 3 nonnegative integers"),
        ({"l": (1, -1)}, "leak vector must have length 3"),
        ({"order": (1, 1, 2)}, "order must be a permutation of 1..3, got (1, 1, 2)"),
        ({"gf": (1, 0)}, "genus function must be n nonnegative integers"),
        ({"gf": (0, -1, 1)}, "genus function must be n nonnegative integers"),
        ({"order": (1, 2)}, "order must be a permutation of 1..3, got (1, 2)"),
    ],
)
def test_refined_coeff_bad_input_messages(kwargs, message):
    kwargs = {"order": ID3, "a": (0, 0, 1), **kwargs}
    with pytest.raises(ValueError) as info:
        refined_coeff(TRIANGLE, **kwargs)
    assert str(info.value).startswith(message)


def test_balanced_leak_example_matches_reference():
    for l in ((1, -1, 0), (0, 1, -1), (-1, 0, 1)):
        fast = refined_coeff(TRIANGLE, ID3, (1, 1, 0), l=l)
        slow = refined_coeff_reference(TRIANGLE, ID3, (1, 1, 0), l=l)
        assert fast == slow


@pytest.mark.parametrize(
    "graph, a, l, bound",
    [
        (TRIANGLE, (1, 2, 3), None, 3),  # every edge curled: max a_k
        (TRIANGLE, (0, 1, 1), (1, -1, 0), 4),  # an uncurled edge: sum(a) + sum|l|
        (RIGHT, (3, 1, 1, 1), None, 1),  # the loop counts 0, not its a_k = 3
    ],
)
def test_x_bound_boundary(graph, a, l, bound):
    # the largest pruning cap on |x-exponent| a one-multidegree pass builds to
    l = l or (0,) * graph.n
    assert refined_coeff(graph, ID3, a, l=l) != 0
    _, caps = integrals._winding_caps(graph, [(a_k,) for a_k in a], sum(a), l)
    assert max(caps) == bound


def test_refined_sweep_needs_a_leak_target():
    with pytest.raises(ValueError, match="at least one leak target"):
        refined_sweep(TRIANGLE, ID3, (0, 0, 1), [])


def test_multidegrees_force_loops_positive():
    assert set(multidegrees(RIGHT, 1)) == {(1, 0, 0, 0)}
    assert all(a[0] >= 1 for a in multidegrees(RIGHT, 2))
    assert list(multidegrees(RIGHT, 0)) == []
    assert set(multidegrees(THETA, 1)) == {
        (0, 0, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    }


@pytest.mark.parametrize("amax", [-1, 0, 1, 2, 3])
def test_multidegrees_is_the_lexicographic_box_below_amax(amax):
    # every a with a_k <= amax, sum(a) <= amax and a_k >= 1 on loops, in
    # lexicographic order
    for graph in (RIGHT, THETA, TRIANGLE, MIDDLE):
        box = itertools.product(range(amax + 1), repeat=graph.num_edges)
        expected = [
            a
            for a in box
            if sum(a) <= amax and all(a_k >= 1 for a_k, (u, v) in zip(a, graph.edges) if u == v)
        ]
        assert list(multidegrees(graph, amax)) == expected


def test_refined_sweep_matches_single_calls():
    targets = [(0, 0, 0), (1, -1, 0), (0, 1, -1), (1, 0, -1)]
    table = refined_sweep(TRIANGLE, ID3, (1, 0, 1), targets)
    for l in targets:
        assert table.get(l, 0) == refined_coeff(TRIANGLE, ID3, (1, 0, 1), l=l)


def test_dressed_leak_sweeps_match_reference():
    # refined_sweep, refined_coeff and integral_series_refined share one DP;
    # the full-series oracle shares no code with it.  Every order, two genus
    # functions (entries <= 1) per order, Σa <= 2, and all balanced ±1 leaks,
    # one pass per leak vector, so uncurled edges wind beyond Σa.
    cases = [
        (TRIANGLE, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (THETA, [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ]
    nonzero = 0
    for graph, gfs in cases:
        n = graph.n
        targets = [(0,) * n] + sorted(set(itertools.permutations((1, -1) + (0,) * (n - 2))))
        degrees = list(multidegrees(graph, 2))
        for i, order in enumerate(all_orders(n)):
            for j, gf in enumerate(gfs[i % 2 :: 2]):
                a = degrees[(3 * i + 5 * j + 1) % len(degrees)]
                table = refined_sweep(graph, order, a, targets, gf=gf)
                assert list(table) == targets
                for l in targets:
                    expected = refined_coeff_reference(graph, order, a, l=l, gf=gf)
                    assert table[l] == expected, (graph.edges, order, a, gf, l)
                    nonzero += expected != 0 and l != targets[0]
    assert nonzero >= 10


# (graph, order, multidegree, leak targets); genus 3 at the first vertex,
# which on RIGHT carries the loop, so the z-dressing runs to z^6 there
GENUS_THREE_CASES = [
    (TRIANGLE, (2, 3, 1), (1, 0, 0), [(0, 0, 0), (0, 1, -1)]),
    (TRIANGLE, (2, 3, 1), (0, 1, 1), [(0, 0, 0)]),
    (TRIANGLE, (2, 3, 1), (2, 0, 0), [(0, 0, 0), (0, 1, -1)]),
    (TRIANGLE, (2, 3, 1), (1, 1, 1), [(0, 0, 0)]),
    (TRIANGLE, (2, 3, 1), (3, 0, 0), [(0, 0, 0)]),
    (RIGHT, (2, 3, 1), (1, 1, 0, 0), [(0, 0, 0), (0, 1, -1)]),
]


def test_genus_three_mixed_genera_match_reference():
    # every scale K_g^m of the integer dressing in play at once: genus 3,
    # 1 and 0 in one graph, with and without leaks, through sum(a) <= 3;
    # the single-multidegree sweep and the series table share the DP, the
    # oracle shares no code with it
    gf = (3, 1, 0)
    nonzero = 0
    for graph, order, a, targets in GENUS_THREE_CASES:
        sweep = refined_sweep(graph, order, a, targets, gf=gf)
        for l in targets:
            expected = refined_coeff_reference(graph, order, a, l=l, gf=gf)
            table = integral_series_refined(graph, order, 3, l=l, gf=gf)
            assert sweep[l] == expected, (graph.edges, order, a, l)
            assert table.get(a, 0) == expected, (graph.edges, order, a, l)
            nonzero += expected != 0
    assert nonzero >= 8


def test_series_q_sums_multidegrees():
    series = integral_series_q(TRIANGLE, (1, 0, 0), ID3, 2)
    by_hand = {}
    for a in multidegrees(TRIANGLE, 2):
        d = sum(a)
        if d:
            by_hand[d] = by_hand.get(d, 0) + refined_coeff(TRIANGLE, ID3, a, gf=(1, 0, 0))
    assert {d: c for d, c in series.items() if d} == by_hand


def test_frozen_triangle_series():
    series = integral_series_q(TRIANGLE, (1, 0, 0), ID3, 4)
    assert series == {
        1: Fraction(1, 24),
        2: Fraction(5, 2),
        3: Fraction(39, 2),
        4: Fraction(278, 3),
    }


@settings(max_examples=40, deadline=None)
@given(
    graph=st.sampled_from([TRIANGLE, RIGHT, MIDDLE]),
    order=st.permutations([1, 2, 3]).map(tuple),
    gf=st.none() | st.tuples(*[st.integers(0, 2)] * 3),
    q_order=st.integers(0, 6),
)
def test_series_q_matches_refined_table(graph, order, gf, q_order):
    by_degree: dict[int, Fraction] = {}
    table = refined_table_by_coeff(graph, order, q_order, gf=gf)
    for a, value in table.items():
        by_degree[sum(a)] = by_degree.get(sum(a), 0) + value
    expected = {d: c for d, c in by_degree.items() if c != 0}
    assert integral_series_q(graph, gf, order, q_order) == expected


def test_all_orders_equals_explicit_sum():
    total = integral_series_all_orders(TRIANGLE, (1, 0, 0), 3)
    by_hand: dict[int, Fraction] = {}
    for order in all_orders(3):
        for d, c in integral_series_q(TRIANGLE, (1, 0, 0), order, 3).items():
            by_hand[d] = by_hand.get(d, 0) + c
    assert total == {d: c for d, c in by_hand.items() if c != 0}


def test_integral_series_refined_table():
    table = integral_series_refined(RIGHT, ID3, 2, gf=(0, 0, 0))
    # every key is a valid multidegree with a positive loop entry
    assert table, "series table should not be empty"
    for a, value in table.items():
        assert a[0] >= 1 and sum(a) <= 2
        assert value == refined_coeff(RIGHT, ID3, a, gf=(0, 0, 0))


@pytest.mark.parametrize(
    "graph, gf, q_order",
    [
        (TRIANGLE, (1, 0, 0), 4),
        (RIGHT, (0, 0, 0), 4),
        (RIGHT, (1, 0, 0), 3),
        (DBL_DBL, (0, 0, 0, 0), 4),
    ],
)
def test_refined_table_matches_coeff_on_every_class(graph, gf, q_order):
    # the a-keyed pass read at every multidegree with sum(a) <= q_order
    for order, _ in orientation_classes(graph):
        table = integral_series_refined(graph, order, q_order, gf=gf)
        assert table, (graph.edges, order)
        for a in multidegrees(graph, q_order):
            assert table.get(a, 0) == refined_coeff(graph, order, a, gf=gf), (order, a)
        assert set(table) <= set(multidegrees(graph, q_order))


@settings(max_examples=40, deadline=None)
@given(
    graph=st.sampled_from([TRIANGLE, RIGHT, MIDDLE, THETA]),
    data=st.data(),
)
def test_refined_table_matches_coeff_with_bounds_and_leaks(graph, data):
    # the bound is the total degree: sum(a) <= q_order
    n = graph.n
    order = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    q_order = data.draw(st.integers(0, 5))
    gf = data.draw(st.none() | st.tuples(*[st.integers(0, 1)] * n))
    l = None
    if data.draw(st.booleans()):
        i, j = data.draw(st.permutations(list(range(n))))[:2]
        w = data.draw(st.integers(1, 2))
        l = [0] * n
        l[i], l[j] = w, -w
    table = integral_series_refined(graph, order, q_order, l=l, gf=gf)
    assert table == refined_table_by_coeff(graph, order, q_order, l=l, gf=gf)


def test_refined_table_leaks_widen_the_winding_cap():
    # at a = 0 the leak (2,0,-2) needs winding 1 on every edge of the
    # triangle, beyond a cap of sum(a) = 0: the cap must add sum|l|
    for q_order in (0, 1, 2):
        table = integral_series_refined(TRIANGLE, ID3, q_order, l=(2, 0, -2))
        assert table[(0, 0, 0)] == 1
        assert table == refined_table_by_coeff(TRIANGLE, ID3, q_order, l=(2, 0, -2))


def test_mirror_total_series_frozen_values():
    assert mirror_total_series((2, 0, 0), 3) == {
        1: Fraction(1, 4),
        2: 27,
        3: 279,
    }


def test_mirror_total_series_four_points():
    # the cover route gives the same d=4 value
    assert mirror_total_series((1, 1, 1, 1), 4) == {2: 48, 3: 3840, 4: 58752}


# the two series of the benchmark's quasimodularity workload
SERIES_200 = (
    "1/4 27 279 1372 8775/2 11988 25382 54000 372357/4 171450 258093 442512 "
    "1207843/2 963144 1267650 1906624"
).split()
SERIES_TRIANGLE = (
    "0 1/4 15 117 556 3075/2 4428 8330 18480 121581/4 56250 80223 146160 "
    "370279/2 302232 395550 597184 1417545/2 1100547 1236425 1835400"
).split()


def pinned(values, first_d):
    return {d: Fraction(v) for d, v in enumerate(values, first_d) if v != "0"}


def test_mirror_total_series_through_q16():
    assert mirror_total_series((2, 0, 0), 16) == pinned(SERIES_200, 1)


def test_triangle_all_orders_through_q20():
    assert integral_series_all_orders(TRIANGLE, (1, 0, 0), 20) == pinned(SERIES_TRIANGLE, 0)


def test_by_degree_series_ascend():
    # as covers.invariant_series does; a first class with zeros at low d
    # used to put its higher degrees first
    assert list(mirror_total_series((1, 1, 1, 1), 4)) == [2, 3, 4]
    assert list(mirror_total_series((2, 0, 0), 3)) == [1, 2, 3]
    graph = FeynmanGraph(4, ((1, 3), (1, 4), (1, 4), (2, 3), (2, 3), (2, 4)))
    assert list(integral_series_all_orders(graph, None, 4)) == [2, 3, 4]
    assert list(integral_series_all_orders(TRIANGLE, (1, 0, 0), 3)) == [1, 2, 3]


def test_fast_engine_matches_reference_randomized():
    rng = random.Random(20260825)
    graphs = [a for k in ((1, 1), (2, 0, 0)) for a in enumerate_graphs(k)]
    checked = 0
    for _ in range(40):
        rep = rng.choice(graphs)
        graph, gf = rep.graph, rep.gf
        order = tuple(rng.sample(range(1, graph.n + 1), graph.n))
        a = [0] * graph.num_edges
        for idx, (u, v) in enumerate(graph.edges):
            lo = 1 if u == v else 0
            a[idx] = rng.randint(lo, 2)
        dressed = rng.random() < 0.5
        l = None
        if not dressed and graph.n >= 2 and rng.random() < 0.5:
            i, j = rng.sample(range(graph.n), 2)
            l = [0] * graph.n
            l[i], l[j] = 1, -1
        kwargs = {"gf": gf} if dressed else {"l": l}
        fast = refined_coeff(graph, order, tuple(a), **kwargs)
        slow = refined_coeff_reference(graph, order, tuple(a), **kwargs)
        assert fast == slow, (graph.edges, gf, order, a, l, dressed)
        if not dressed:
            # no genus function is genus 0 everywhere
            zero = refined_coeff(graph, order, tuple(a), l=l, gf=(0,) * graph.n)
            assert fast == zero, (graph.edges, order, a, l)
        checked += 1
    assert checked == 40
