"""Tests for cover enumeration and the cover-route invariants."""

import ast
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import TRIANGLE, RIGHT, THETA, DUMBBELL, EDGE, ID2, ID3
from covers_oracle import enumerate_tuples_reference, split_by_windings
from test_acceptance import class_representatives
from trofey.covers import (
    cover_count,
    cover_table,
    descendant_contribution,
    enumerate_tuples,
    invariant,
    invariant_fixed_order,
    invariant_series,
    one_point_mult,
)
from trofey.graphs import (
    all_orders,
    enumerate_labeled_graphs,
    identity_order,
    orientation_classes,
)
from trofey.fock import fock_cover_count, labeled_matrix_element
from trofey.integrals import (
    integral_series_q,
    integral_series_refined,
    mirror_total_series,
    multidegrees,
    refined_coeff,
    refined_sweep,
)


# -- tuple enumeration, hand-checked ---------------------------------------


def test_single_direct_edge_needs_leaks():
    # balance at vertex 1 forces w = l_1 on the unique outgoing edge
    assert enumerate_tuples(EDGE, ID2, (0,)) == []
    tuples = enumerate_tuples(EDGE, ID2, (0,), l=(2, -2))
    assert len(tuples) == 1
    a, windings, arrows = tuples[0]
    assert windings == (2,) and arrows == ((1, 2),)
    assert a == (0,)  # direct: a non-loop edge at a_k = 0, pointing along the order
    # a direct edge cannot point against the vertex order
    assert enumerate_tuples(EDGE, ID2, (0,), l=(-1, 1)) == []


def test_theta_balance_hand_count():
    # a = (2,0,0): the marked edge must carry w=2 against the two direct
    # edges of winding 1 each; weight 2*1*1
    tuples = enumerate_tuples(THETA, ID2, (2, 0, 0))
    assert len(tuples) == 1
    a, windings, arrows = tuples[0]
    assert windings == (2, 1, 1)
    # edge 1 curls (a_1 > 0); edges 2 and 3 are direct (a_k = 0) along the order
    assert a == (2, 0, 0) and arrows[1:] == ((1, 2), (1, 2))
    assert arrows[0] == (2, 1)  # curled against the order
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
    a, _, arrows = tuples[0]
    # two loops (arrow (v, v)) and a curled connecting edge (a_3 > 0)
    assert arrows[:2] == ((1, 1), (2, 2)) and a[2] > 0
    assert arrows[2] == (1, 2)


def test_loop_winding_divides_degree():
    tuples = enumerate_tuples(DUMBBELL, ID2, (4, 1, 2), l=(2, -2))
    loop_windings = {windings[0] for _, windings, _ in tuples}
    assert loop_windings == {1, 2, 4}
    # every tuple carries the forced w=2 on the connecting edge
    assert {windings[2] for _, windings, _ in tuples} == {2}


def test_cover_count_by_windings_keys_marked_edges():
    table = split_by_windings(RIGHT, ID3, (2, 0, 0, 1))
    assert table == {(1, 1): 1, (2, 1): 2}
    assert sum(table.values()) == cover_count(RIGHT, ID3, (2, 0, 0, 1))


ORACLE_GRAPHS = [
    assignment.graph
    for k in ((2, 0, 0), (1, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    for assignment in enumerate_labeled_graphs(k)
]


@settings(max_examples=500, deadline=None)
@given(graph=st.sampled_from(ORACLE_GRAPHS), data=st.data())
def test_enumerate_tuples_matches_product_then_solve_oracle(graph, data):
    # the vertex-order pass against the old product-then-solve enumeration:
    # the same covers, as a multiset (the list order is not specified)
    n, r = graph.n, graph.num_edges
    order = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
    a = [0] * r
    for idx, step in data.draw(st.lists(st.tuples(st.integers(0, r - 1), st.integers(1, 4)))):
        if sum(a) + step <= 4:
            a[idx] += step
    l = list(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    kind = data.draw(st.sampled_from(["zero", "balanced", "unbalanced"]))
    if kind == "zero":
        l = None
    elif kind == "balanced":
        l[-1] -= sum(l)
    elif sum(l) == 0:
        l[0] += 1
    covers = Counter(enumerate_tuples(graph, order, a, l))
    assert covers == Counter(enumerate_tuples_reference(graph, order, a, l))
    assert all(count == 1 for count in covers.values())


def test_enumerate_tuples_matches_oracle_on_every_small_case():
    # every graph of k = (1,1) and (2,0,0) (loops included), every order,
    # every a with sum(a) <= 4, zero leaks and every (+w, -w) pair, w <= 2
    for k in ((1, 1), (2, 0, 0)):
        for graph, _ in class_representatives(k):
            n = graph.n
            leaks = [None] + [
                tuple(w if v == i else -w if v == j else 0 for v in range(n))
                for i in range(n) for j in range(n) if i != j for w in (1, 2)
            ]
            for order in all_orders(n):
                for a in multidegrees(graph, 4):
                    for l in leaks:
                        assert Counter(enumerate_tuples(graph, order, a, l)) == Counter(
                            enumerate_tuples_reference(graph, order, a, l)
                        ), (graph.edges, order, a, l)


@pytest.mark.parametrize("k", [(2, 0, 0), (1, 1), (2, 1, 1), (1, 1, 1, 1)])
def test_cover_table_equals_integral_table(k):
    # one cover pass per (labeled graph, orientation class) against the
    # code-disjoint integral DP, entry by entry, absent entries read as 0
    for assignment in enumerate_labeled_graphs(k):
        graph, gf = assignment.graph, assignment.gf
        for order, _ in orientation_classes(graph):
            covers = cover_table(graph, order, 3, k)
            integral = integral_series_refined(graph, order, 3, gf=gf)
            assert 0 not in covers.values() and 0 not in integral.values()
            for a in set(covers) | set(integral):
                assert covers.get(a, 0) == integral.get(a, 0), (graph.edges, order, a)


@pytest.mark.parametrize("graph", [THETA, RIGHT, DUMBBELL, TRIANGLE])
def test_cover_table_reads_cover_count(graph):
    for order in all_orders(graph.n):
        table = cover_table(graph, order, 4)
        assert all(sum(a) <= 4 for a in table)
        for a in set(table) | {tuple(0 for _ in graph.edges)}:
            assert table.get(a, 0) == cover_count(graph, order, a), (order, a)


def test_cover_route_imports_nothing_from_integrals():
    # the cover route is the code-disjoint check of the integral route
    src = Path(__file__).resolve().parents[1] / "src" / "trofey"

    def imports(module, other):
        """Does trofey/<module>.py import trofey.<other> or a name from it?"""
        target = f"trofey.{other}"
        for node in ast.walk(ast.parse((src / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom):
                base = (("trofey." if node.level else "") + (node.module or "")).rstrip(".")
                names = [base] + [f"{base}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name == target or name.startswith(target + ".") for name in names):
                return True
        return False

    assert not imports("covers", "integrals")
    assert not imports("integrals", "covers")
    assert imports("cli", "integrals") and imports("fock", "covers")  # the check can see


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
    table = split_by_windings(TRIANGLE, ID3, (0, 0, 3), k=(2, 0, 0))
    assert table == {(1,): Fraction(1, 24), (3,): Fraction(153, 8)}
    assert sum(table.values()) == Fraction(115, 6)
    assert descendant_contribution(
        TRIANGLE, (1, 0, 0), ID3, (0, 0, 3), (2, 0, 0)
    ) == Fraction(115, 6)


def test_contribution_requires_valid_assignment():
    with pytest.raises(ValueError):
        descendant_contribution(TRIANGLE, (0, 0, 0), ID3, (0, 0, 3), (2, 0, 0))


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
    "k, q_order",
    [((2, 0, 0), 4), ((1, 1), 4), ((2, 2), 2), ((2, 1, 1), 2), ((1, 1, 1, 1), 3), ((3, 1), 4)],
)
def test_invariant_series_equals_sum_of_order_slices(k, q_order):
    # both routes' graph-class sums (one isomorphism class per orbit, weighted
    # by labeled copies) against the labeled, per-degree, per-order definition
    expected = {}
    for d in range(1, q_order + 1):
        value = sum(invariant_fixed_order(k, d, order) for order in all_orders(len(k)))
        if value != 0:
            expected[d] = value
    assert invariant_series(k, q_order) == expected
    assert mirror_total_series(k, q_order) == expected


# every per-(graph, order) entry point of the three routes, called as
# call(order, a, l), with the query parts it takes: multidegree, leaks
QUERY_ENTRY_POINTS = [
    ("enumerate_tuples", TRIANGLE, "al", lambda o, a, l: enumerate_tuples(TRIANGLE, o, a, l)),
    ("cover_count", TRIANGLE, "al", lambda o, a, l: cover_count(TRIANGLE, o, a, l)),
    (
        "descendant_contribution",
        TRIANGLE,
        "a",
        lambda o, a, l: descendant_contribution(TRIANGLE, (0, 0, 0), o, a, (0, 0, 0)),
    ),
    ("refined_coeff", TRIANGLE, "al", lambda o, a, l: refined_coeff(TRIANGLE, o, a, l)),
    ("refined_sweep", TRIANGLE, "al", lambda o, a, l: refined_sweep(TRIANGLE, o, a, [l])),
    ("integral_series_q", TRIANGLE, "", lambda o, a, l: integral_series_q(TRIANGLE, None, o, 2)),
    (
        "integral_series_refined",
        TRIANGLE,
        "l",
        lambda o, a, l: integral_series_refined(TRIANGLE, o, 2, l),
    ),
    ("fock_cover_count", THETA, "a", lambda o, a, l: fock_cover_count(THETA, o, a)),
    (
        "labeled_matrix_element",
        THETA,
        "a",
        lambda o, a, l: labeled_matrix_element(THETA, o, a, {}),
    ),
]


def _bad_queries():
    """A repeated order entry, an order of the wrong length, a short
    multidegree and a short leak vector, at each entry point taking them."""
    for name, graph, takes, call in QUERY_ENTRY_POINTS:
        n, r = graph.n, graph.num_edges
        cases = [
            ("repeated-order", 0, (1,) + tuple(range(1, n)), f"permutation of 1..{n}"),
            ("long-order", 0, tuple(range(1, n + 2)), f"permutation of 1..{n}"),
        ]
        if "a" in takes:
            cases.append(("short-a", 1, (0,) * (r - 1), f"multidegree must be {r} nonnegative"))
        if "l" in takes:
            cases.append(("short-l", 2, (0,) * (n - 1), f"leak vector must have length {n}"))
        for case, slot, value, message in cases:
            args = [identity_order(n), (0,) * r, (0,) * n]
            args[slot] = value
            yield pytest.param(partial(call, *args), message, id=f"{name}-{case}")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: invariant_series((2, 0, 0), -1), "q-order must be >= 0"),
        (lambda: mirror_total_series((2, 0, 0), -1), "q-order must be >= 0"),
        (lambda: invariant_series((1, 2), 0), "must be even"),
        (lambda: mirror_total_series((1, 2), 0), "must be even"),
        (lambda: invariant_fixed_order((2, 0, 0), 0, ID3), "degree must be >= 1"),
        (lambda: invariant_fixed_order((2, 0, 0), 1, (1, 1, 2)), "permutation of 1..3"),
        (lambda: invariant_fixed_order((2, 0, 0), 1, (1, 2)), "permutation of 1..3"),
        (lambda: integral_series_refined(TRIANGLE, ID3, -1), "q-order must be >= 0"),
        *_bad_queries(),
    ],
)
def test_route_entry_points_reject_bad_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_invariant_series_six_points():
    # also the completed-cycles value, which shares no code with the graph routes
    assert invariant_series((1,) * 6, 2) == {2: 1440}


def test_invariant_series_1111_through_d4():
    assert invariant_series((1, 1, 1, 1), 4) == {2: 48, 3: 3840, 4: 58752}


def test_invariant_values_k11():
    assert [invariant((1, 1), d) for d in (1, 2, 3, 4)] == [0, 4, 32, 120]


def test_invariant_rejects_one_point():
    with pytest.raises(ValueError):
        invariant((4,), 1)
