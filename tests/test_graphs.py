"""Tests for multigraphs, vertex orders, automorphisms, and enumeration."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trofey.graphs import (
    FeynmanGraph,
    all_orders,
    automorphism_count,
    canonical_code,
    derived_k,
    edge_orientation,
    enumerate_graphs,
    enumerate_labeled_graphs,
    genus_from_descendants,
    graph_from_json_dict,
    graph_to_json_dict,
    identity_order,
    _orientation_signature,
    labeled_copy_count,
    orientation_classes,
    validate_assignment,
    weighted_classes,
)
from test_acceptance import SWEEP_KS

TRIANGLE = FeynmanGraph(3, ((1, 2), (2, 3), (1, 3)))
RIGHT = FeynmanGraph(3, ((1, 1), (1, 2), (2, 3), (1, 3)))
MIDDLE = FeynmanGraph(3, ((1, 2), (1, 2), (1, 3), (1, 3)))
THETA = FeynmanGraph(2, ((1, 2), (1, 2), (1, 2)))
DUMBBELL = FeynmanGraph(2, ((1, 1), (2, 2), (1, 2)))
K4 = FeynmanGraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
DBL_DBL = FeynmanGraph(4, ((1, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 4)))


def test_basic_counts():
    assert TRIANGLE.num_edges == 3
    assert TRIANGLE.num_loops == 0
    assert TRIANGLE.first_betti == 1
    assert RIGHT.num_loops == 1
    assert RIGHT.first_betti == 2
    assert THETA.first_betti == 2
    assert DUMBBELL.degrees() == (3, 3)
    assert RIGHT.degree(1) == 4  # the loop counts twice


def test_single_vertex_rejected():
    with pytest.raises(ValueError):
        FeynmanGraph(1, ((1, 1),))


def test_loops_must_come_first():
    with pytest.raises(ValueError):
        FeynmanGraph(3, ((1, 2), (1, 1), (2, 3), (1, 3)))


def test_endpoints_normalized():
    g = FeynmanGraph(3, ((2, 1), (3, 2), (3, 1)))
    assert g.edges == ((1, 2), (2, 3), (1, 3))


def test_graph_is_frozen_and_compares_by_value():
    g = FeynmanGraph(3, ((2, 1), (3, 2), (3, 1)))
    for name, value in (("n", 4), ("edges", ()), ("other", 1)):
        with pytest.raises(AttributeError):
            setattr(g, name, value)
    with pytest.raises(AttributeError):
        del g.n
    assert (g.n, g.edges) == (3, ((1, 2), (2, 3), (1, 3)))
    assert g == TRIANGLE and hash(g) == hash(TRIANGLE)
    assert g != RIGHT and g != (3, TRIANGLE.edges)
    assert len({g, TRIANGLE, RIGHT}) == 2
    assert repr(g) == "FeynmanGraph(n=3, edges=((1, 2), (2, 3), (1, 3)))"
    assert FeynmanGraph(n=2, edges=[(1, 2)]).edges == ((1, 2),)


def test_edge_order_is_preserved():
    # Parallel data (multidegrees, windings) is per-edge, so the caller's
    # edge order is meaningful and must survive construction.
    g = FeynmanGraph(3, ((2, 3), (1, 2), (1, 3)))
    assert g.edges == ((2, 3), (1, 2), (1, 3))


def test_genus_from_descendants():
    assert genus_from_descendants((2, 0, 0)) == 2
    assert genus_from_descendants((1, 1)) == 2
    assert genus_from_descendants((1, 1, 1, 1)) == 3
    assert genus_from_descendants((3, 1)) == 3


def test_derived_k_inverts_valence_relation():
    # val(v) = k_v + 2 - 2 gf_v on admissible assignments
    assert derived_k(TRIANGLE, (1, 0, 0)) == (2, 0, 0)
    assert derived_k(RIGHT, (0, 0, 0)) == (2, 0, 0)
    assert derived_k(MIDDLE, (0, 0, 0)) == (2, 0, 0)


def test_validate_assignment():
    assert validate_assignment(TRIANGLE, (1, 0, 0), (2, 0, 0)) == []
    assert validate_assignment(RIGHT, (0, 0, 0), (2, 0, 0)) == []
    # wrong k at vertex 1
    assert validate_assignment(TRIANGLE, (1, 0, 0), (1, 1, 0))
    # negative genus
    assert validate_assignment(TRIANGLE, (-1, 0, 0), (2, 0, 0))
    # length mismatch
    assert validate_assignment(TRIANGLE, (1, 0), (2, 0, 0))


def test_orders():
    assert identity_order(3) == (1, 2, 3)
    orders = list(all_orders(3))
    assert len(orders) == 6
    assert orders[0] == (1, 2, 3)  # identity first
    assert (2, 1, 3).index(1) == 1
    assert (2, 1, 3).index(2) == 0


def test_edge_orientation_follows_order():
    # tail = endpoint earlier in the order, head = later
    assert edge_orientation(TRIANGLE, 0, (1, 2, 3)) == (1, 2)
    assert edge_orientation(TRIANGLE, 0, (2, 1, 3)) == (2, 1)
    with pytest.raises(ValueError):
        edge_orientation(RIGHT, 0, (1, 2, 3))  # loops have no orientation


def test_vertex_labeled_automorphisms():
    # product over factorials of parallel-edge multiplicities and loop
    # slot counts; a single loop is one slot, so it contributes nothing
    assert automorphism_count(TRIANGLE) == 1
    assert automorphism_count(MIDDLE) == 4
    assert automorphism_count(THETA) == 6
    assert automorphism_count(RIGHT) == 1
    assert automorphism_count(DUMBBELL) == 1
    assert automorphism_count(FeynmanGraph(2, ((1, 1), (1, 1), (1, 2), (1, 2)))) == 4


@pytest.mark.parametrize("k", SWEEP_KS)
def test_automorphism_count_permutes_equal_edge_slots(k):
    # by definition: the edge-slot permutations that fix every slot's
    # endpoints, counted by brute force
    for a in enumerate_labeled_graphs(k):
        edges = a.graph.edges
        fixing = sum(
            1
            for perm in itertools.permutations(range(len(edges)))
            if all(edges[p] == e for p, e in zip(perm, edges))
        )
        assert automorphism_count(a.graph) == fixing, edges


def test_enumerate_labeled_graphs_k200():
    classes = enumerate_labeled_graphs((2, 0, 0))
    keys = {(a.graph.edges, a.gf) for a in classes}
    # the enumerator emits each class with its edges sorted
    assert keys == {
        (((1, 2), (1, 3), (2, 3)), (1, 0, 0)),
        (((1, 1), (1, 2), (1, 3), (2, 3)), (0, 0, 0)),
        (((1, 2), (1, 2), (1, 3), (1, 3)), (0, 0, 0)),
    }
    for a in classes:
        assert validate_assignment(a.graph, a.gf, (2, 0, 0)) == []


def test_enumerate_labeled_graphs_k11():
    classes = enumerate_labeled_graphs((1, 1))
    keys = {(a.graph.edges, a.gf) for a in classes}
    assert keys == {
        (THETA.edges, (0, 0)),
        (DUMBBELL.edges, (0, 0)),
        (((1, 2),), (1, 1)),
        (((1, 1), (1, 2)), (0, 1)),
        (((2, 2), (1, 2)), (1, 0)),  # same shape as the previous, relabeled
    }


def test_rejects_one_point_inputs():
    with pytest.raises(ValueError):
        enumerate_labeled_graphs((4,))


def test_enumeration_is_deterministic():
    first = [(a.graph.edges, a.gf) for a in enumerate_labeled_graphs((1, 1, 1, 1))]
    second = [(a.graph.edges, a.gf) for a in enumerate_labeled_graphs((1, 1, 1, 1))]
    assert first == second


def test_canonical_code_identifies_isomorphs():
    g1 = FeynmanGraph(3, ((1, 2), (2, 3), (1, 3)))
    g2 = FeynmanGraph(3, ((1, 3), (2, 3), (1, 2)))  # same triangle, edges permuted
    assert canonical_code(g1, (1, 0, 0)) == canonical_code(g2, (1, 0, 0))
    # moving the genus mark is a vertex relabeling, hence still isomorphic
    assert canonical_code(g1, (1, 0, 0)) == canonical_code(g1, (0, 1, 0))
    assert canonical_code(g1, (1, 0, 0)) != canonical_code(g1, (1, 1, 0))


def test_labeled_copy_count():
    # distinct labeled forms reachable by relabelings that preserve the
    # derived descendant vector; for the triangle k = (2,0,0) pins the
    # genus-carrying vertex, so there is a single labeled copy
    assert labeled_copy_count(TRIANGLE, (1, 0, 0)) == 1
    assert labeled_copy_count(THETA, (0, 0)) == 1
    # loop-plus-edge with k = (1,1): the loop may sit at either vertex
    assert labeled_copy_count(FeynmanGraph(2, ((1, 1), (1, 2))), (0, 1)) == 2


def test_enumerate_graphs_reps_cover_all_labeled_classes():
    for k in ((1, 1), (2, 0, 0), (2, 2)):
        labeled = enumerate_labeled_graphs(k)
        reps = enumerate_graphs(k)
        rep_codes = {canonical_code(a.graph, a.gf) for a in reps}
        assert len(rep_codes) == len(reps)  # reps are pairwise non-isomorphic
        assert {canonical_code(a.graph, a.gf) for a in labeled} == rep_codes
        # copy counts partition the labeled classes
        assert sum(labeled_copy_count(a.graph, a.gf) for a in reps) == len(labeled)


@pytest.mark.parametrize("k", SWEEP_KS)
def test_weighted_classes_visit_each_orbit_once(k):
    labeled = enumerate_labeled_graphs(k)
    classes = list(weighted_classes(k))
    # the weights total the labeled graph sum of n! / |Aut_vl|
    assert sum(weight for *_, weight in classes) == sum(
        Fraction(factorial(len(k)), automorphism_count(a.graph)) for a in labeled
    )
    # representatives: the first labeled member of each isomorphism class,
    # in enumeration order, with every orientation class weighted by its
    # size * labeled copies / |Aut_vl|
    first: dict[tuple, int] = {}
    for i, a in enumerate(labeled):
        first.setdefault(canonical_code(a.graph, a.gf), i)
    expected = []
    for i in sorted(first.values()):
        graph, gf = labeled[i].graph, labeled[i].gf
        copies, aut = labeled_copy_count(graph, gf), automorphism_count(graph)
        for order, size in orientation_classes(graph):
            expected.append((graph, gf, order, Fraction(size * copies, aut)))
    assert classes == expected
    # enumerate_graphs keeps its old output: those members, by canonical code
    assert enumerate_graphs(k) == [labeled[i] for _, i in sorted(first.items())]


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 4))))
def test_orientation_consistent_with_positions(perm):
    order = tuple(perm)
    for idx in range(TRIANGLE.num_edges):
        tail, head = edge_orientation(TRIANGLE, idx, order)
        assert order.index(tail) < order.index(head)


def test_json_round_trip():
    data = graph_to_json_dict(RIGHT, (0, 0, 0))
    graph, gf, relabeling = graph_from_json_dict(data)
    assert graph == RIGHT
    assert gf == (0, 0, 0)
    assert relabeling is None


def test_json_resorts_loops_first():
    graph, gf, relabeling = graph_from_json_dict(
        {"n": 3, "edges": [[1, 2], [1, 1], [2, 3], [1, 3]]}
    )
    assert graph == RIGHT
    assert gf is None
    assert relabeling == [2, 1, 3, 4]  # new position i held original edge relabeling[i]


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": [[1, 2]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 2, "edges": [[1, 3]]})
    with pytest.raises(ValueError):
        graph_from_json_dict({"n": 2, "edges": [[1, 2]], "genus": [0]})


@pytest.mark.parametrize(
    "graph, n_classes",
    [(K4, 24), (THETA, 2), (MIDDLE, 4), (DBL_DBL, 14), (DUMBBELL, 2)],
)
def test_orientation_classes_match_signature_grouping(graph, n_classes):
    groups: dict[tuple, list] = {}
    for order in all_orders(graph.n):
        groups.setdefault(_orientation_signature(graph, order), []).append(order)
    classes = orientation_classes(graph)
    assert len(classes) == n_classes
    assert sum(count for _, count in classes) == len(list(all_orders(graph.n)))
    # each representative is the first order of its group, counts are group sizes
    assert sorted(classes) == sorted((members[0], len(members)) for members in groups.values())
