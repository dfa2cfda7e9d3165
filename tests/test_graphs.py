"""Tests for multigraphs, vertex orders, automorphisms, and enumeration."""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import TRIANGLE, RIGHT, MIDDLE, THETA, DUMBBELL, DBL_DBL, K4, SWEEP_KS
from trofey.graphs import (
    FeynmanGraph,
    all_orders,
    automorphism_count,
    enumerate_labeled_graphs,
    genus_from_descendants,
    graph_from_json_dict,
    graph_sum,
    identity_order,
    orientation,
    orientation_classes,
    validate_assignment,
    weighted_classes,
)
from test_acceptance import canonical_code, class_representatives, order_orbits


def test_basic_counts():
    assert TRIANGLE.num_edges == 3
    assert TRIANGLE.num_loops == 0
    assert RIGHT.num_loops == 1
    assert DUMBBELL.degrees() == (3, 3)
    assert RIGHT.degrees() == (4, 2, 2)  # the loop counts twice
    # every enumerated class is admissible, which is why weighted_classes
    # and invariant_fixed_order do not validate the walk's output again,
    # and has total genus g: first Betti number #edges - #vertices + 1
    # plus the vertex genera
    for k in SWEEP_KS + [(1,) * 6]:
        classes = enumerate_labeled_graphs(k)
        assert classes
        for a in classes:
            assert validate_assignment(a.graph, a.gf, k) == [], (k, a)
            betti = a.graph.num_edges - a.graph.n + 1
            assert betti + sum(a.gf) == genus_from_descendants(k), (k, a)


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
    def derived_k(graph, gf):
        return tuple(d - 2 + 2 * g for d, g in zip(graph.degrees(), gf))

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
    assert orientation(TRIANGLE, (1, 2, 3)) == ((1, 2), (2, 3), (1, 3))
    assert orientation(TRIANGLE, (2, 1, 3)) == ((2, 1), (2, 3), (1, 3))
    assert orientation(RIGHT, (3, 2, 1)) == ((1, 1), (2, 1), (3, 2), (3, 1))  # a loop is (v, v)


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


def _brute_force_labeled(k):
    """(edges, gf) of every connected labeled graph for k, by trying every
    genus function, loop count and pair multiplicity in range and keeping
    those whose degrees are k_v + 2 - 2 g_v; sorted by (gf, loops,
    multiplicities)."""
    n, g = len(k), (sum(k) + 2) // 2
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    found = []
    for gf in itertools.product(*(range((kv + 1) // 2 + 1) for kv in k)):
        if sum(gf) > g:
            continue
        valency = [kv + 2 - 2 * gv for kv, gv in zip(k, gf)]
        loop_ranges = [range(val // 2 + 1) for val in valency]
        pair_ranges = [range(min(valency[u - 1], valency[v - 1]) + 1) for u, v in pairs]
        for loops in itertools.product(*loop_ranges):
            for mults in itertools.product(*pair_ranges):
                degree = [2 * count for count in loops]
                for (u, v), m in zip(pairs, mults):
                    degree[u - 1] += m
                    degree[v - 1] += m
                if degree != valency:
                    continue
                # each sweep adds the neighbours of what is reached: n - 1
                # sweeps reach every vertex of a connected graph
                links = [{u, v} for (u, v), m in zip(pairs, mults) if m]
                reached = {1}
                for _ in range(n - 1):
                    reached = reached.union(*(link for link in links if link & reached))
                if len(reached) == n:
                    edges = [(v, v) for v, count in enumerate(loops, 1) for _ in range(count)]
                    edges += [pair for pair, m in zip(pairs, mults) for _ in range(m)]
                    found.append(((gf, loops, mults), (tuple(edges), gf)))
    return [entry for _, entry in sorted(found)]


@pytest.mark.parametrize("k", SWEEP_KS + [(2, 1, 1)])
def test_enumeration_order_matches_brute_force(k):
    # the slot walk emits exactly the brute-force list, in its order
    assert [(a.graph.edges, a.gf) for a in enumerate_labeled_graphs(k)] == _brute_force_labeled(k)


def test_enumeration_is_deterministic():
    first = [(a.graph.edges, a.gf) for a in enumerate_labeled_graphs((1, 1, 1, 1))]
    second = [(a.graph.edges, a.gf) for a in enumerate_labeled_graphs((1, 1, 1, 1))]
    assert first == second


def test_graph_sum_totals_weighted_tables_by_degree():
    # a multidegree counts at d = sum(a) and a d-keyed table at d; degrees
    # come out ascending, and a degree whose weighted sum cancels is dropped
    by_multidegree = {(0, 3): 4, (1, 0): 2, (0, 2): 1, (1, 1): 1}
    parts = iter([(by_multidegree, Fraction(1, 2)), ({2: Fraction(-1, 3), 1: 1}, 3)])
    total = graph_sum(parts)
    assert total == {1: 4, 3: 2}
    assert list(total) == [1, 3]
    assert graph_sum([]) == {}


@pytest.mark.parametrize("k", SWEEP_KS)
def test_weighted_classes_visit_each_orbit_once(k):
    labeled = enumerate_labeled_graphs(k)
    classes = list(weighted_classes(k))
    # the weights total the labeled graph sum of n! / |Aut_vl|
    assert sum(weight for *_, weight in classes) == sum(
        Fraction(factorial(len(k)), automorphism_count(a.graph)) for a in labeled
    )
    # representatives: the first labeled member of each isomorphism class
    # (equal canonical codes), in enumeration order, with every orbit of
    # vertex orders under its symmetries and reversal (the test-side
    # search) weighted by its size * labeled copies / |Aut_vl|, where the
    # labeled copies are the members that share the representative's code
    codes = [canonical_code(a.graph, a.gf) for a in labeled]
    first: dict[tuple, int] = {}
    for i, code in enumerate(codes):
        first.setdefault(code, i)
    expected = []
    for i in sorted(first.values()):
        graph, gf = labeled[i].graph, labeled[i].gf
        copies, aut = codes.count(codes[i]), automorphism_count(graph)
        for members in order_orbits(graph, gf):
            expected.append((graph, gf, members[0], Fraction(len(members) * copies, aut)))
    assert classes == expected
    # the criteria sweeps read those members, by canonical code
    assert class_representatives(k) == [
        (labeled[i].graph, labeled[i].gf) for _, i in sorted(first.items())
    ]


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 4))))
def test_orientation_consistent_with_positions(perm):
    order = tuple(perm)
    for tail, head in orientation(TRIANGLE, order):
        assert order.index(tail) < order.index(head)


def test_json_round_trip():
    data = {"n": 3, "edges": [[1, 1], [1, 2], [2, 3], [1, 3]], "genus": [0, 0, 0]}
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
    with pytest.raises(ValueError, match="graph is not connected"):
        graph_from_json_dict({"n": 3, "edges": [[1, 2]]})
    with pytest.raises(ValueError, match="graph is not connected"):
        graph_from_json_dict({"n": 10**12, "edges": [[1, 2]]})


def test_too_few_edges_are_disconnected_without_size_n_work():
    # a connected graph has a spanning tree, n - 1 non-loop edges at least;
    # at n = 10**12 anything of size n would run out of memory
    assert FeynmanGraph(10**12, [(1, 2)]).is_connected() is False
    assert FeynmanGraph(10**12, [(1, 1), (2, 2), (1, 2)]).is_connected() is False


@pytest.mark.parametrize(
    "graph, n_classes",
    [(K4, 24), (THETA, 2), (MIDDLE, 4), (DBL_DBL, 14), (DUMBBELL, 2)],
)
def test_orientation_classes_match_signature_grouping(graph, n_classes):
    groups: dict[tuple, list] = {}
    for order in all_orders(graph.n):
        groups.setdefault(orientation(graph, order), []).append(order)
    classes = orientation_classes(graph)
    assert len(classes) == n_classes
    assert sum(count for _, count in classes) == len(list(all_orders(graph.n)))
    # each representative is the first order of its group, counts are group sizes
    assert sorted(classes) == sorted((members[0], len(members)) for members in groups.values())
