"""Top-level acceptance suite: one test per pinned deliverable.

Every assertion is exact rational equality — no tolerances anywhere.
Each test prints nothing and passes or fails as a single line under
``pytest -v``.  Criterion 6 carries its own witnesses: 36 = 2!·18, and
18 is the content-sum/monodromy count of degree-3 genus-2 covers.
Criteria 7 and 8 read one table per route and query; a last test ties
the per-multidegree views to those tables.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

from fixtures import DBL_DBL, ID2, ID3, K4, MIDDLE, PRISM, RIGHT, SWEEP_KS, THETA, TRIANGLE
from covers_oracle import split_by_windings
from trofey.covers import (
    _cover_pass,
    cover_count,
    cover_table,
    descendant_contribution,
    invariant,
    invariant_fixed_order,
    one_point_mult,
)
from trofey.fock import (
    double_hurwitz,
    elliptic_hurwitz_disconnected,
    fock_cover_count,
    labeled_series_product_check,
)
from trofey.graphs import (
    all_orders,
    automorphism_count,
    enumerate_labeled_graphs,
    identity_order,
    weighted_classes,
)
from trofey.integrals import (
    integral_series_q,
    integral_series_refined,
    mirror_total_series,
    multidegrees,
    refined_coeff,
    refined_sweep,
)
from trofey.quasimodular import fit


def canonical_code(graph, gf):
    """The least (sorted edges, genus function) over all n! vertex
    relabelings: two (graph, gf) are isomorphic exactly when their codes
    are equal."""
    codes = []
    for perm in itertools.permutations(range(1, graph.n + 1)):
        edges = sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in graph.edges)
        genus = [0] * graph.n
        for v, g in zip(perm, gf):
            genus[v - 1] = g
        codes.append((tuple(edges), tuple(genus)))
    return min(codes)


def search_symmetries(graph, gf):
    """Every vertex map v -> perm[v-1] that keeps the edge multiset and the
    genus function, found by trying all n! maps."""
    edges = sorted(graph.edges)
    found = []
    for perm in itertools.permutations(range(1, graph.n + 1)):
        image = sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in graph.edges)
        keeps_gf = all(gf[perm[v - 1] - 1] == gf[v - 1] for v in range(1, graph.n + 1))
        if image == edges and keeps_gf:
            found.append(perm)
    return found


def arrows(graph, order):
    """The sorted (tail, head) pairs of the edges, the tail earlier in the
    order."""
    pos = {v: i for i, v in enumerate(order)}
    return sorted((u, v) if pos[u] <= pos[v] else (v, u) for u, v in graph.edges)


def moved(pairs, perm, reverse=False):
    """The sorted image of (tail, head) pairs under a vertex map, with tail
    and head swapped if ``reverse``."""
    images = [(perm[t - 1], perm[h - 1]) for t, h in pairs]
    return sorted((h, t) for t, h in images) if reverse else sorted(images)


def order_orbits(graph, gf):
    """The n! vertex orders grouped by the least image of their arrows under
    the symmetries and reversal; each orbit is the list of its orders, in
    itertools.permutations order, and the orbits are listed by first order."""
    syms = search_symmetries(graph, gf)
    groups = {}
    for order in itertools.permutations(range(1, graph.n + 1)):
        pairs = arrows(graph, order)
        key = min(moved(pairs, perm, reverse) for perm in syms for reverse in (False, True))
        groups.setdefault(tuple(key), []).append(order)
    return list(groups.values())


def class_representatives(k):
    """The distinct (graph, gf) that weighted_classes(k) visits, one per
    isomorphism class, sorted by canonical code."""
    reps = dict.fromkeys((graph, gf) for graph, gf, *_ in weighted_classes(k))
    return sorted(reps, key=lambda rep: canonical_code(*rep))


def _leak_vectors(n: int) -> list[tuple[int, ...]]:
    """The zero vector and every one-(+1)-one-(-1) vector."""
    vecs = [tuple([0] * n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                v = [0] * n
                v[i], v[j] = 1, -1
                vecs.append(tuple(v))
    return vecs


def _leak_cover_table(graph, order, q_cap, l):
    """cover_count with leak vector l at every multidegree with
    sum(a) <= q_cap, from one cover pass."""
    table = {}
    degrees = [range(q_cap + 1)] * graph.num_edges
    for a, windings, _ in _cover_pass(graph, order, degrees, q_cap, l):
        table[a] = table.get(a, 0) + prod(windings)
    return table


def test_criterion_01_invariant_279_by_both_routes():
    assert invariant((2, 0, 0), 3) == 279
    assert mirror_total_series((2, 0, 0), 3)[3] == 279
    assert invariant_fixed_order((2, 0, 0), 3, ID3) == Fraction(93, 2)


def test_criterion_02_triangle_coefficient_115_over_6():
    assert refined_coeff(TRIANGLE, ID3, (0, 0, 3), gf=(1, 0, 0)) == Fraction(115, 6)
    # winding decomposition: w=1 and w=3 classes of the degree-3 edge
    split = split_by_windings(TRIANGLE, ID3, (0, 0, 3), k=(2, 0, 0))
    assert split == {(1,): Fraction(1, 24), (3,): Fraction(153, 8)}


def test_criterion_03_right_graph_coefficient_3():
    assert refined_coeff(RIGHT, ID3, (2, 0, 0, 1), gf=(0, 0, 0)) == 3
    split = split_by_windings(RIGHT, ID3, (2, 0, 0, 1))
    assert split == {(2, 1): 2, (1, 1): 1}


def test_criterion_04_q_expansions():
    triangle = integral_series_q(TRIANGLE, (1, 0, 0), ID3, 8)
    assert [triangle.get(d, 0) for d in range(1, 9)] == [
        Fraction(1, 24),
        Fraction(5, 2),
        Fraction(39, 2),
        Fraction(278, 3),
        Fraction(1025, 4),
        738,
        Fraction(4165, 3),
        3080,
    ]
    right = integral_series_q(RIGHT, (0, 0, 0), ID3, 9)
    assert [right.get(d, 0) for d in range(2, 10)] == [
        1, 15, 76, 275, 720, 1666, 3440, 6129,
    ]
    assert right.get(1, 0) == 0
    middle = integral_series_q(MIDDLE, (0, 0, 0), ID3, 9)
    assert [middle.get(d, 0) for d in range(2, 10)] == [
        4, 48, 240, 800, 2160, 4704, 9920, 17280,
    ]
    assert middle.get(1, 0) == 0


def test_criterion_05_quasimodular_fits():
    q_order = 16
    tri = fit(integral_series_q(TRIANGLE, (1, 0, 0), ID3, q_order), 8, q_order)
    assert tri.coefficients == {
        (3, 0, 0): Fraction(1, 41472),
        (1, 1, 0): Fraction(-1, 13824),
        (0, 0, 1): Fraction(1, 20736),
        (2, 1, 0): Fraction(1, 20736),
        (1, 0, 1): Fraction(-1, 10368),
        (0, 2, 0): Fraction(1, 20736),
    }
    assert not tri.is_homogeneous and tri.weight_profile == {6, 8}

    right_series = integral_series_q(RIGHT, (0, 0, 0), ID3, q_order)
    right = fit(right_series, 8, q_order)
    assert right.coefficients == {
        (3, 0, 0): Fraction(-1, 41472),
        (1, 1, 0): Fraction(1, 13824),
        (0, 0, 1): Fraction(-1, 20736),
        (4, 0, 0): Fraction(1, 41472),
        (2, 1, 0): Fraction(-1, 13824),
        (1, 0, 1): Fraction(1, 20736),
    }
    assert not right.is_homogeneous and right.weight_profile == {6, 8}

    mid = fit(integral_series_q(MIDDLE, (0, 0, 0), ID3, q_order), 8, q_order)
    assert mid.coefficients == {
        (4, 0, 0): Fraction(1, 20736),
        (2, 1, 0): Fraction(-1, 10368),
        (0, 2, 0): Fraction(1, 20736),
    }
    assert mid.is_homogeneous and mid.weight_profile == {8}

    tri_series = integral_series_q(TRIANGLE, (1, 0, 0), ID3, q_order)
    total = {d: tri_series.get(d, 0) + right_series.get(d, 0) for d in range(q_order + 1)}
    both = fit(total, 8, q_order)
    assert both.is_homogeneous and both.weight_profile == {8}


def test_criterion_06_fock_route_values():
    assert double_hurwitz((2, 1), (2, 1), 2) == 9
    # 36 = 2!·18, and 18 is the content-sum/monodromy count
    assert elliptic_hurwitz_disconnected(2, 3) == 36
    # witness 1, the character formula n!·Σ_{λ⊢3} f₂(λ)ⁿ with n = 2, where
    # f₂(λ) is the content sum of λ
    contents = [
        sum(j - i for i, row in enumerate(lam) for j in range(row))
        for lam in ((3,), (2, 1), (1, 1, 1))
    ]
    assert contents == [3, 0, -3]
    assert 2 * sum(c**2 for c in contents) == 36
    # witness 2, the cover route: one branched component of degree e plus
    # p(3 - e) ways to add unbranched sheets, with p(2), p(1), p(0) = 2, 1, 1
    assert 2 * invariant((1, 1), 1) + invariant((1, 1), 2) + invariant((1, 1), 3) == 36


def test_criterion_07_bijection_sweep():
    # per (graph, order, leak vector): one integral table and one cover
    # pass, compared at every multidegree with sum(a) <= 4
    checked = 0
    for k in SWEEP_KS:
        for graph, _ in class_representatives(k):
            degrees = list(multidegrees(graph, 4))
            allowed = set(degrees)
            for order in all_orders(graph.n):
                for l in _leak_vectors(graph.n):
                    integral = integral_series_refined(graph, order, 4, l=l)
                    covers = _leak_cover_table(graph, order, 4, l)
                    assert set(integral) | set(covers) <= allowed, (graph.edges, order, l)
                    for a in degrees:
                        assert integral.get(a, 0) == covers.get(a, 0), (
                            k, graph.edges, order, a, l
                        )
                        checked += 1
    assert checked == 282864


def test_criterion_08_mirror_sweep():
    # per (graph, order): one dressed integral table and one descendant
    # cover table, compared at every multidegree with sum(a) <= 4
    checked = 0
    for k in SWEEP_KS:
        for graph, gf in class_representatives(k):
            degrees = list(multidegrees(graph, 4))
            allowed = set(degrees)
            for order in all_orders(graph.n):
                integral = integral_series_refined(graph, order, 4, gf=gf)
                covers = cover_table(graph, order, 4, k)
                assert set(integral) | set(covers) <= allowed, (graph.edges, gf, order)
                for a in degrees:
                    assert integral.get(a, 0) == covers.get(a, 0), (k, graph.edges, gf, order, a)
                    checked += 1
    assert checked == 22608


def _edge_images(graph, perm):
    """Where a vertex symmetry sends each edge slot: to a slot between the
    images of its endpoints (parallel slots are matched in turn)."""
    free = list(range(graph.num_edges))
    images = []
    for u, v in graph.edges:
        target = tuple(sorted((perm[u - 1], perm[v - 1])))
        j = next(j for j in free if graph.edges[j] == target)
        free.remove(j)
        images.append(j)
    return images


def _carried(table, images):
    """A table keyed by multidegree with entry i of every key moved to
    position images[i]."""
    out = {}
    for a, value in table.items():
        b = [0] * len(a)
        for i, j in enumerate(images):
            b[j] = a[i]
        out[tuple(b)] = value
    return out


def test_orbit_orders_carry_the_representative_tables():
    # every order in an orbit of weighted_classes has the representative's
    # cover and integral tables, multidegrees carried along the edge
    # permutation of a symmetry (reversal keeps every key); the orbit sizes
    # of each class sum to n!.  Symmetries and orbits come from the
    # test-side search.
    for k in SWEEP_KS:
        labeled = enumerate_labeled_graphs(k)
        copies = Counter(canonical_code(a.graph, a.gf) for a in labeled)
        sizes = Counter()
        for graph, gf, rep, weight in weighted_classes(k):
            syms = search_symmetries(graph, gf)
            [members] = [m for m in order_orbits(graph, gf) if m[0] == rep]
            size = weight * automorphism_count(graph) / copies[canonical_code(graph, gf)]
            assert size == len(members), (k, graph.edges, gf, rep)
            sizes[graph, gf] += size
            covers = cover_table(graph, rep, 3, k)
            integral = integral_series_refined(graph, rep, 3, gf=gf)
            rep_arrows = arrows(graph, rep)
            for order in members:
                target = arrows(graph, order)
                perm = next(
                    p for p in syms
                    if target in (moved(rep_arrows, p), moved(rep_arrows, p, reverse=True))
                )
                images = _edge_images(graph, perm)
                assert cover_table(graph, order, 3, k) == _carried(covers, images)
                assert integral_series_refined(graph, order, 3, gf=gf) == _carried(integral, images)
        assert set(sizes.values()) == {factorial(len(k))}, k


def test_fock_check_carries_the_orbit_cover_tables():
    # the form fock check reads: zero leaks, no k, and the bare cover table.
    # Every order's table is its orbit's first table carried along the edge
    # permutation of a symmetry; so one cover pass per orbit serves every
    # order.  Symmetries and orbits come from the test-side search.
    for graph, amax, passes in ((THETA, 4, 1), (K4, 4, 1), (DBL_DBL, 4, 4), (PRISM, 2, 12)):
        gf = (0,) * graph.n
        syms = search_symmetries(graph, gf)
        orbits = order_orbits(graph, gf)
        assert len(orbits) == passes, graph.edges
        for rep, *members in orbits:
            covers = cover_table(graph, rep, amax)
            rep_arrows = arrows(graph, rep)
            for order in members:
                target = arrows(graph, order)
                perm = next(
                    p for p in syms
                    if target in (moved(rep_arrows, p), moved(rep_arrows, p, reverse=True))
                )
                carried = _carried(covers, _edge_images(graph, perm))
                assert cover_table(graph, order, amax) == carried, (graph.edges, order)


def test_reversal_keeps_tables_only_without_leaks():
    # with a leak vector l the reversed order reads -l, so the orbits of
    # weighted_classes serve zero-leak sums only
    gf, a = (1, 0, 0), (1, 0, 0)
    assert refined_coeff(TRIANGLE, (1, 3, 2), a, l=(1, -1, 0), gf=gf) == Fraction(2, 3)
    assert refined_coeff(TRIANGLE, (2, 3, 1), a, l=(1, -1, 0), gf=gf) == 0
    assert refined_coeff(TRIANGLE, (2, 3, 1), a, l=(-1, 1, 0), gf=gf) == Fraction(2, 3)
    assert refined_coeff(TRIANGLE, (1, 3, 2), a, gf=gf) == refined_coeff(TRIANGLE, (2, 3, 1), a, gf=gf)


def test_views_equal_the_sweep_tables():
    # the per-multidegree views that criteria 07 and 08 no longer call read
    # the same values as the tables they compare: refined_sweep and
    # cover_count with every leak vector, descendant_contribution with k
    for graph, orders in (
        (THETA, list(all_orders(2))),
        (K4, [(1, 2, 3, 4), (3, 1, 4, 2)]),
        (DBL_DBL, [(1, 2, 3, 4), (4, 2, 1, 3)]),
    ):
        gf, k = (0,) * graph.n, (1,) * graph.n
        leaks = _leak_vectors(graph.n)
        for order in orders:
            integral = {l: integral_series_refined(graph, order, 3, l=l) for l in leaks}
            covers = {l: _leak_cover_table(graph, order, 3, l) for l in leaks}
            descendants = cover_table(graph, order, 3, k)
            for a in multidegrees(graph, 3):
                sweep = refined_sweep(graph, order, a, leaks)
                for l in leaks:
                    where = (graph.edges, order, a, l)
                    assert sweep[l] == integral[l].get(a, 0), where
                    assert cover_count(graph, order, a, l=l) == covers[l].get(a, 0), where
                value = descendant_contribution(graph, gf, order, a, k)
                assert value == descendants.get(a, 0), (graph.edges, order, a)


def test_criterion_09_operator_route():
    for graph in (THETA, DBL_DBL, K4):
        for order in all_orders(graph.n):
            for a in multidegrees(graph, 3):
                assert fock_cover_count(graph, order, a) == cover_count(
                    graph, order, a
                ), (graph.edges, order, a)
    id4 = identity_order(4)
    product_checks = [
        (THETA, ID2, (0, 0, 0)),
        (THETA, ID2, (1, 0, 0)),
        (THETA, ID2, (2, 1, 0)),
        (THETA, (2, 1), (3, 0, 0)),
        (DBL_DBL, id4, (0, 0, 0, 0, 0, 0)),
        (DBL_DBL, id4, (1, 0, 0, 0, 0, 1)),
        (K4, id4, (0, 0, 0, 0, 0, 0)),
    ]
    for graph, order, a in product_checks:
        assert labeled_series_product_check(graph, order, a, 6), (graph.edges, order, a)


def test_criterion_10_one_point_values_and_parity():
    assert one_point_mult((3,), (3,), 2) == Fraction(17, 24)
    assert one_point_mult((1,), (1,), 2) == Fraction(1, 24)
    import random

    rng = random.Random(17)
    hits = 0
    while hits < 200:
        mu = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        nu = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 3)))
        k = rng.randint(0, 5)
        if (k + len(mu) + len(nu)) % 2 == 1:
            assert one_point_mult(mu, nu, k) == 0, (mu, nu, k)
            hits += 1
