"""Tests for the bosonic operator algebra and its two cover routes.

The unlabeled half drives partition states with the cut-and-join
operator; the labeled half transports edge-labeled germs through vertex
operators and must reproduce the cover counts edge for edge.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from fixtures import DBL_DBL, DUMBBELL, ID2, ID3, K4, PRISM, THETA, TRIANGLE
from covers_oracle import split_by_windings
from fock_oracle import (
    _apply_moves,
    _direct_edge_caps,
    _moves_for_key,
    _operator_setup,
    _vertex_operator,
    cut_join_reference,
    elliptic_hurwitz_connected,
    fock_cover_count_reference,
    labeled_boundary_states,
    operator_pass_reference,
    partition_counts,
    series_product_reference,
)

from trofey import fock
from trofey.covers import cover_count, cover_table, invariant
from trofey.fock import (
    cut_join,
    double_hurwitz,
    elliptic_hurwitz_disconnected,
    fock_cover_count,
    labeled_matrix_element,
    labeled_series_product,
    labeled_series_product_check,
    partitions,
    winding_choices,
)
from trofey.graphs import all_orders, identity_order, orientation
from trofey.integrals import multidegrees


# -- the partition-basis algebra -------------------------------------------


def test_cut_join_actions():
    assert cut_join({(2,): 1}) == {(1, 1): 1}
    assert cut_join({(1, 1): 1}) == {(2,): 1}
    assert cut_join({(3,): 1}) == {(2, 1): 3}
    assert cut_join({(2, 1): 1}) == {(1, 1, 1): 1, (3,): 2}
    assert cut_join({(1, 1, 1): 1}) == {(2, 1): 3}


def _cut_join_oracle(state):
    """M applied term by term with Fraction(1, 2) on every term."""
    out = {}
    half = Fraction(1, 2)
    for key, coeff in state.items():
        for p in set(key):
            pos = key.index(p)
            removed = key[:pos] + key[pos + 1 :]
            for i in range(1, p):
                new = tuple(sorted(removed + (i, p - i), reverse=True))
                out[new] = out.get(new, 0) + coeff * p * key.count(p) * half
        for j in set(key):
            posj = key.index(j)
            mid = key[:posj] + key[posj + 1 :]
            for i in set(mid):
                posi = mid.index(i)
                rest = mid[:posi] + mid[posi + 1 :]
                new = tuple(sorted(rest + (i + j,), reverse=True))
                term = coeff * j * key.count(j) * i * mid.count(i) * half
                out[new] = out.get(new, 0) + term
    return {k: c for k, c in out.items() if c != 0}


def test_cut_join_integer_accumulation_matches_half_oracle():
    for d in range(1, 7):
        states = [{mu: 1} for mu in partitions(d)]
        # one state mixing every partition of d, so that terms from
        # different keys meet in one output key before the halving
        states.append({mu: i + 1 for i, mu in enumerate(partitions(d))})
        for state in states:
            got = cut_join(state)
            assert got == _cut_join_oracle(state), state
            assert all(type(c) is int for c in got.values()), state
    # rational input keeps exact rational output
    state = {(3, 1): Fraction(1, 3), (2, 2): Fraction(-5, 7)}
    assert cut_join(state) == _cut_join_oracle(state)


def test_cut_join_rows_equal_the_uncached_body():
    # every basis state with d <= 8, then random integer and rational
    # combinations, against the body that applied M without rows
    for d in range(9):
        for mu in partitions(d):
            state = {mu: 1}
            assert cut_join(state) == cut_join_reference(state), mu
    rng = random.Random(13)
    for d in range(1, 9):
        keys = partitions(d)
        for _ in range(5):
            picked = rng.sample(keys, min(len(keys), rng.randint(1, 6)))
            ints = {mu: rng.randint(-9, 9) for mu in picked}
            fracs = {mu: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for mu in picked}
            for state in (ints, fracs):
                assert cut_join(state) == cut_join_reference(state), state
            got = cut_join(ints)
            assert all(type(c) is int for c in got.values()), ints


def _pairing(u, v):
    """<u, v> in the partition basis: distinct partitions are orthogonal and
    <b_mu, b_mu> = |Aut(mu)| * prod(mu)."""
    return sum(c * v[mu] * _aut(mu) * prod(mu) for mu, c in u.items() if mu in v)


def test_basis_norms():
    # <b_mu, b_mu> = |Aut(mu)| * prod(mu)
    assert _pairing({(2,): 1}, {(2,): 1}) == 2
    assert _pairing({(1, 1): 1}, {(1, 1): 1}) == 2
    assert [_pairing({mu: 1}, {mu: 1}) for mu in partitions(3)] == [3, 2, 6]
    # distinct partitions are orthogonal
    assert _pairing({(2,): 1}, {(1, 1): 1}) == 0
    # M is self-adjoint for these norms, which is what lets double_hurwitz
    # read <b_mu, M^n b_nu> as |Aut(mu)| * prod(mu) * [M^n b_nu]_mu and
    # still be symmetric in mu and nu
    for d in range(1, 7):
        images = {mu: cut_join({mu: 1}) for mu in partitions(d)}
        for mu, nu in itertools.product(partitions(d), repeat=2):
            assert _pairing({mu: 1}, images[nu]) == _pairing(images[mu], {nu: 1}), (mu, nu)
            for n in range(4):
                assert double_hurwitz(mu, nu, n) == double_hurwitz(nu, mu, n), (mu, nu, n)


def test_matrix_element_equals_repeated_reference_application():
    # double_hurwitz reads a coefficient of M^n b_nu; the reference pairs
    # b_mu with the state that M, applied term by term, makes of b_nu
    for d in range(1, 7):
        for nu in partitions(d):
            state = {nu: 1}
            for n in range(5):
                for mu in partitions(d):
                    want = Fraction(factorial(n) * _pairing({mu: 1}, state), prod(mu) * prod(nu))
                    got = double_hurwitz(mu, nu, n)
                    assert got == want, (mu, n, nu)
                    assert type(got) is (int if want.denominator == 1 else Fraction), (mu, n, nu)
                state = cut_join_reference(state)


def test_cut_join_rows_are_built_once_for_reached_partitions():
    fock._cut_join_row.cache_clear()
    # (30) is cut into 15 two-part partitions: 16 rows, not one per p(30)
    double_hurwitz((30,), (30,), 2)
    assert fock._cut_join_row.cache_info().misses == 16
    fock._cut_join_row.cache_clear()
    elliptic_hurwitz_disconnected(2, 3)
    info = fock._cut_join_row.cache_info()
    assert (info.misses, info.currsize) == (3, 3)  # one row per partition of 3


def test_elliptic_hurwitz_bench_values():
    assert elliptic_hurwitz_disconnected(4, 10) == 15765963912000
    assert elliptic_hurwitz_connected(4, 6) == 2203008


def test_elliptic_trace_applies_half_the_operator_power(monkeypatch):
    # n = 2g - 2 is even, so tr M^n pairs the states M^(g-1) b_mu: at
    # g = 4 that is 3 applications of M per partition of d, not 6
    calls = []
    true_cut_join = fock.cut_join

    def counted(state):
        calls.append(state)
        return true_cut_join(state)

    monkeypatch.setattr(fock, "cut_join", counted)
    assert elliptic_hurwitz_disconnected(4, 10) == 15765963912000
    assert len(calls) == 3 * len(partitions(10)) == 126


def test_degree_three_diagonal_matrix_elements():
    # <b_mu | M^2 | b_mu> is 18 on every partition of 3, so the diagonal
    # coefficients of M^2 are 18 divided by each norm: 6, 9 and 3
    squares = {mu: cut_join(cut_join({mu: 1})) for mu in partitions(3)}
    assert [squares[mu][mu] for mu in partitions(3)] == [6, 9, 3]
    for mu in partitions(3):
        assert squares[mu][mu] * _aut(mu) * prod(mu) == 18
    assert squares[(1, 1, 1)].get((2, 1), 0) == 0


def test_double_hurwitz_values():
    assert double_hurwitz((2, 1), (2, 1), 2) == 9
    assert double_hurwitz((2,), (1, 1), 1) == 1
    with pytest.raises(ValueError):
        double_hurwitz((2,), (1, 1, 1), 1)


def test_elliptic_disconnected_formula_value():
    # the per-partition formula sums 12 + 18 + 6 over the three degree-3
    # profiles; 36 = 2!·18, and 18 is the content-sum/monodromy count
    assert elliptic_hurwitz_disconnected(2, 3) == 36
    with pytest.raises(ValueError):
        elliptic_hurwitz_disconnected(2, 0)


def test_partition_counts():
    assert partition_counts(6) == [1, 1, 2, 3, 5, 7, 11]


def test_connected_counts_match_cover_route():
    # independent oracle: the assembled cover-route invariants
    for d in (1, 2, 3, 4):
        assert elliptic_hurwitz_connected(2, d) == invariant((1, 1), d)
    assert elliptic_hurwitz_connected(4, 2) == invariant((1, 1, 1, 1), 2) == 48


def test_disconnected_assembles_connected_pieces():
    # degree 3, two branch points: one branched component of degree e
    # plus unbranched sheets of total degree 3 - e
    p = partition_counts(3)
    want = sum(
        p[3 - e] * elliptic_hurwitz_connected(2, e) for e in (1, 2, 3)
    )
    assert elliptic_hurwitz_disconnected(2, 3) == want


# -- code-disjoint witnesses: characters and monodromy -----------------------
#
# Both routes below enumerate their own partitions and permutations of
# {0, ..., d-1} (as tuples, composed right to left) and share nothing with
# the Fock space.  The normalization they pin: n! for the ordered branch
# points, and |Aut mu|·|Aut nu| for labeled ends in the double count.


def _partitions(d: int, cap: int | None = None):
    cap = d if cap is None else cap
    if d == 0:
        yield ()
        return
    for first in range(min(d, cap), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def _content_sum(lam) -> int:
    """f_2(lam): the sum of j - i over the boxes (i, j) of lam."""
    return sum(j - i for i, row in enumerate(lam) for j in range(row))


def _compose(p, q):
    """The permutation x -> p(q(x))."""
    return tuple(p[x] for x in q)


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _cycle_type(p) -> tuple[int, ...]:
    seen: set[int] = set()
    lengths = []
    for start in range(len(p)):
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = p[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _transposition_products(d: int, n: int) -> Counter:
    """How many n-tuples of transpositions in S_d multiply to each permutation."""
    taus = []
    for i, j in itertools.combinations(range(d), 2):
        t = list(range(d))
        t[i], t[j] = j, i
        taus.append(tuple(t))
    dist = Counter({tuple(range(d)): 1})
    for _ in range(n):
        step: Counter = Counter()
        for p, c in dist.items():
            for t in taus:
                step[_compose(p, t)] += c
        dist = step
    return dist


def _aut(mu) -> int:
    return prod(factorial(m) for m in Counter(mu).values())


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_elliptic_disconnected_character_and_monodromy_witnesses(g, d):
    n = 2 * g - 2
    characters = factorial(n) * sum(_content_sum(lam) ** n for lam in _partitions(d))
    # #{(a, b, tau_1..tau_n) : [a, b] tau_1...tau_n = 1} / d!
    taus = _transposition_products(d, n)
    perms = list(itertools.permutations(range(d)))
    tuples = 0
    for a in perms:
        for b in perms:
            commutator = _compose(_compose(a, b), _inverse(_compose(b, a)))
            tuples += taus.get(_inverse(commutator), 0)
    monodromy = factorial(n) * Fraction(tuples, factorial(d))
    assert elliptic_hurwitz_disconnected(g, d) == characters == monodromy


@pytest.mark.parametrize("g, d", [(3, 9), (4, 10), (5, 8)])
def test_elliptic_disconnected_character_witness_at_benchmark_size(g, d):
    # the characters alone, where the monodromy count is out of reach:
    # (4, 10) is the value the benchmark's operator workload asks for
    n = 2 * g - 2
    got = elliptic_hurwitz_disconnected(g, d)
    assert type(got) is int
    assert got == factorial(n) * sum(_content_sum(lam) ** n for lam in _partitions(d))


@pytest.mark.parametrize(
    "mu, nu, n, want",
    [
        ((2, 1), (2, 1), 2, 9),
        ((2,), (1, 1), 1, 1),
        ((2, 2), (2, 2), 2, 10),
        ((3,), (1, 1, 1), 2, 12),
        ((3, 1), (2, 1, 1), 3, 432),
    ],
)
def test_double_hurwitz_monodromy_witness(mu, nu, n, want):
    # #{(sigma, tau_1..tau_n) : sigma of type mu, (sigma tau_1...tau_n)^-1
    # of type nu} / d!, times n! and the end labelings |Aut mu|·|Aut nu|
    d = sum(mu)
    taus = _transposition_products(d, n)
    tuples = sum(
        c
        for sigma in itertools.permutations(range(d))
        if _cycle_type(sigma) == mu
        for t, c in taus.items()
        if _cycle_type(_inverse(_compose(sigma, t))) == nu
    )
    monodromy = factorial(n) * _aut(mu) * _aut(nu) * Fraction(tuples, factorial(d))
    assert monodromy == want
    assert double_hurwitz(mu, nu, n) == want


# -- the labeled (edge-tracking) algebra ------------------------------------


def test_boundary_states_shift_labels():
    bra, ket = labeled_boundary_states((2, 0, 0), {1: 1})
    assert bra == ((1, 1, 1), (1, 2, 1))
    assert ket == ((1, 2, 1), (1, 3, 1))
    bra, ket = labeled_boundary_states((2, 0, 0), {1: 2})
    assert bra == ((1, 1, 2),)
    assert ket == ((1, 2, 2),)


def test_winding_choices_are_divisor_products():
    assert list(winding_choices((2, 0, 0))) == [{1: 1}, {1: 2}]
    assert list(winding_choices((2, 0, 3))) == [
        {1: 1, 3: 1},
        {1: 1, 3: 3},
        {1: 2, 3: 1},
        {1: 2, 3: 3},
    ]


def test_labeled_matrix_element_splits_cover_count():
    by_windings = split_by_windings(THETA, ID2, (2, 0, 0))
    assert by_windings == {(2,): 2}
    assert labeled_matrix_element(THETA, ID2, (2, 0, 0), {1: 2}) == 2
    assert labeled_matrix_element(THETA, ID2, (2, 0, 0), {1: 1}) == 0


def test_labeled_matrix_element_guards():
    windings = {1: 1, 2: 1, 3: 1}
    with pytest.raises(ValueError):
        labeled_matrix_element(DUMBBELL, ID2, (1, 1, 1), windings)
    # one set-up guards every labeled entry point
    with pytest.raises(ValueError, match="loop-free"):
        labeled_series_product(DUMBBELL, ID2, (1, 1, 1), windings, 2)
    with pytest.raises(ValueError, match="loop-free"):
        labeled_series_product_check(DUMBBELL, ID2, (1, 1, 1), 2)
    with pytest.raises(ValueError):
        labeled_matrix_element(
            TRIANGLE, ID3, (1, 1, 1),
            {1: 1, 2: 1, 3: 1},
        )


def test_fock_route_equals_cover_route_sweep():
    for graph in (THETA, DBL_DBL):
        for order in all_orders(graph.n):
            for a in multidegrees(graph, 2):
                assert fock_cover_count(graph, order, a) == cover_count(
                    graph, order, a
                ), (graph.edges, order, a)


def test_fock_route_per_winding_equals_cover_route():
    for a in multidegrees(THETA, 3):
        table = split_by_windings(THETA, ID2, a)
        marked = [idx for idx in range(3) if a[idx] > 0]
        for windings in winding_choices(a):
            key = tuple(windings[idx + 1] for idx in marked)
            assert labeled_matrix_element(THETA, ID2, a, windings) == table.get(key, 0)


def test_series_product_refines_matrix_element():
    # summing the tracked series over all x-exponent vectors recovers the
    # plain matrix element
    windings = {1: 2}
    table = labeled_series_product(THETA, ID2, (2, 0, 0), windings, x_bound=4)
    assert sum(table.values()) != 0
    assert table.get((0, 0), 0) + sum(
        c for key, c in table.items() if key != (0, 0)
    ) == sum(table.values())
    assert table.get((0, 0), 0) == labeled_matrix_element(THETA, ID2, (2, 0, 0), windings)


def test_series_product_check_theta_and_k4():
    assert labeled_series_product_check(THETA, ID2, (1, 0, 0), 4)
    assert labeled_series_product_check(THETA, ID2, (2, 1, 0), 4)
    id4 = identity_order(4)
    assert labeled_series_product_check(K4, id4, (0, 0, 0, 0, 0, 0), 3)
    assert labeled_series_product_check(DBL_DBL, id4, (1, 0, 0, 0, 0, 1), 3)


def _vertex_operator_oracle(state, vertex, plans, windings, x_bound):
    """The vertex operator as the full germ product, then the window filter."""
    out = {}
    vi = vertex - 1
    for (key, xvec), coeff in state.items():
        options = _moves_for_key(plans, windings, key)
        if not options:
            continue
        for combo in itertools.product(*options):
            xv = xvec[vi] + sum(m for m, _ in combo)
            if abs(xv) > x_bound:
                continue
            res = _apply_moves(key, coeff, combo)
            if res is None:
                continue
            new_key, c = res
            nk = (new_key, xvec[:vi] + (xv,) + xvec[vi + 1 :])
            out[nk] = out.get(nk, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def test_balanced_operator_matches_product_filter_oracle():
    # x_bound = 0 is the balanced operator of the matrix element; windows
    # 1 and 2 exercise the closing-germ lookup over several target x_v
    for x_bound in (0, 1, 2):
        nonzero = 0
        for graph in (THETA, K4, DBL_DBL):
            for order in all_orders(graph.n):
                for a in multidegrees(graph, 2):
                    _, _, plans = _operator_setup(graph, order, a, x_bound)
                    for windings in winding_choices(a):
                        _, ket = labeled_boundary_states(a, windings)
                        state = {(ket, (0,) * graph.n): 1}
                        for vertex, germs in plans:
                            want = _vertex_operator_oracle(
                                state, vertex, germs, windings, x_bound
                            )
                            got = _vertex_operator(state, vertex, germs, windings, x_bound)
                            assert got == want, (x_bound, graph.edges, order, a, vertex)
                            state = want
                        nonzero += bool(state)
        assert nonzero > 0, x_bound


def test_matrix_element_is_exponent_zero_coefficient_in_any_window():
    # the window-0 caps on the a_k = 0 edges lose nothing that a wider
    # window keeps at exponent zero
    for graph in (THETA, K4, DBL_DBL):
        zero = (0,) * graph.n
        for order in all_orders(graph.n):
            for a in multidegrees(graph, 2):
                for windings in winding_choices(a):
                    want = labeled_matrix_element(graph, order, a, windings)
                    for x_bound in range(4):
                        table = labeled_series_product(graph, order, a, windings, x_bound)
                        assert table.get(zero, 0) == want, (
                            graph.edges, order, a, windings, x_bound
                        )


def test_negative_window_is_rejected():
    # an empty window is not a product: {} or False would read as a mismatch
    with pytest.raises(ValueError, match="x_bound must be >= 0, got -1"):
        labeled_series_product(THETA, ID2, (2, 0, 0), {1: 2}, -1)
    with pytest.raises(ValueError, match="x_bound must be >= 0, got -1"):
        labeled_series_product_check(THETA, ID2, (2, 0, 0), -1)


def test_series_product_check_every_order_dbl_dbl():
    for order in all_orders(4):
        assert labeled_series_product_check(DBL_DBL, order, (0,) * 6, 6), order


@pytest.mark.parametrize("x_bound", [1, 2])
def test_series_product_equals_edge_factors_in_small_window(x_bound):
    # a small window is where the per-vertex pruning drops the most states
    for graph in (THETA, K4, DBL_DBL):
        for order in all_orders(graph.n):
            # every a_k <= 1 and at most two edges curled
            for a in filter(lambda a: max(a) <= 1, multidegrees(graph, 2)):
                tails, caps, _ = _operator_setup(graph, order, a, x_bound)
                for windings in winding_choices(a):
                    lhs = labeled_series_product(graph, order, a, windings, x_bound)
                    rhs = fock._edge_factor_product(
                        graph, tails, a, windings, x_bound, caps
                    )
                    assert lhs == rhs, (graph.edges, order, a, windings)


# -- the one-pass table against the per-winding product --------------------


def test_fock_table_equals_oracle_and_cover_table():
    # one walk over the shared suffixes of every order, summed over
    # windings, against a pass of each order on its own
    for graph, amax in ((THETA, 4), (K4, 3), (DBL_DBL, 3)):
        orders = list(all_orders(graph.n))
        degrees = [range(amax + 1)] * graph.num_edges
        walk = fock._operator_pass(graph, orders, degrees, amax, None, 0)
        tables = fock.fock_tables(graph, amax)
        assert list(walk) == list(tables) == orders
        for order in orders:
            single = fock._operator_pass(graph, [order], degrees, amax, None, 0)
            assert walk[order] == single[order], (graph.edges, order)
            table = tables[order]
            assert table == {a: c for (a, _), c in walk[order].items()}
            assert table == cover_table(graph, order, amax), (graph.edges, order)
            for a in multidegrees(graph, amax):
                want = fock_cover_count_reference(graph, order, a)
                assert table.get(a, 0) == want, (graph.edges, order, a)
                assert fock_cover_count(graph, order, a) == want, (graph.edges, order, a)


@pytest.mark.parametrize("graph", [THETA, K4, DBL_DBL], ids=["theta", "k4", "dbl_dbl"])
def test_pass_equals_basis_key_reference(graph):
    # the per-edge records against whole basis keys, over every order at
    # once: degree sets 0..amax in windows 0-2, a degree set with holes,
    # a = 0 in a wide window, and one degree per edge with every winding
    orders = list(all_orders(graph.n))
    r = graph.num_edges
    cases = [([range(amax + 1)] * r, amax, None, 0) for amax in range(5)]
    cases += [([range(amax + 1)] * r, amax, None, x) for amax in range(3) for x in (1, 2)]
    cases += [([(0, 2, 3)] * r, 6, None, 0), ([(0, 2, 3)] * r, 4, None, 1)]
    cases.append(([(0,)] * r, 0, None, 6 if graph.n == 2 else 4))
    for a in multidegrees(graph, 4 if graph.n == 2 else 3):
        for windings in (None, *winding_choices(a)):
            for x_bound in (0, 2) if graph.n == 2 else (0,):
                cases.append(([(x,) for x in a], sum(a), windings, x_bound))
    nonzero = 0
    for case in cases:
        want = operator_pass_reference(graph, orders, *case)
        assert fock._operator_pass(graph, orders, *case) == want, case
        nonzero += any(want.values())
    assert nonzero > len(cases) // 3


@pytest.mark.parametrize("amax, x_bound", [(3, 0), (1, 1)])
def test_pass_equals_basis_key_reference_on_the_prism(amax, x_bound):
    # six vertices and 720 orders: a deeper walk than the four-vertex graphs
    orders = list(all_orders(6))
    degrees = [range(amax + 1)] * PRISM.num_edges
    want = operator_pass_reference(PRISM, orders, degrees, amax, None, x_bound)
    assert sum(map(bool, want.values())) > 0
    assert fock._operator_pass(PRISM, orders, degrees, amax, None, x_bound) == want


def test_walk_equals_single_order_passes_in_a_window():
    # with a window the states carry exponent vectors that the suffix walk
    # must share exactly as the single-order pass builds them; at a = 0 in
    # a wide window some order needs a larger create cap than another
    for graph in (THETA, K4, DBL_DBL):
        orders = list(all_orders(graph.n))
        for degrees, total_cap, windows in (
            ([range(3)] * graph.num_edges, 2, (1, 2)),
            ([(0,)] * graph.num_edges, 0, (3, 4)),
        ):
            for x_bound in windows:
                walk = fock._operator_pass(graph, orders, degrees, total_cap, None, x_bound)
                for order in orders:
                    single = fock._operator_pass(
                        graph, [order], degrees, total_cap, None, x_bound
                    )
                    assert walk[order] == single[order], (graph.edges, order, x_bound)


def test_walk_makes_one_vertex_step_per_shared_suffix(monkeypatch):
    # at a = 0 in window 3 every step keeps live states, and each vertex
    # step is one step call: 4 + 12 + 24 + 24 for the 24 orders of four
    # vertices, against 4 * 24 for one pass per order
    steps = []
    true_step = fock._vertex_step

    def counted(groups, vertex, *args):
        assert groups
        steps.append(vertex)
        return true_step(groups, vertex, *args)

    monkeypatch.setattr(fock, "_vertex_step", counted)
    for graph in (K4, DBL_DBL):
        orders = list(all_orders(4))
        steps.clear()
        tables = fock._operator_pass(graph, orders, [(0,)] * 6, 0, None, 3)
        assert all(tables.values())
        assert len(steps) == 64
        steps.clear()
        for order in orders:
            fock._operator_pass(graph, [order], [(0,)] * 6, 0, None, 3)
        assert len(steps) == 96


def test_series_product_equals_per_winding_oracle():
    for graph in (THETA, K4, DBL_DBL):
        for order in all_orders(graph.n):
            for a in multidegrees(graph, 2):
                for windings in winding_choices(a):
                    for x_bound in (0, 1, 2):
                        want = series_product_reference(graph, order, a, windings, x_bound)
                        got = labeled_series_product(graph, order, a, windings, x_bound)
                        assert got == want, (graph.edges, order, a, windings, x_bound)


def test_edge_caps_of_one_multidegree_are_its_direct_caps():
    # the caps of one multidegree at one order, which both sides of
    # labeled_series_product_check read, clamped to the flow bound
    for graph in (THETA, K4, DBL_DBL):
        for order in all_orders(graph.n):
            tails = [tail for tail, _ in orientation(graph, order)]
            for a in multidegrees(graph, 3):
                for x_bound in (0, 1, 2):
                    bound = sum(a) + graph.n * x_bound
                    direct = _direct_edge_caps(graph, order, a, tails, x_bound)
                    assert fock._edge_caps(graph, order, a, x_bound) == {
                        k: min(cap, bound) for k, cap in direct.items()
                    }, (graph.edges, order, a, x_bound)


def test_pass_caps_are_at_most_the_order_caps_and_the_flow_bound(monkeypatch):
    # one order at one multidegree takes min(its direct caps, the flow
    # bound); any other walk takes the flow bound on every edge, and no
    # created or annihilated a_k = 0 weight exceeds its cap
    given, seen = [], []
    true_caps, true_step = fock._pass_caps, fock._vertex_step

    def recording_caps(*args):
        # the create caps the pass hands to its steps
        caps = true_caps(*args)
        given.append(caps)
        return caps

    def recording_step(groups, vertex, opens, closes, opening, total_cap):
        # the weight of every a_k = 0 edge a head germ creates or a tail
        # germ annihilates: minus the head's move, the record's m
        def spied(opens, budget, m_close):
            moves = opening(opens, budget, m_close)
            for opened, _, _ in moves:
                seen.extend((i + 1, -rec[1]) for i, rec in zip(opens, opened) if rec[0] == 0)
            return moves

        for records in groups:
            seen.extend((i + 1, -records[i][1]) for i in closes if records[i][0] == 0)
        return true_step(groups, vertex, opens, closes, spied, total_cap)

    monkeypatch.setattr(fock, "_pass_caps", recording_caps)
    monkeypatch.setattr(fock, "_vertex_step", recording_step)
    for graph in (THETA, K4, DBL_DBL):
        edges = range(1, graph.num_edges + 1)
        orders = list(all_orders(graph.n))
        for x_bound in (0, 1, 2):
            flow = {k: 2 + graph.n * x_bound for k in edges}
            # every multidegree with sum(a) <= 2, in one walk over every
            # order and in one pass of each order
            degrees = [range(3)] * graph.num_edges
            for walked in (orders, *([order] for order in orders)):
                given.clear()
                seen.clear()
                fock._operator_pass(graph, walked, degrees, 2, None, x_bound)
                assert given == [flow]
                assert seen
                assert all(0 < w <= flow[k] for k, w in seen), (graph.edges, walked, x_bound)
            # and the caps of one multidegree at a time, sum(a) <= 3, and
            # the weights its pass creates, sum(a) <= 2
            for order in orders:
                tails = [tail for tail, _ in orientation(graph, order)]
                for a in multidegrees(graph, 3):
                    bound = sum(a) + graph.n * x_bound
                    direct = _direct_edge_caps(graph, order, a, tails, x_bound)
                    one = [(x,) for x in a]
                    used = true_caps(graph, [order], one, sum(a), x_bound)
                    assert used == {k: min(cap, bound) for k, cap in direct.items()}, (
                        graph.edges, order, a, x_bound
                    )
                    if sum(a) <= 2:
                        given.clear()
                        seen.clear()
                        fock._operator_pass(graph, [order], one, sum(a), None, x_bound)
                        assert given == [used]
                        assert all(0 < w <= used[k] for k, w in seen), (graph.edges, order, a)


@pytest.mark.parametrize(
    "graph", [THETA, K4, DBL_DBL, PRISM], ids=["theta", "k4", "dbl_dbl", "prism"]
)
def test_full_box_pass_caps_skip_the_order_loop(graph):
    # fock_tables' walk (every order, every degree set 0..amax, x_bound = 0)
    # caps every edge at the flow bound amax
    orders = list(all_orders(graph.n))
    for amax in range(5):
        degrees = [range(amax + 1)] * graph.num_edges
        caps = fock._pass_caps(graph, orders, degrees, amax, 0)
        assert caps == {k: amax for k in range(1, graph.num_edges + 1)}


def test_product_check_caps_are_the_per_order_caps():
    # the benchmark's product query: dbl_dbl at a = 0 in window 6 keeps its
    # order's own caps, well below the flow bound 24
    caps = fock._pass_caps(DBL_DBL, [(1, 2, 3, 4)], [(0,)] * 6, 0, 6)
    assert caps == {1: 6, 2: 6, 3: 6, 4: 18, 5: 12, 6: 12}


def test_operator_guard_runs_once_per_call(monkeypatch):
    calls = []
    true_guard = fock._check_operator_graph

    def counted(graph):
        calls.append(graph)
        true_guard(graph)

    monkeypatch.setattr(fock, "_check_operator_graph", counted)
    id4 = identity_order(4)
    a = (1, 0, 0, 0, 0, 1)
    for call in (
        lambda: fock_cover_count(DBL_DBL, id4, a),
        lambda: labeled_matrix_element(DBL_DBL, id4, a, {1: 1, 6: 1}),
        lambda: labeled_series_product(DBL_DBL, id4, a, {1: 1, 6: 1}, 2),
        lambda: labeled_series_product_check(DBL_DBL, id4, a, 2),
    ):
        calls.clear()
        call()
        assert len(calls) == 1
