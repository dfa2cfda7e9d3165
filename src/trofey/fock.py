"""Bosonic operator route to the same cover counts.

Unlabeled mode: the charge-zero half of a Heisenberg algebra with
generators alpha_n, n != 0, commutator [alpha_n, alpha_m] = |n| when
n = -m (else 0), acting on the span of basis states

    b_mu = prod_j alpha_{-mu_j} |vacuum>,   mu a partition,

with <b_mu, b_mu> = |Aut(mu)| * prod mu_j and distinct partitions
orthogonal.  The cut-and-join operator

    M = 1/2 sum_{i,j>=1} (alpha_{-i} alpha_{-j} alpha_{i+j}
                          + alpha_{-(i+j)} alpha_i alpha_j)

preserves the energy |mu| and its matrix powers count branched covers of
the torus: states are evolved as explicit vectors rather than by Wick
pairing, so every intermediate state is inspectable.

Labeled mode: one Heisenberg generator alpha^{(k,j)}_n per (edge k,
germ label j); generators with different (k, j) commute.  A trivalent
loop-free graph with a vertex order and a multidegree a gives one
three-germ operator per vertex, and each germ move m at vertex v also
multiplies by x_v^m.  There is one operator body: states are (basis key,
exponent vector) pairs, and each vertex keeps only the moves that land
x_v in a window |x_v| <= x_bound.  The operator product, sandwiched
between explicit bra/ket states, is the product of the edge factors; its
exponent-zero coefficient at x_bound = 0, where every vertex balances, is
the labeled matrix element, and it reproduces the weighted cover count
winding by winding.

One pass, :func:`_operator_pass`, runs the product for a (graph, vertex
order) at every multidegree and winding choice at once.  It walks the
vertices in acting order; each vertex opens the edges it heads (choosing
a_k from a degree set and w | a_k, and adding that edge's ket labels),
applies its operator, and closes the edges it tails (their labels must
now be the bra's, and are dropped).  ``fock check`` reads the pass as a
table keyed by multidegree; :func:`fock_cover_count` and the
``labeled_*`` functions are views with one degree (and one winding) per
edge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterator, Mapping, Sequence

from .graphs import (
    FeynmanGraph,
    Multidegree,
    VertexOrder,
    check_multidegree,
    check_order,
    edge_orientation,
)
from .propagators import divisors
from .series import Coeff, invert, mul, normalize

Partition = tuple[int, ...]
State = dict  # partition -> coefficient


# -- partitions ---------------------------------------------------------


def partition_tuple(mu: Sequence[int]) -> Partition:
    """Canonical (weakly decreasing) form; entries must be positive."""
    t = tuple(sorted(mu, reverse=True))
    if any(p < 1 for p in t):
        raise ValueError("partition entries must be positive integers")
    return t


@lru_cache(maxsize=None)
def partitions(d: int) -> tuple[Partition, ...]:
    """All partitions of d, largest part first within each."""
    if d < 0:
        raise ValueError("cannot partition a negative integer")
    if d == 0:
        return ((),)

    def rec(rest: int, cap: int) -> Iterator[Partition]:
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail

    return tuple(rec(d, d))


def partition_aut(mu: Partition) -> int:
    """|Aut(mu)| = product over part values of (multiplicity!)."""
    out = 1
    for value in set(mu):
        out *= factorial(mu.count(value))
    return out


# -- states and generators ---------------------------------------------


def vacuum() -> State:
    return {(): 1}


def state_from_partition(mu: Sequence[int]) -> State:
    return {partition_tuple(mu): 1}


def inner_product(u: State, v: State) -> Coeff:
    """Pairing of two states: <b_mu, b_mu> = |Aut(mu)| * prod(mu)."""
    total: Coeff = 0
    small, big = (u, v) if len(u) <= len(v) else (v, u)
    for key, cu in small.items():
        cv = big.get(key)
        if cv is not None:
            total = total + cu * cv * partition_aut(key) * prod(key)
    return total


def apply_alpha(state: State, n: int) -> State:
    """alpha_n (creation for n < 0) applied to a state vector."""
    if n == 0:
        raise ValueError("alpha_0 is not a generator here")
    out: State = {}
    for key, coeff in state.items():
        if n < 0:
            new = tuple(sorted(key + (-n,), reverse=True))
            out[new] = out.get(new, 0) + coeff
        else:
            count = key.count(n)
            if count:
                pos = key.index(n)
                new = key[:pos] + key[pos + 1 :]
                out[new] = out.get(new, 0) + coeff * n * count
    return {k: c for k, c in out.items() if c != 0}


def cut_join(state: State) -> State:
    """One application of M to an unlabeled state vector.

    M has integer entries in the b_mu basis: each 1/2 pairs the ordered
    (i, j) term with its mirror (j, i), and a diagonal i = j term carries
    an even factor of its own.  So the doubled terms are summed exactly
    (in ``int`` for integer input) and each output key is halved once.
    """
    doubled: State = {}
    for key, coeff in state.items():
        # join: alpha_{-i} alpha_{-j} alpha_{i+j}, summed over ordered (i, j)
        for p in set(key):
            pos = key.index(p)
            removed = key[:pos] + key[pos + 1 :]
            base = coeff * p * key.count(p)
            for i in range(1, p):
                new = tuple(sorted(removed + (i, p - i), reverse=True))
                doubled[new] = doubled.get(new, 0) + base
        # cut: alpha_{-(i+j)} alpha_i alpha_j, summed over ordered (i, j)
        for j in set(key):
            posj = key.index(j)
            mid = key[:posj] + key[posj + 1 :]
            cj = coeff * j * key.count(j)
            for i in set(mid):
                posi = mid.index(i)
                rest = mid[:posi] + mid[posi + 1 :]
                new = tuple(sorted(rest + (i + j,), reverse=True))
                doubled[new] = doubled.get(new, 0) + cj * i * mid.count(i)
    return {
        k: c // 2 if isinstance(c, int) else c / 2
        for k, c in doubled.items()
        if c != 0
    }


def matrix_element(mu: Sequence[int], n: int, nu: Sequence[int]) -> Coeff:
    """<b_mu | M^n | b_nu>."""
    if n < 0:
        raise ValueError("operator power must be nonnegative")
    state = state_from_partition(nu)
    for _ in range(n):
        state = cut_join(state)
    return normalize(inner_product(state_from_partition(mu), state))


# -- Hurwitz-type counts -------------------------------------------------


def double_hurwitz(mu: Sequence[int], nu: Sequence[int], n: int) -> Coeff:
    """n! / (prod mu * prod nu) * <b_mu | M^n | b_nu>; degrees must agree.

    Normalization: the classical count of possibly disconnected covers of
    P^1 with profiles mu and nu over two points and n fixed simple branch
    points, each cover weighted by 1/|Aut|, times n! for the ordered
    branch points (the sum over vertex orders of the tropical count) and
    times |Aut mu| * |Aut nu| for labeled ends.  Equivalently
    n! * |Aut mu| * |Aut nu| / d! times the number of tuples
    (sigma, tau_1..tau_n) in S_d with sigma of type mu, the tau_i
    transpositions and (sigma tau_1...tau_n)^-1 of type nu; e.g. 9 at
    ((2,1), (2,1), 2).
    """
    mu_t, nu_t = partition_tuple(mu), partition_tuple(nu)
    if sum(mu_t) != sum(nu_t):
        raise ValueError("ramification profiles must have equal size")
    value = Fraction(factorial(n), prod(mu_t) * prod(nu_t)) * matrix_element(
        mu_t, n, nu_t
    )
    return normalize(value)


def elliptic_hurwitz_disconnected(g: int, n: int, d: int) -> Coeff:
    """sum over mu |- d of n!/(|Aut mu| prod mu) <b_mu|M^n|b_mu>, n = 2g-2.

    Normalization: the classical count of possibly disconnected degree-d
    covers of the elliptic curve with n fixed simple branch points, each
    cover weighted by 1/|Aut|, times n! for the ordered branch points (the
    sum over vertex orders of the tropical count, as in 279 = 3! * 93/2).
    By the character formula this is n! * sum_{lam |- d} f_2(lam)^n, with
    f_2(lam) the content sum of lam, so the value is always an integer;
    e.g. 36 = 2! * (3^2 + 0^2 + (-3)^2) at (g, d) = (2, 3).
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if n != 2 * g - 2:
        raise ValueError("simple branch point count must equal 2g - 2")
    total: Coeff = 0
    for mu in partitions(d):
        me = matrix_element(mu, n, mu)
        if me != 0:
            total = total + Fraction(factorial(n), partition_aut(mu) * prod(mu)) * me
    return normalize(total)


def partition_counts(q_order: int) -> list[int]:
    """p(0), ..., p(q_order)."""
    return [len(partitions(d)) for d in range(q_order + 1)]


def _set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for blocks in _set_partitions(rest):
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]
        yield [[first]] + blocks


def elliptic_hurwitz_connected(n: int, d: int) -> Coeff:
    """Connected count with n simple branch points in degree d.

    Obtained from the disconnected series: dividing out the unbranched
    contribution (the partition generating series) leaves the exponential
    generating series of branch-point-carrying components, and the usual
    set-partition Moebius step isolates the single-component term.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if n < 1 or n % 2 != 0:
        raise ValueError("need a positive even number of branch points")

    @lru_cache(maxsize=None)
    def branched_over_p(m: int) -> tuple[Coeff, ...]:
        g = (m + 2) // 2
        disc = [0] + [elliptic_hurwitz_disconnected(g, m, e) for e in range(1, d + 1)]
        return tuple(mul(disc, invert(partition_counts(d), d), d))

    @lru_cache(maxsize=None)
    def connected_series(m: int) -> tuple[Coeff, ...]:
        total = list(branched_over_p(m))
        for blocks in _set_partitions(tuple(range(m))):
            if len(blocks) <= 1:
                continue
            if any(len(b) % 2 != 0 for b in blocks):
                continue  # odd branch count cannot occur on a component
            term: list[Coeff] = [1] + [0] * d
            for b in blocks:
                term = mul(term, connected_series(len(b)), d)
            for e in range(d + 1):
                total[e] = total[e] - term[e]
        return tuple(normalize(c) for c in total)

    return connected_series(n)[d]


# -- labeled mode --------------------------------------------------------

Triple = tuple[int, int, int]  # (edge index, germ label, weight)
Plan = tuple[str, int, int]  # (kind, edge index, parameter); built in _operator_pass


def labeled_boundary_states(
    a: Sequence[int], windings: Mapping[int, int]
) -> tuple[tuple[Triple, ...], tuple[Triple, ...]]:
    """(bra key, ket key) for a multidegree and a choice of windings.

    Edge k with a_k > 0 and winding w contributes c = a_k / w triples of
    weight w (c base-point crossings): labels 1..c on the bra side and
    2..c+1 on the ket side, so labels 2..c interleave and the two end
    labels are consumed/produced by the vertex operators.
    """
    bra: list[Triple] = []
    ket: list[Triple] = []
    for idx, ak in enumerate(a):
        if ak == 0:
            continue
        k = idx + 1
        w = windings.get(k)
        if w is None or w < 1 or ak % w != 0:
            raise ValueError(f"edge {k}: winding must divide a_k = {ak}")
        c = ak // w
        bra.extend((k, j, w) for j in range(1, c + 1))
        ket.extend((k, j, w) for j in range(2, c + 2))
    return tuple(sorted(bra)), tuple(sorted(ket))


def winding_choices(a: Sequence[int]) -> Iterator[dict[int, int]]:
    """All winding dictionaries: a divisor of a_k for every edge with a_k > 0."""
    marked = [idx + 1 for idx, ak in enumerate(a) if ak > 0]
    options = [divisors(a[k - 1]) for k in marked]
    for combo in itertools.product(*options):
        yield dict(zip(marked, combo))


def _check_operator_graph(graph: FeynmanGraph) -> None:
    """The labeled operators have one three-germ factor per vertex."""
    if graph.num_loops:
        raise ValueError("labeled matrix elements need a loop-free graph")
    if any(d != 3 for d in graph.degrees()):
        raise ValueError("labeled matrix elements need a trivalent graph")


def _check_query(
    graph: FeynmanGraph, order: Sequence[int], a: Sequence[int], x_bound: int
) -> tuple[VertexOrder, Multidegree]:
    """The guards of one labeled entry point: graph, order, multidegree, window."""
    _check_operator_graph(graph)
    order = check_order(order, graph.n)
    a = check_multidegree(a, graph.num_edges)
    if x_bound < 0:
        raise ValueError(f"x_bound must be >= 0, got {x_bound}")
    return order, a


def _order_setup(
    graph: FeynmanGraph, order: VertexOrder
) -> tuple[list[int], dict[int, list[int]]]:
    """What a vertex order fixes: the tail (order-earlier endpoint) of every
    edge, and every vertex's incident edges (its germs) in index order."""
    tails = [edge_orientation(graph, idx, order)[0] for idx in range(graph.num_edges)]
    germs: dict[int, list[int]] = {v: [] for v in order}
    for idx, (u, v) in enumerate(graph.edges):
        germs[u].append(idx)
        germs[v].append(idx)
    return tails, germs


def _edge_caps(
    order: VertexOrder,
    tails: Sequence[int],
    germs: Mapping[int, Sequence[int]],
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    x_bound: int,
) -> dict[int, int]:
    """Largest weight an edge of degree 0 can carry and still contribute a
    monomial inside the |exponent| <= x_bound window, for every edge whose
    degree set holds 0.

    At the tail of such an edge the positive exponent +w must be offset,
    within the window, by the other germs there: an edge of degree a_e > 0
    contributes at most a_e, so at most its largest degree within the
    total cap, and an incoming edge of degree 0 at most its own (already
    computed) cap; processing tails in vertex order closes the caps.  With
    one degree per edge these are the caps of that multidegree.
    """
    caps: dict[int, int] = {}
    for tail_v in order:
        for idx in germs[tail_v]:
            if 0 not in degrees[idx] or tails[idx] != tail_v:
                continue
            cap = x_bound
            for other in germs[tail_v]:
                if other == idx:
                    continue
                top = min(max(degrees[other]), total_cap)
                if 0 in degrees[other] and tails[other] != tail_v:  # incoming: -w here
                    top = max(top, caps[other + 1])
                cap += top
            caps[idx + 1] = cap
    return caps


def _moves_for_key(
    plans: Sequence[Plan], windings: Mapping[int, int], key: tuple[Triple, ...]
) -> list[list[tuple[int, Triple]]]:
    """Per germ plan, the moves that can act on this basis key without
    dying, in ascending m (a key is sorted, so its triples are too).

    A plan is (kind, edge, parameter):

    * ("marked", k, a_k): edge with a_k > 0 and winding w -- either
      m = +w (consume the ket-side end label (k, a_k/w + 1, w)) or m = -w
      (produce the bra-side end label (k, 1, w));
    * ("annihilate", k, cap): a_k = 0 and this vertex is the tail (the
      order-earlier endpoint, whose operator acts second) -- it must
      consume whatever the partner germ created under label (k, 1);
    * ("create", k, cap): a_k = 0, this vertex is the head and acts
      first -- it must create (k, 1, m), m = 1..cap.
    """
    options: list[list[tuple[int, Triple]]] = []
    for kind, k, par in plans:
        if kind == "marked":
            w = windings[k]
            moves: list[tuple[int, Triple]] = [(-w, (k, 1, w))]
            end = (k, par // w + 1, w)
            if end in key:
                moves.append((w, end))
        elif kind == "annihilate":
            moves = [
                (t[2], t)
                for t in dict.fromkeys(key)
                if t[0] == k and t[1] == 1 and t[2] <= par
            ]
        else:
            moves = [(-m, (k, 1, m)) for m in range(par, 0, -1)]
        if not moves:
            return []
        options.append(moves)
    return options


def _apply_moves(
    key: tuple[Triple, ...], coeff: int, moves: Sequence[tuple[int, Triple]]
) -> tuple[tuple[Triple, ...], int] | None:
    """Apply a germ combination (annihilations then creations) to a basis key."""
    cur = list(key)
    c = coeff
    for m, triple in moves:
        if m > 0:
            count = cur.count(triple)
            if count == 0:
                return None
            c = c * m * count
            cur.remove(triple)
    for m, triple in moves:
        if m < 0:
            cur.append(triple)
    return tuple(sorted(cur)), c


def _vertex_operator(
    state: dict,
    vertex: int,
    plans: Sequence[Plan],
    windings: Mapping[int, int],
    x_bound: int,
) -> dict:
    """The three-germ operator of one vertex on (basis key, exponent vector)
    states; each germ move m multiplies by x_vertex^m.

    This is the only operator that changes x_vertex, so only moves that
    land it in the window |x_vertex| <= x_bound are kept: a germ keeps a
    move only if the other germs can still bring x_vertex into the window,
    the product runs over all germs but the last, and the last germ's move
    is looked up by each m that lands x_vertex in the window (within one
    germ the moves have distinct m).  At x_bound = 0 the moves must
    balance.  The moves depend on a state only through its key and
    x_vertex, so they are found once per such pair.
    """
    rows: dict = {}
    vi = vertex - 1
    for (key, xvec), coeff in state.items():
        rows.setdefault((key, xvec[vi]), []).append((xvec, coeff))
    out: dict = {}
    for (key, x0), group in rows.items():
        options = _moves_for_key(plans, windings, key)
        if not options:
            continue
        low = x0 + sum(moves[0][0] for moves in options)  # moves ascend in m
        high = x0 + sum(moves[-1][0] for moves in options)
        options = [
            [
                mv
                for mv in moves
                if moves[-1][0] - high - x_bound <= mv[0] <= moves[0][0] - low + x_bound
            ]
            for moves in options
        ]
        if not all(options):
            continue
        options.sort(key=len)  # the widest germ closes
        closing = {m: (m, t) for m, t in options[-1]}
        for combo in itertools.product(*options[:-1]):
            base = x0 + sum(m for m, _ in combo)
            for xv in range(-x_bound, x_bound + 1):
                last = closing.get(xv - base)
                if last is None:
                    continue
                res = _apply_moves(key, 1, combo + (last,))
                if res is None:
                    continue
                new_key, factor = res
                for xvec, coeff in group:
                    nk = (new_key, xvec[:vi] + (xv,) + xvec[vi + 1 :])
                    out[nk] = out.get(nk, 0) + coeff * factor
    return {k: c for k, c in out.items() if c != 0}


def _open_edge(
    groups: dict,
    idx: int,
    degrees: Sequence[int],
    total_cap: int,
    windings: Mapping[int, int] | None,
) -> dict:
    """Give edge idx a degree a_k (ascending, within each group's remaining
    budget) and a winding w | a_k, and put its ket triples (k, 2..c+1, w),
    c = a_k / w, into every key."""
    k = idx + 1
    out: dict = {}
    for (a, wind), states in groups.items():
        budget = total_cap - sum(a)
        for a_k in degrees:
            if a_k > budget:
                break
            if a_k == 0:
                out[a, wind] = states
                continue
            marked = a[:idx] + (a_k,) + a[idx + 1 :]
            for w in divisors(a_k) if windings is None else (windings[k],):
                ket = tuple((k, j, w) for j in range(2, a_k // w + 2))
                opened = {key: tuple(sorted(key + ket)) for key, _ in states}
                out[marked, wind[:idx] + (w,) + wind[idx + 1 :]] = {
                    (opened[key], xvec): c for (key, xvec), c in states.items()
                }
    return out


def _close_edges(groups: dict, idxs: Sequence[int]) -> dict:
    """Keep the states whose triples on each edge in idxs are exactly the
    bra's (k, 1..c, w), or none for a_k = 0, and drop those triples and
    windings; states that differed only there merge."""
    edges = {idx + 1 for idx in idxs}
    out: dict = {}
    for (a, wind), states in groups.items():
        bra = tuple(
            (idx + 1, j, wind[idx])
            for idx in idxs
            if a[idx]
            for j in range(1, a[idx] // wind[idx] + 1)
        )
        closed = tuple(0 if idx in idxs else w for idx, w in enumerate(wind))
        merged = out.setdefault((a, closed), {})
        rests: dict = {}  # key -> key without the closed edges, or None
        for (key, xvec), c in states.items():
            if key not in rests:
                mine = tuple(t for t in key if t[0] in edges)
                rests[key] = tuple(t for t in key if t[0] not in edges) if mine == bra else None
            rest = rests[key]
            if rest is not None:
                merged[rest, xvec] = merged.get((rest, xvec), 0) + c
    return {group: states for group, states in out.items() if states}


def _operator_pass(
    graph: FeynmanGraph,
    order: VertexOrder,
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    windings: Mapping[int, int] | None,
    x_bound: int,
) -> dict[tuple[Multidegree, tuple[int, ...]], int]:
    """{(a, exponent vector): coefficient} of the labeled operator product
    at every multidegree with a_k in degrees[k] (ascending) and
    sum(a) <= total_cap, summed over every winding choice (or at the one
    choice ``windings``), inside the window |x_v| <= x_bound.

    One pass over the vertices in acting order (the order-last vertex acts
    on the ket first).  States are (multidegree so far, windings of the
    open edges, basis key, exponent vector).  A vertex first opens the
    edges it heads (:func:`_open_edge`), then applies its windowed
    operator (:func:`_vertex_operator`), then closes the edges it tails
    (:func:`_close_edges`).  This is exact for any window: vertex v's
    operator is the only one that moves x_v; an edge's triples are
    untouched until its head acts and cannot change after its tail acts;
    and the bra's triples are distinct, so each coefficient is the bra
    component of :func:`labeled_series_product`.  States of different
    multidegrees share every step before the edges where they differ open.
    The caller has checked the graph (:func:`_check_operator_graph`).
    """
    n, r = graph.n, graph.num_edges
    tails, germs = _order_setup(graph, order)
    caps = _edge_caps(order, tails, germs, degrees, total_cap, x_bound)
    opens: dict[int, list[int]] = {v: [] for v in order}
    closes: dict[int, list[int]] = {v: [] for v in order}
    for idx, tail in enumerate(tails):
        closes[tail].append(idx)
        opens[sum(graph.edges[idx]) - tail].append(idx)
    groups: dict = {((0,) * r, (0,) * r): {((), (0,) * n): 1}}
    for vertex in reversed(order):
        for idx in opens[vertex]:
            groups = _open_edge(groups, idx, degrees[idx], total_cap, windings)
        stepped: dict = {}
        for (a, wind), states in groups.items():
            plans: list[Plan] = []
            for idx in germs[vertex]:
                if a[idx]:
                    plans.append(("marked", idx + 1, a[idx]))
                else:
                    kind = "annihilate" if tails[idx] == vertex else "create"
                    plans.append((kind, idx + 1, caps[idx + 1]))
            here = {idx + 1: wind[idx] for idx in germs[vertex] if a[idx]}
            states = _vertex_operator(states, vertex, plans, here, x_bound)
            if states:
                stepped[a, wind] = states
        groups = _close_edges(stepped, closes[vertex]) if closes[vertex] else stepped
        if not groups:
            break
    return {(a, xvec): c for (a, _), states in groups.items() for (_, xvec), c in states.items()}


def _fock_table(graph: FeynmanGraph, order: VertexOrder, amax: int) -> dict[Multidegree, int]:
    """:func:`fock_cover_count` at every multidegree with sum(a) <= amax,
    from one pass (zero entries dropped); the caller has checked the graph."""
    degrees = [range(amax + 1)] * graph.num_edges
    return {a: c for (a, _), c in _operator_pass(graph, order, degrees, amax, None, 0).items()}


def _series(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Multidegree,
    windings: Mapping[int, int],
    x_bound: int,
) -> dict[tuple[int, ...], int]:
    """The pass at one multidegree and one winding choice, by exponent vector."""
    table = _operator_pass(graph, order, [(x,) for x in a], sum(a), windings, x_bound)
    return {xvec: c for (_, xvec), c in table.items()}


def labeled_series_product(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    windings: Mapping[int, int],
    x_bound: int,
) -> dict[tuple[int, ...], int]:
    """prod_k (1/w_k)^{a_k/w_k} <bra| M_{last} ... M_{first} |ket> as a
    vertex-exponent series, restricted to |exponent| <= x_bound in every
    slot.

    The bra's triples are distinct, so <bra|bra> = prod_k w_k^{a_k/w_k}
    cancels the winding prefactor and each coefficient is the bra
    component of the state.  The window is applied vertex by vertex: the
    operator of vertex v is the only one that moves x_v, so it drops every
    state whose x_v falls outside the window, and no later step can bring
    it back.  Defined for loop-free trivalent graphs, where the operator
    product has one three-germ factor per vertex.  A view of
    :func:`_operator_pass` with one degree and one winding per edge.
    """
    order, a = _check_query(graph, order, a, x_bound)
    labeled_boundary_states(a, windings)  # every winding must divide its a_k
    return _series(graph, order, a, windings, x_bound)


def labeled_matrix_element(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    windings: Mapping[int, int],
) -> int:
    """The exponent-zero coefficient of :func:`labeled_series_product` in
    the window x_bound = 0, where every vertex must balance: the weighted
    cover count of one winding choice."""
    return labeled_series_product(graph, order, a, windings, 0).get((0,) * graph.n, 0)


def fock_cover_count(
    graph: FeynmanGraph, order: VertexOrder, a: Sequence[int]
) -> int:
    """Sum of labeled matrix elements over all winding choices: the pass
    with the one degree a_k on edge k."""
    order, a = _check_query(graph, order, a, 0)
    return sum(_operator_pass(graph, order, [(x,) for x in a], sum(a), None, 0).values())


def _edge_factor_product(
    graph: FeynmanGraph,
    tails: Sequence[int],
    a: Sequence[int],
    windings: Mapping[int, int],
    x_bound: int,
    caps: Mapping[int, int],
) -> dict[tuple[int, ...], int]:
    """prod over edges of the expected two-endpoint factor, as a series.

    Edges with a_k > 0 contribute w ((x_t/x_h)^w + (x_h/x_t)^w) for the
    chosen winding w; edges with a_k = 0 contribute sum_w w (x_t/x_h)^w up
    to the edge cap.  A vertex's exponent is final once its last edge is
    in, so the window is applied to it then.
    """
    last_edge = {v: idx for idx, edge in enumerate(graph.edges) for v in edge}
    series: dict[tuple[int, ...], int] = {(0,) * graph.n: 1}
    for idx, (u, v) in enumerate(graph.edges):
        ti = tails[idx] - 1
        hi = u + v - tails[idx] - 1
        if a[idx] > 0:
            w = windings[idx + 1]
            factor = [(w, w), (-w, w)]  # (signed winding at tail, weight w)
        else:
            factor = [(w, w) for w in range(1, caps[idx + 1] + 1)]
        new: dict[tuple[int, ...], int] = {}
        for xvec, coeff in series.items():
            for signed, w in factor:
                nx = list(xvec)
                nx[ti] += signed
                nx[hi] -= signed
                key = tuple(nx)
                new[key] = new.get(key, 0) + coeff * w
        done = [x - 1 for x in (u, v) if last_edge[x] == idx]
        series = {k: c for k, c in new.items() if all(abs(k[i]) <= x_bound for i in done)}
    return {k: c for k, c in series.items() if c != 0}


def labeled_series_product_check(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    x_bound: int,
) -> bool:
    """Verify the variable-tracking matrix element factorizes over edges.

    Checks, winding choice by winding choice, that the tracked operator
    product equals the explicit edge-factor product inside the exponent
    window, and that the winding-summed exponent-zero coefficient is the
    weighted cover count.
    """
    order, a = _check_query(graph, order, a, x_bound)
    tails, germs = _order_setup(graph, order)
    caps = _edge_caps(order, tails, germs, [(x,) for x in a], sum(a), x_bound)
    zero = (0,) * graph.n
    total_zero = 0
    for windings in winding_choices(a):
        lhs = _series(graph, order, a, windings, x_bound)
        rhs = _edge_factor_product(graph, tails, a, windings, x_bound, caps)
        if lhs != rhs:
            return False
        total_zero += lhs.get(zero, 0)
    from .covers import cover_count

    return total_zero == cover_count(graph, order, a)
