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
pairing, so every intermediate state is inspectable.  M acts through one
cached row per basis partition, built when the partition is first reached.

Labeled mode: one Heisenberg generator alpha^{(k,j)}_n per (edge k,
germ label j); generators with different (k, j) commute.  A trivalent
loop-free graph with a vertex order and a multidegree a gives one
three-germ operator per vertex, and each germ move m at vertex v also
multiplies by x_v^m.  Generators of different edges commute and only the
two endpoints of an edge move its labels, so a basis state is one record
(a_k, w_k, labels) per edge: its degree, its winding and the sorted
labels of its germs.  States map such records to {exponent vector:
coefficient}, and each vertex keeps only the moves that land x_v in a
window |x_v| <= x_bound.  The operator product, sandwiched between
explicit bra/ket states, is the product of the edge factors; its
exponent-zero coefficient at x_bound = 0, where every vertex balances, is
the labeled matrix element, and it reproduces the weighted cover count
winding by winding.

One pass, :func:`_operator_pass`, runs the product at every multidegree
and winding choice at once.  It walks the vertices in acting order, and
each vertex is one fused step (:func:`_vertex_step`): its head germs open
their edges (choosing a_k from a degree set and w | a_k, with that edge's
ket labels) and move, and its tail germs make the one move that leaves
their edge's bra labels, which closes the edge.  x_v is 0 before v acts,
so a step's moves depend only on the records it closes and the budget
left, and are found once for all states that share them.  What a vertex
does depends only on which of its neighbours have already acted, so one
depth-first walk over the shared suffixes of a list of vertex orders
serves them all; the weight caps of the a_k = 0 edges are shared by the
walked orders and never exceed the flow bound sum(a) + n * x_bound.
:func:`fock_tables` reads one walk over every order as one table per
order, keyed by multidegree, which ``fock check`` compares with
:func:`~trofey.covers.cover_table`.  :func:`fock_cover_count` and the
``labeled_*`` functions are one-order views with one degree (and one
winding) per edge.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Callable, Iterator, Mapping, Sequence

from .graphs import (
    FeynmanGraph,
    Multidegree,
    VertexOrder,
    all_orders,
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


@lru_cache(maxsize=None)
def _cut_join_row(mu: Partition) -> tuple[tuple[Partition, int], ...]:
    """M b_mu as (partition, coefficient) pairs: the row of one basis key.

    M has integer entries in the b_mu basis: each 1/2 pairs the ordered
    (i, j) term with its mirror (j, i), and a diagonal i = j term carries
    an even factor of its own.  So the doubled terms are summed in ``int``
    and each entry is halved once, exactly.
    """
    doubled: dict[Partition, int] = {}
    # join: alpha_{-i} alpha_{-j} alpha_{i+j}, summed over ordered (i, j)
    for p in set(mu):
        pos = mu.index(p)
        removed = mu[:pos] + mu[pos + 1 :]
        base = p * mu.count(p)
        for i in range(1, p):
            new = tuple(sorted(removed + (i, p - i), reverse=True))
            doubled[new] = doubled.get(new, 0) + base
    # cut: alpha_{-(i+j)} alpha_i alpha_j, summed over ordered (i, j)
    for j in set(mu):
        posj = mu.index(j)
        mid = mu[:posj] + mu[posj + 1 :]
        cj = j * mu.count(j)
        for i in set(mid):
            posi = mid.index(i)
            rest = mid[:posi] + mid[posi + 1 :]
            new = tuple(sorted(rest + (i + j,), reverse=True))
            doubled[new] = doubled.get(new, 0) + cj * i * mid.count(i)
    return tuple((key, c // 2) for key, c in doubled.items())


def cut_join(state: State) -> State:
    """One application of M to an unlabeled state vector: the linear
    extension of the cached rows (:func:`_cut_join_row`), so each
    partition's row is built once, when it is first reached."""
    out: State = {}
    for key, coeff in state.items():
        for new, c in _cut_join_row(key):
            out[new] = out.get(new, 0) + coeff * c
    return {k: c for k, c in out.items() if c != 0}


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
Record = tuple[int, int, tuple[int, ...]]  # one edge in the pass: (a_k, w_k, labels)
Move = tuple[int, int, Record, int]  # (m, a_k it opens, new record, factor)
Opened = tuple[tuple[Record, ...], int, int]  # (new records, sum of moves, factor)


def _edge_triples(k: int, a_k: int, w: int, first: int) -> tuple[Triple, ...]:
    """Edge k's c = a_k / w triples of weight w, labeled first..first+c-1:
    first = 1 on the bra side, 2 on the ket side."""
    return tuple((k, j, w) for j in range(first, a_k // w + first))


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
        bra.extend(_edge_triples(k, ak, w, 1))
        ket.extend(_edge_triples(k, ak, w, 2))
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
) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]]]:
    """What a vertex order fixes: the tail (order-earlier endpoint) of every
    edge, and every vertex's incident edges (its germs) in index order."""
    tails = tuple(edge_orientation(graph, idx, order)[0] for idx in range(graph.num_edges))
    germs = {v: tuple(idx for idx, edge in enumerate(graph.edges) if v in edge) for v in order}
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


def _opening_moves(
    germs: Sequence[Sequence[Move]], budget: int, targets: range
) -> list[Opened]:
    """Every way the germs that open edges at one vertex can act together,
    as (new records in germ order, sum of their moves, factor), keeping the
    sums in ``targets`` and the degrees they open within the budget.

    The other germs are combined first, and the widest germ's moves are
    looked up by the m that lands the sum in ``targets``.
    """
    if not germs:
        return [((), 0, 1)] if 0 in targets else []
    widest = max(range(len(germs)), key=lambda i: len(germs[i]))
    by_move: dict[int, list[Move]] = {}
    for move in germs[widest]:
        by_move.setdefault(move[0], []).append(move)
    partial = [(0, 0, (), 1)]  # (sum of moves, degrees opened, records, factor)
    for i, moves in enumerate(germs):
        if i != widest:
            partial = [
                (base + m, spent + a_k, records + (record,), factor * f)
                for base, spent, records, factor in partial
                for m, a_k, record, f in moves
                if spent + a_k <= budget
            ]
    found = []
    for base, spent, records, factor in partial:
        for total in targets:
            for _, a_k, record, f in by_move.get(total - base, ()):
                if spent + a_k <= budget:
                    found.append(
                        (records[:widest] + (record,) + records[widest:], total, factor * f)
                    )
    return found


def _closing_moves(ended: Sequence[Record]) -> tuple[tuple[Record, ...], int, int] | None:
    """The tail germs' moves on the edges a vertex closes, as (closed
    records, sum of the moves, factor), or None if some edge cannot reach
    its bra labels 1..c (none when a_k = 0).

    A record's labels are sorted and distinct: the head left either 1..c+1
    or 2..c.  So the tail germ consumes the end label c + 1 (m = +w, factor
    w) from the first or produces label 1 (m = -w) in the second.  The edge
    then closes to (a_k, 0, ()), so states of different windings merge.
    """
    closed, total, factor = [], 0, 1
    for a_k, w, labels in ended:
        end = a_k // w + 1
        bra = tuple(range(1, end))
        if labels == (*bra, end):
            total, factor = total + w, factor * w
        elif (1, *labels) == bra:
            total -= w
        else:
            return None
        closed.append((a_k, 0, ()))
    return tuple(closed), total, factor


def _vertex_step(
    groups: dict,
    vertex: int,
    opens: tuple[int, ...],
    closes: Sequence[int],
    opening: Callable[[tuple[int, ...], int, int], list[Opened]],
    total_cap: int,
) -> dict:
    """One vertex acting on {records: {exponent vector: coefficient}}: it
    opens the edges ``opens``, moves its germs, and closes the edges
    ``closes``.

    The tail germs' moves are fixed by the records they close
    (:func:`_closing_moves`), so the head germs' moves depend on a state
    only through the remaining budget and that fixed sum of moves:
    ``opening(opens, budget, sum)`` returns them, with x_vertex (0 before
    the vertex acts) inside the window.  Each is applied to every state of
    a group by replacing the vertex's records and setting slot ``vertex``
    of each exponent vector.
    """
    vi = vertex - 1
    slots = [*opens, *closes]
    closing: dict = {}
    out: dict = {}
    for records, states in groups.items():
        ended = tuple(records[idx] for idx in closes)
        if ended not in closing:
            closing[ended] = _closing_moves(ended)
        if closing[ended] is None:
            continue
        closed, m_close, f_close = closing[ended]
        budget = total_cap - sum([rec[0] for rec in records]) if opens else 0
        for opened, m_open, f_open in opening(opens, budget, m_close):
            new = list(records)
            for idx, record in zip(slots, opened + closed):
                new[idx] = record
            target = out.setdefault(tuple(new), {})
            xv, factor = m_open + m_close, f_open * f_close
            for xvec, c in states.items():
                nx = xvec[:vi] + (xv,) + xvec[vi + 1 :]
                target[nx] = target.get(nx, 0) + c * factor
    return out


def _pass_caps(
    graph: FeynmanGraph,
    orders: Sequence[VertexOrder],
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    x_bound: int,
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """The create cap of every edge whose degree set holds 0, shared by all
    ``orders``, and every vertex's germs.

    An edge is created at its head before the walk knows its tail's place
    in the order, so its cap cannot depend on the order: it is the largest
    :func:`_edge_caps` value over ``orders``, but at most the flow bound
    B = total_cap + n * x_bound.  Both bound the weight of any term inside
    the window: the a_k = 0 weights form a flow along the order's acyclic
    orientation whose sources are the windows (at most x_bound each) and
    the marked edges' -w germs (sum(w) <= sum(a) <= total_cap), and an
    acyclic flow carries at most its total supply on any edge.
    """
    flow_bound = total_cap + graph.n * x_bound
    caps: dict[int, int] = {}
    germs: dict[int, tuple[int, ...]] = {}
    for order in orders:
        tails, germs = _order_setup(graph, order)
        for k, cap in _edge_caps(order, tails, germs, degrees, total_cap, x_bound).items():
            caps[k] = min(max(caps.get(k, 0), cap), flow_bound)
    return caps, germs


def _operator_pass(
    graph: FeynmanGraph,
    orders: Sequence[VertexOrder],
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    windings: Mapping[int, int] | None,
    x_bound: int,
) -> dict[VertexOrder, dict[tuple[Multidegree, tuple[int, ...]], int]]:
    """Per vertex order, {(a, exponent vector): coefficient} of the labeled
    operator product at every multidegree with a_k in degrees[k]
    (ascending) and sum(a) <= total_cap, summed over every winding choice
    (or at the one choice ``windings``), inside the window |x_v| <= x_bound.

    The vertices act in reverse order (the order-last vertex acts on the
    ket first).  A state is one record (a_k, w_k, labels) per edge, mapped
    to {exponent vector: coefficient}; ``labels`` is the sorted tuple of
    the edge's germ labels, all of weight w_k.  An edge is (0, 0, ()) until
    its head acts and (a_k, 0, ()) once its tail has.  Each vertex is one
    :func:`_vertex_step`: the germ at its head opens the edge, choosing
    a_k within the remaining budget and w | a_k (or the one given winding)
    with ket labels 2..c+1, c = a_k / w, and producing label 1 (m = -w) or
    consuming label c+1 (m = +w, factor w); an a_k = 0 edge is created as
    label 1 of weight m <= its cap.  The germ at its tail keeps only the
    moves that leave exactly the bra labels 1..c (:func:`_closing_moves`).
    This is exact for any window: vertex v's operator is the only one that
    moves x_v, an edge's labels change only at its two endpoints, and the
    bra's labels are distinct, so each coefficient is the bra component of
    :func:`labeled_series_product`.

    Which edges a vertex heads or tails depends only on which of its
    neighbours have already acted, and the create caps are shared
    (:func:`_pass_caps`).  So the states after a suffix of the order has
    acted serve every order ending in it, and one depth-first walk over the
    shared suffixes of ``orders`` serves them all: for the 24 orders of
    four vertices, 4 + 12 + 24 + 24 vertex steps instead of 96.  The caller
    has checked the graph (:func:`_check_operator_graph`).
    """
    n, r = graph.n, graph.num_edges
    caps, germs = _pass_caps(graph, orders, degrees, total_cap, x_bound)
    heads: dict[tuple[int, int], list[Move]] = {}
    joint: dict[tuple[tuple[int, ...], int, int], list[Opened]] = {}

    def head_moves(idx: int, budget: int) -> list[Move]:
        """The head germ's moves on edge idx with a_k <= budget."""
        found = heads.get((idx, budget))
        if found is None:
            found = heads[idx, budget] = []
            for a_k in degrees[idx]:
                if a_k > budget:
                    break
                if a_k == 0:
                    found += [(-m, 0, (0, m, (1,)), 1) for m in range(1, caps[idx + 1] + 1)]
                    continue
                for w in divisors(a_k) if windings is None else (windings[idx + 1],):
                    ket = tuple(range(2, a_k // w + 2))
                    found.append((-w, a_k, (a_k, w, (1, *ket)), 1))
                    found.append((w, a_k, (a_k, w, ket[:-1]), w))
        return found

    def opening(opens: tuple[int, ...], budget: int, m_close: int) -> list[Opened]:
        """The head germs' joint moves at a vertex whose tail germs move by
        m_close, so that x_vertex lands in the window."""
        key = (opens, budget, m_close)
        if key not in joint:
            germs = [head_moves(idx, budget) for idx in opens]
            targets = range(-x_bound - m_close, x_bound - m_close + 1)
            joint[key] = _opening_moves(germs, budget, targets)
        return joint[key]

    # depth first over the shared suffixes: with the orders sorted by their
    # acting sequence, each one reuses the states of the longest acting
    # prefix it shares with the one before
    tables: dict[VertexOrder, dict] = {}
    stack = [{((0, 0, ()),) * r: {(0,) * n: 1}}]  # states after each step
    done: tuple[int, ...] = ()
    for acting in sorted({order[::-1] for order in orders}):
        shared = next((i for i, (u, v) in enumerate(zip(acting, done)) if u != v), len(done))
        del stack[shared + 1 :]
        for depth in range(shared, n):
            vertex, groups = acting[depth], stack[depth]
            if groups:  # else every later step is empty too
                acted = acting[:depth]
                opens = tuple(
                    i for i in germs[vertex] if sum(graph.edges[i]) - vertex not in acted
                )
                closes = [i for i in germs[vertex] if i not in opens]
                groups = _vertex_step(groups, vertex, opens, closes, opening, total_cap)
            stack.append(groups)
        tables[acting[::-1]] = {
            (tuple(rec[0] for rec in records), xvec): c
            for records, states in stack[n].items()
            for xvec, c in states.items()
        }
        done = acting
    return {order: tables[order] for order in orders}


def fock_tables(graph: FeynmanGraph, amax: int) -> dict[VertexOrder, dict[Multidegree, int]]:
    """:func:`fock_cover_count` at every multidegree with sum(a) <= amax, for
    every vertex order, from one walk (zero entries dropped).  The graph is
    checked once, before any order."""
    _check_operator_graph(graph)
    degrees = [range(amax + 1)] * graph.num_edges
    tables = _operator_pass(graph, list(all_orders(graph.n)), degrees, amax, None, 0)
    return {
        order: {a: c for (a, _), c in table.items()} for order, table in tables.items()
    }


def _series(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Multidegree,
    windings: Mapping[int, int],
    x_bound: int,
) -> dict[tuple[int, ...], int]:
    """The pass at one multidegree and one winding choice, by exponent vector."""
    table = _operator_pass(graph, [order], [(x,) for x in a], sum(a), windings, x_bound)[order]
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
    table = _operator_pass(graph, [order], [(x,) for x in a], sum(a), None, 0)[order]
    return sum(table.values())


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
