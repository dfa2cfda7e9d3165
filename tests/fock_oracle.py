"""Test-only oracles for the operator route: the labeled operator pass on
whole basis keys, the per-winding labeled product, cut-and-join applied
without cached rows, and the connected elliptic Hurwitz count.

:func:`operator_pass_reference` is the body ``trofey.fock._operator_pass``
had before its states became per-edge records.  A state there is
(multidegree so far, windings of the open edges) -> {(basis key, exponent
vector): coefficient}, with one sorted basis key of (edge, label, weight)
triples over all open edges.  Each vertex opens the edges it heads
(:func:`_open_edge`), applies its windowed operator to whole keys
(:func:`_vertex_operator`, moves from :func:`_moves_for_key` applied by
:func:`_apply_moves`), then closes the edges it tails
(:func:`_close_edges`).  It shares the create caps
(``trofey.fock._pass_caps``) with the pass and nothing of its state or
step.

The per-winding product is the one that ``trofey.fock`` ran before the
one-pass table.  For one (graph, order, multidegree, window) it builds the
edge tails, the weight caps of the a_k = 0 edges and every vertex's germ
plans, then, for each winding choice on its own, applies the vertex
operators in acting order to the full ket of that choice and keeps the bra
component (:func:`labeled_boundary_states` builds both).  It uses this
module's windowed vertex operator (which has its own product-then-filter
oracle in ``tests/test_fock.py``) and no code of the pass.  It keeps the
explicit germ labels that the pass's (a_k, m) records leave implicit, so
equal values check the head moves and each tail's one closing move, -m.

:func:`cut_join_reference` is the body ``trofey.fock.cut_join`` had before
it read cached per-partition rows: it applies M to every key of a state on
the spot.

:func:`elliptic_hurwitz_connected` is the connected count of covers of the
elliptic curve with n simple branch points, read off the disconnected one
(``trofey.fock.elliptic_hurwitz_disconnected``): dividing out the
partition series (:func:`partition_counts`) leaves the exponential series
of branched components, and the set-partition Moebius step
(:func:`_set_partitions`) keeps the one-component term.  No command
reads it; it checks the operator side against
``trofey.covers.invariant((1, 1), d)``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from trofey.fock import (
    State,
    _check_operator_graph,
    _pass_caps,
    elliptic_hurwitz_disconnected,
    partitions,
    winding_choices,
)
from trofey.graphs import FeynmanGraph, Multidegree, VertexOrder
from trofey.propagators import divisors
from trofey.series import Coeff, invert, mul, normalize

Plan = tuple[str, int, int]  # (kind, edge index, parameter)
Triple = tuple[int, int, int]  # (edge index, germ label, weight)


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
        low = high = x0
        for moves in options:  # moves ascend in m
            low += moves[0][0]
            high += moves[-1][0]
        if low > x_bound or high < -x_bound:
            continue
        for i, moves in enumerate(options):
            least, most = moves[-1][0] - high - x_bound, moves[0][0] - low + x_bound
            if least > moves[0][0] or most < moves[-1][0]:
                options[i] = [mv for mv in moves if least <= mv[0] <= most]
        options.sort(key=len)  # the widest germ closes; an empty one yields nothing
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
                ket = _edge_triples(k, a_k, w, 2)
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
            t for idx in idxs if a[idx] for t in _edge_triples(idx + 1, a[idx], wind[idx], 1)
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


def operator_pass_reference(
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
    ket first).  States are (multidegree so far, windings of the open
    edges, basis key, exponent vector).  A vertex first opens the edges it
    heads (:func:`_open_edge`), then applies its windowed operator
    (:func:`_vertex_operator`), then closes the edges it tails
    (:func:`_close_edges`).  This is exact for any window: vertex v's
    operator is the only one that moves x_v; an edge's triples are
    untouched until its head acts and cannot change after its tail acts;
    and the bra's triples are distinct, so each coefficient is the bra
    component of ``labeled_series_product``.  It walks the shared suffixes
    of ``orders`` with the create caps of ``trofey.fock._pass_caps``, as
    the pass does.  The caller has checked the graph.
    """
    n, r = graph.n, graph.num_edges
    caps = _pass_caps(graph, orders, degrees, total_cap, x_bound)
    germs = {v: [i for i, edge in enumerate(graph.edges) if v in edge] for v in range(1, n + 1)}

    def act(groups: dict, vertex: int, acted: frozenset[int]) -> dict:
        tailed = {idx for idx in germs[vertex] if sum(graph.edges[idx]) - vertex in acted}
        for idx in germs[vertex]:
            if idx not in tailed:
                groups = _open_edge(groups, idx, degrees[idx], total_cap, windings)
        stepped: dict = {}
        for (a, wind), states in groups.items():
            plans: list[Plan] = []
            for idx in germs[vertex]:
                if a[idx]:
                    plans.append(("marked", idx + 1, a[idx]))
                else:
                    kind = "annihilate" if idx in tailed else "create"
                    plans.append((kind, idx + 1, caps[idx + 1]))
            here = {idx + 1: wind[idx] for idx in germs[vertex] if a[idx]}
            states = _vertex_operator(states, vertex, plans, here, x_bound)
            if states:
                stepped[a, wind] = states
        closes = [idx for idx in germs[vertex] if idx in tailed]
        return _close_edges(stepped, closes) if closes else stepped

    # depth first over the shared suffixes: with the orders sorted by their
    # acting sequence, each one reuses the states of the longest acting
    # prefix it shares with the one before
    tables: dict[VertexOrder, dict] = {}
    stack = [{((0,) * r, (0,) * r): {((), (0,) * n): 1}}]  # groups after each step
    done: tuple[int, ...] = ()
    for acting in sorted({order[::-1] for order in orders}):
        shared = next((i for i, (u, v) in enumerate(zip(acting, done)) if u != v), len(done))
        del stack[shared + 1 :]
        for depth in range(shared, n):
            groups = stack[depth]
            stack.append(act(groups, acting[depth], frozenset(acting[:depth])) if groups else {})
        tables[acting[::-1]] = {
            (a, xvec): c for (a, _), states in stack[n].items() for (_, xvec), c in states.items()
        }
        done = acting
    return {order: tables[order] for order in orders}


def _operator_setup(
    graph: FeynmanGraph, order: VertexOrder, a: Sequence[int], x_bound: int
) -> tuple[list[int], dict[int, int], list[tuple[int, list[Plan]]]]:
    """Everything one (graph, order, multidegree, window) fixes for every
    winding choice: the edge tails, the weight caps of the a_k = 0 edges
    (:func:`_direct_edge_caps`) and, in acting order (the order-last
    vertex acts on the ket first), each vertex with its germ plans.
    """
    _check_operator_graph(graph)
    if len(a) != graph.num_edges or any(x < 0 for x in a):
        raise ValueError("bad multidegree")
    if x_bound < 0:
        raise ValueError(f"x_bound must be >= 0, got {x_bound}")
    tails = [u if order.index(u) < order.index(v) else v for u, v in graph.edges]
    caps = _direct_edge_caps(graph, order, a, tails, x_bound)
    plans = [
        (vertex, _germ_plans(graph, a, tails, caps, vertex)) for vertex in reversed(order)
    ]
    return tails, caps, plans


def _direct_edge_caps(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    tails: Sequence[int],
    x_bound: int,
) -> dict[int, int]:
    """Largest weight an a_k = 0 edge can carry and still contribute a
    monomial inside the |exponent| <= x_bound window.

    At the tail of such an edge the positive exponent +w must be offset,
    within the window, by the other germs there: marked edges contribute
    at most a_e, and incoming unmarked edges at most their own (already
    computed) cap, so processing tails in vertex order closes the caps.
    """
    caps: dict[int, int] = {}
    incident: dict[int, list[int]] = {v: [] for v in range(1, graph.n + 1)}
    for idx, (u, v) in enumerate(graph.edges):
        incident[u].append(idx)
        incident[v].append(idx)
    for tail_v in order:
        for idx in incident[tail_v]:
            if a[idx] > 0 or tails[idx] != tail_v:
                continue
            cap = x_bound
            for other in incident[tail_v]:
                if other == idx:
                    continue
                if a[other] > 0:
                    cap += a[other]
                elif tails[other] != tail_v:  # incoming: contributes -w here
                    cap += caps[other + 1]
            caps[idx + 1] = cap
    return caps


def _germ_plans(
    graph: FeynmanGraph,
    a: Sequence[int],
    tails: Sequence[int],
    caps: Mapping[int, int],
    vertex: int,
) -> list[Plan]:
    """One plan per incident edge germ: how this vertex's germ may move.

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
    plans: list[Plan] = []
    for idx, (u, v) in enumerate(graph.edges):
        if vertex not in (u, v):
            continue
        k = idx + 1
        if a[idx] > 0:
            plans.append(("marked", k, a[idx]))
        else:
            kind = "annihilate" if vertex == tails[idx] else "create"
            plans.append((kind, k, caps[k]))
    return plans


def _operator_series(
    n: int,
    plans: Sequence[tuple[int, Sequence[Plan]]],
    a: Sequence[int],
    windings: Mapping[int, int],
    x_bound: int,
) -> dict[tuple[int, ...], int]:
    """{exponent vector: coefficient} of the bra component of the operator
    product applied to the full ket of one winding choice."""
    bra, ket = labeled_boundary_states(a, windings)
    state: dict = {(ket, (0,) * n): 1}
    for vertex, germs in plans:
        state = _vertex_operator(state, vertex, germs, windings, x_bound)
        if not state:
            break
    return {xvec: c for (key, xvec), c in state.items() if key == bra}


def series_product_reference(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    windings: Mapping[int, int],
    x_bound: int,
) -> dict[tuple[int, ...], int]:
    """The tracked operator product of one winding choice."""
    _, _, plans = _operator_setup(graph, order, a, x_bound)
    return _operator_series(graph.n, plans, a, windings, x_bound)


def fock_cover_count_reference(
    graph: FeynmanGraph, order: VertexOrder, a: Sequence[int]
) -> int:
    """Sum over winding choices of the exponent-zero coefficient at window 0."""
    _, _, plans = _operator_setup(graph, order, a, 0)
    zero = (0,) * graph.n
    return sum(
        _operator_series(graph.n, plans, a, windings, 0).get(zero, 0)
        for windings in winding_choices(a)
    )


def cut_join_reference(state: State) -> State:
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
        disc = [0] + [elliptic_hurwitz_disconnected(g, e) for e in range(1, d + 1)]
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
