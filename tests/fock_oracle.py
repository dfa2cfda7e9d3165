"""Test-only oracles for the operator route: the per-winding labeled product,
and cut-and-join applied without cached rows.

The labeled product is the one that ``trofey.fock`` ran before the
one-pass table.  For one (graph, order, multidegree, window) it builds the
edge tails, the weight caps of the a_k = 0 edges and every vertex's germ
plans, then, for each winding choice on its own, applies the vertex
operators in acting order to the full ket of that choice and keeps the bra
component.  It shares the windowed vertex operator with the pass (which has
its own product-then-filter oracle in ``tests/test_fock.py``) but none of
the pass's edge opening, closing or merging, so equal values check those.

:func:`cut_join_reference` is the body ``trofey.fock.cut_join`` had before
it read cached per-partition rows: it applies M to every key of a state on
the spot.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from trofey.fock import (
    Plan,
    State,
    _check_operator_graph,
    _vertex_operator,
    labeled_boundary_states,
    winding_choices,
)
from trofey.graphs import FeynmanGraph, VertexOrder, edge_orientation


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
    tails = [edge_orientation(graph, idx, order)[0] for idx in range(graph.num_edges)]
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
