"""Graph covers: the combinatorial route to the descendant invariants.

A cover datum ("tuple") for (graph, vertex order, multidegree a, leaks l)
assigns to every edge a winding and a transport direction:

* loop edges need a_k >= 1 and carry a winding w | a_k (no direction);
* non-loop edges with a_k > 0 ("curled") carry w | a_k and either
  direction;
* non-loop edges with a_k = 0 ("uncurled"/direct) are forced to point
  from their order-earlier endpoint to the later one, and their windings
  solve the balance condition:  at every vertex,
  (sum of outgoing w) - (sum of incoming w) = l_v.

Writing +w at the vertex a directed edge leaves and -w at the vertex it
enters, these are exactly the monomial exponents of the edge-factor
products, which is the content of the bijection with the integral route.

The weighted count of tuples is N = sum prod_k w_k.  The descendant
contribution further multiplies, per vertex, a one-point multiplicity
read off the winding profile at that vertex; loop windings appear on both
sides of their vertex's profile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod
from typing import Iterator, Sequence

from .graphs import (
    FeynmanGraph,
    VertexOrder,
    automorphism_count,
    edge_orientation,
    enumerate_labeled_graphs,
    orientation_classes,
    validate_assignment,
)
from .integrals import multidegrees
from .propagators import divisors
from .series import Coeff, invert, mul, s_series

LOOP = "loop"
CURLED = "curled"
DIRECT = "direct"


@dataclass(frozen=True)
class CoverTuple:
    """Windings and directions of one cover.

    ``windings[k]`` is the winding of edge k+1; ``arrows[k]`` is the
    (from, to) vertex pair of the transported direction, with from == to
    for loops; ``kinds[k]`` is one of "loop", "curled", "direct".
    """

    windings: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...]
    kinds: tuple[str, ...]

    def weight(self) -> int:
        return prod(self.windings)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of ``parts`` integers >= 1."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if total < parts:
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_tuples(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
) -> list[CoverTuple]:
    """The complete, duplicate-free list of covers for the given data."""
    r = graph.num_edges
    n = graph.n
    a = tuple(a)
    if len(a) != r or any(x < 0 for x in a):
        raise ValueError(f"multidegree must be {r} nonnegative integers")
    leaks = tuple(l) if l is not None else (0,) * n
    if len(leaks) != n:
        raise ValueError(f"leak vector must have length {n}")

    loop_idx: list[int] = []
    curled_idx: list[int] = []
    direct_idx: list[int] = []
    orient: list[tuple[int, int]] = []
    for idx, (u, v) in enumerate(graph.edges):
        if u == v:
            if a[idx] == 0:
                return []  # loops must wrap at least once
            loop_idx.append(idx)
            orient.append((u, u))
        else:
            tail, head = edge_orientation(graph, idx, order)
            orient.append((tail, head))
            (curled_idx if a[idx] > 0 else direct_idx).append(idx)

    out_direct: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for idx in direct_idx:
        out_direct[orient[idx][0]].append(idx)

    loop_choices = [divisors(a[idx]) for idx in loop_idx]
    curled_choices = [
        [(w, s) for w in divisors(a[idx]) for s in (1, -1)] for idx in curled_idx
    ]

    tuples: list[CoverTuple] = []
    for loop_ws in itertools.product(*loop_choices):
        for curled_ws in itertools.product(*curled_choices):
            # known exponent contributions at each vertex (curled only)
            contrib = [0] * (n + 1)
            arrow: dict[int, tuple[int, int]] = {}
            for idx, (w, s) in zip(curled_idx, curled_ws):
                tail, head = orient[idx]
                src, dst = (tail, head) if s == 1 else (head, tail)
                arrow[idx] = (src, dst)
                contrib[src] += w
                contrib[dst] -= w

            # solve direct windings vertex by vertex in order
            partial: list[dict[int, int]] = [{}]
            ok = True
            for v in order:
                outs = out_direct[v]
                new_partial: list[dict[int, int]] = []
                for assignment in partial:
                    known = contrib[v]
                    for idx in direct_idx:
                        tail, head = orient[idx]
                        if head == v and idx in assignment:
                            known -= assignment[idx]
                    residual = leaks[v - 1] - known
                    for combo in _compositions(residual, len(outs)):
                        nxt = dict(assignment)
                        for idx, w in zip(outs, combo):
                            nxt[idx] = w
                        new_partial.append(nxt)
                partial = new_partial
                if not partial:
                    ok = False
                    break
            if not ok:
                continue
            for assignment in partial:
                windings = [0] * r
                arrows: list[tuple[int, int]] = [(0, 0)] * r
                kinds = [""] * r
                for idx, w in zip(loop_idx, loop_ws):
                    windings[idx] = w
                    arrows[idx] = orient[idx]
                    kinds[idx] = LOOP
                for idx, (w, _) in zip(curled_idx, curled_ws):
                    windings[idx] = w
                    arrows[idx] = arrow[idx]
                    kinds[idx] = CURLED
                for idx in direct_idx:
                    windings[idx] = assignment[idx]
                    arrows[idx] = orient[idx]
                    kinds[idx] = DIRECT
                tuples.append(
                    CoverTuple(tuple(windings), tuple(arrows), tuple(kinds))
                )
    return tuples


def cover_count(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
) -> int:
    """Weighted count N = sum over tuples of prod w_k."""
    return sum(t.weight() for t in enumerate_tuples(graph, order, a, l))


def cover_count_by_windings(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
) -> dict[tuple[int, ...], int]:
    """Counts grouped by the windings of the edges with a_k > 0.

    Keys are tuples of w_k over those edges in index order -- the
    decomposition the Fock route produces summand by summand.
    """
    marked = [idx for idx in range(graph.num_edges) if a[idx] > 0]
    out: dict[tuple[int, ...], int] = {}
    for t in enumerate_tuples(graph, order, a, l):
        key = tuple(t.windings[idx] for idx in marked)
        out[key] = out.get(key, 0) + t.weight()
    return out


@lru_cache(maxsize=None)
def _one_point_cached(ends: tuple[int, ...], k: int) -> Coeff:
    two_g = k + 2 - len(ends)
    if two_g < 0 or two_g % 2 != 0:
        return 0
    series = invert(s_series(1, two_g), two_g)
    for w in ends:
        series = mul(series, s_series(w, two_g), two_g)
    return series[two_g]


def one_point_mult(mu: Sequence[int], nu: Sequence[int], k: int) -> Coeff:
    """Coefficient of z^{2g} in prod S(mu_j z) prod S(nu_j z) / S(z).

    Here 2g = k + 2 - len(mu) - len(nu); the value is 0 when that is
    negative or odd.  Only the multiset mu + nu matters (the S-product is
    symmetric), so the cache is keyed on the sorted concatenation.
    """
    if any(w < 1 for w in tuple(mu) + tuple(nu)):
        raise ValueError("winding entries must be positive")
    if k < 0:
        raise ValueError("descendant exponent must be nonnegative")
    return _one_point_cached(tuple(sorted(tuple(mu) + tuple(nu))), k)


def _vertex_profiles(
    graph: FeynmanGraph, t: CoverTuple
) -> list[tuple[list[int], list[int]]]:
    """(incoming, outgoing) winding profiles per vertex; loops join both."""
    profiles: list[tuple[list[int], list[int]]] = [([], []) for _ in range(graph.n)]
    for idx in range(graph.num_edges):
        w = t.windings[idx]
        src, dst = t.arrows[idx]
        if t.kinds[idx] == LOOP:
            profiles[src - 1][0].append(w)
            profiles[src - 1][1].append(w)
        else:
            profiles[src - 1][1].append(w)
            profiles[dst - 1][0].append(w)
    return profiles


def _contribution(
    graph: FeynmanGraph, order: VertexOrder, a: Sequence[int], k: Sequence[int]
) -> Coeff:
    """Body of :func:`descendant_contribution`, for callers that validated
    (graph, gf, k) once."""
    total: Coeff = 0
    for t in enumerate_tuples(graph, order, a):
        term: Coeff = t.weight()
        for v, (mu, nu) in enumerate(_vertex_profiles(graph, t)):
            m = one_point_mult(mu, nu, k[v])
            if m == 0:
                term = 0
                break
            term = term * m
        total = total + term
    return total


def _check_assignment(graph: FeynmanGraph, gf: Sequence[int], k: Sequence[int]) -> None:
    reasons = validate_assignment(graph, gf, k)
    if reasons:
        raise ValueError("invalid (graph, gf, k): " + "; ".join(reasons))


def descendant_contribution(
    graph: FeynmanGraph,
    gf: Sequence[int],
    order: VertexOrder,
    a: Sequence[int],
    k: Sequence[int],
) -> Coeff:
    """Sum over covers of prod w_k times the per-vertex one-point multiplicities."""
    _check_assignment(graph, gf, k)
    return _contribution(graph, order, a, k)


def descendant_contribution_by_windings(
    graph: FeynmanGraph,
    gf: Sequence[int],
    order: VertexOrder,
    a: Sequence[int],
    k: Sequence[int],
) -> dict[tuple[int, ...], Coeff]:
    """Per-cover breakdown of descendant_contribution, keyed like
    :func:`cover_count_by_windings`."""
    _check_assignment(graph, gf, k)
    marked = [idx for idx in range(graph.num_edges) if a[idx] > 0]
    out: dict[tuple[int, ...], Coeff] = {}
    for t in enumerate_tuples(graph, order, a):
        term: Coeff = t.weight()
        for v, (mu, nu) in enumerate(_vertex_profiles(graph, t)):
            term = term * one_point_mult(mu, nu, k[v])
        if term == 0:
            continue
        key = tuple(t.windings[idx] for idx in marked)
        out[key] = out.get(key, 0) + term
    return out


def fixed_order_series(
    graph: FeynmanGraph,
    gf: Sequence[int],
    order: VertexOrder,
    k: Sequence[int],
    q_order: int,
) -> dict[int, Coeff]:
    """Cover-count series for one vertex order, weighted 1/|Aut_vertex-labeled|.

    This is the unlabeled-cover generating series: forgetting the edge
    labels of covers divides the labeled count by the vertex-labeled
    automorphism count of the graph.
    """
    aut = automorphism_count(graph, gf, "vertex_labeled")
    out: dict[int, Coeff] = {}
    for a in multidegrees(graph, [q_order] * graph.num_edges, q_order):
        value = descendant_contribution(graph, gf, order, a, k)
        if value == 0:
            continue
        d = sum(a)
        s = out.get(d, 0) + value * Fraction(1, aut)
        if s == 0:
            out.pop(d, None)
        else:
            out[d] = s
    return out


def invariant_fixed_order(
    k: Sequence[int], d: int, order: VertexOrder
) -> Coeff:
    """One vertex order's slice of the invariant: sum over labeled graph
    classes of (descendant contributions at total degree d) / |Aut_vl|."""
    total: Coeff = 0
    for assignment in enumerate_labeled_graphs(k):
        graph, gf = assignment.graph, assignment.gf
        aut = automorphism_count(graph, gf, "vertex_labeled")
        for a in multidegrees(graph, [d] * graph.num_edges, d):
            if sum(a) != d:
                continue
            value = descendant_contribution(graph, gf, order, a, k)
            if value != 0:
                total = total + value * Fraction(1, aut)
    return total


def _invariant_totals(k: Sequence[int], degrees: range) -> dict[int, Coeff]:
    """Nonzero invariant values at the given degrees >= 1, in one pass:
    labeled graphs -> orientation classes -> multidegrees, bucketed by d."""
    totals: dict[int, Coeff] = {}
    if not degrees:
        return totals
    cap = degrees[-1]
    for assignment in enumerate_labeled_graphs(k):
        graph, gf = assignment.graph, assignment.gf
        _check_assignment(graph, gf, k)
        aut = automorphism_count(graph, gf, "vertex_labeled")
        weighted = [(order, Fraction(count, aut)) for order, count in orientation_classes(graph)]
        for a in multidegrees(graph, [cap] * graph.num_edges, cap):
            d = sum(a)
            if d not in degrees:
                continue
            for order, weight in weighted:
                value = _contribution(graph, order, a, k)
                if value != 0:
                    totals[d] = totals.get(d, 0) + value * weight
    return {d: totals[d] for d in sorted(totals) if totals[d] != 0}


def invariant(k: Sequence[int], d: int) -> Coeff:
    """The degree-d descendant invariant: sum over all vertex orders.

    Sums over vertex-labeled (graph, gf) classes weighted by the
    vertex-labeled automorphism count (equivalently: isomorphism classes
    weighted by labeled-copy count / |Aut_vl|); see the mirror-series
    docstring in :mod:`trofey.integrals` for why the bare unlabeled-Aut
    weighting is not used.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    return _invariant_totals(k, range(d, d + 1)).get(d, 0)


def invariant_series(k: Sequence[int], q_order: int) -> dict[int, Coeff]:
    """Invariant values for all degrees 1..q_order (zero values dropped).

    Each (labeled graph, gf) is enumerated, validated and weighted once,
    and each orientation class of its vertex orders is evaluated once and
    weighted by its size.
    """
    return _invariant_totals(k, range(1, q_order + 1))
