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

One enumeration body, :func:`_cover_pass`, finds every cover.  It is a
depth-first pass over the vertex order that takes a degree set per edge
and a total cap on sum(a), so one pass covers every multidegree at once.
Vertex v owns its loops and the non-loop edges whose order-earlier
endpoint it is.  The pass picks a degree, winding and direction for each
owned edge, cuts a branch as soon as v can no longer balance, and closes
v by splitting its residual over its direct out-edges.  Loops move no
winding, so they are chosen last.

The per-multidegree functions (:func:`enumerate_tuples`,
:func:`cover_count` and :func:`descendant_contribution`) read the pass
with the single degree a_k on edge k.  Callers that want many
multidegrees (the invariant assemblies, ``invariant --compare`` and
``fock check``) read one pass per (graph, vertex order) over every
multidegree as a table, :func:`cover_table`, at one order per orbit of
vertex orders under the graph's symmetries and order reversal, which
keep a zero-leak table (:func:`~trofey.graphs.weighted_classes`).  The
assemblies and ``--compare`` read the orbits of
:func:`~trofey.graphs.weighted_classes`, whose orders give equal totals
by degree; ``fock check`` carries each orbit's table to every order of
the orbit along the edge permutation.
The route shares no table code with :mod:`trofey.integrals`, which it
checks: the two read the same graph sum,
:func:`~trofey.graphs.weighted_classes`, and total it with
:func:`~trofey.graphs.graph_sum`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Iterator, NamedTuple, Sequence

from .graphs import (
    FeynmanGraph,
    Multidegree,
    VertexOrder,
    _check_assignment,
    automorphism_count,
    check_order,
    check_query,
    enumerate_labeled_graphs,
    graph_sum,
    orientation,
    weighted_classes,
)
from .propagators import divisors
from .series import Coeff, invert, mul, s_series

LOOP = "loop"
CURLED = "curled"
DIRECT = "direct"

# one cover as the pass yields it: (multidegree, windings, arrows)
Cover = tuple[Multidegree, tuple[int, ...], tuple[tuple[int, int], ...]]


class CoverTuple(NamedTuple):
    """Windings and directions of one cover.

    ``windings[k]`` is the winding of edge k+1; ``arrows[k]`` is the
    (from, to) vertex pair of the transported direction, with from == to
    for loops; ``kinds[k]`` is one of "loop", "curled", "direct".
    """

    windings: tuple[int, ...]
    arrows: tuple[tuple[int, int], ...]
    kinds: tuple[str, ...]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of ``parts`` integers >= 1,
    by stars and bars: parts - 1 cuts among the total - 1 inner gaps."""
    if total < parts:
        return  # the pass hands in negative residuals too
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, total)))


def _cover_pass(
    graph: FeynmanGraph,
    order: VertexOrder,
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    leaks: Sequence[int],
) -> Iterator[Cover]:
    """Every cover at every multidegree with a_k in degrees[k] (ascending)
    and sum(a) <= total_cap, as (a, windings, arrows).

    One depth-first pass over the vertex order.  Vertex v owns its loops
    and the non-loop edges whose order-earlier endpoint it is ("out-edges").
    For each out-edge it picks a_k within the remaining budget, then
    w | a_k and a direction if the edge curls (a_k > 0); the branch is cut
    as soon as v can no longer balance.  Edges into v from earlier
    vertices are fixed by then, so v closes: its direct out-edges (a_k = 0)
    carry the compositions of its residual l_v - (net outgoing winding so
    far), and with none the residual must be 0.  Loops move no winding, so
    they are chosen after the last close, and until then the budget keeps
    back each loop's least degree.  The pass is the one guard of every
    cover query's cap and leak balance.
    """
    if total_cap < 0:
        raise ValueError(f"q-order must be >= 0, got {total_cap}")
    if sum(leaks) != 0:
        return  # every edge moves winding between vertices, net zero
    n, r = graph.n, graph.num_edges
    outs: dict[int, list[tuple[int, int]]] = {v: [] for v in order}
    loops: list[tuple[int, int, int]] = []  # (edge, vertex, least degree)
    for idx, (tail, head) in enumerate(orientation(graph, order)):
        if tail == head:
            least = min((a_k for a_k in degrees[idx] if a_k > 0), default=None)
            if least is None:
                return  # a loop must wrap at least once
            loops.append((idx, tail, least))
        else:
            outs[tail].append((idx, head))
    free = total_cap - sum(least for _, _, least in loops)
    if free < 0:
        return
    a, windings = [0] * r, [0] * r
    arrows: list[tuple[int, int]] = [(0, 0)] * r
    net = [0] * (n + 1)  # outgoing minus incoming winding per vertex
    ndirect = [0] * (n + 1)  # direct out-edges chosen so far per vertex

    def can_balance(v: int, last: bool, budget: int) -> bool:
        """Each direct out-edge of v needs >= 1 of its residual, and the
        out-edges still to choose can bring back at most ``budget``."""
        spare = leaks[v - 1] - net[v] - ndirect[v]
        if last:
            return spare >= 0 and (spare == 0 or ndirect[v] > 0)
        return spare + budget >= 0

    def out_edge(p: int, j: int, budget: int) -> Iterator:
        v = order[p]
        if j == len(outs[v]):  # close v
            direct = [(e, head) for e, head in outs[v] if a[e] == 0]
            for combo in _compositions(leaks[v - 1] - net[v], len(direct)):
                for (e, head), w in zip(direct, combo):
                    windings[e] = w
                    net[head] -= w
                yield from out_edge(p + 1, 0, budget) if p + 1 < n else loop(0, budget)
                for (e, head), w in zip(direct, combo):
                    net[head] += w
            return
        idx, head = outs[v][j]
        last = j == len(outs[v]) - 1
        for a_k in degrees[idx]:
            if a_k > budget:
                break
            a[idx] = a_k
            if a_k == 0:  # direct: its winding is set at the close
                arrows[idx] = (v, head)
                ndirect[v] += 1
                if can_balance(v, last, budget):
                    yield from out_edge(p, j + 1, budget)
                ndirect[v] -= 1
                continue
            for w in divisors(a_k):
                windings[idx] = w
                for src, dst in ((v, head), (head, v)):
                    arrows[idx] = (src, dst)
                    net[src] += w
                    net[dst] -= w
                    if can_balance(v, last, budget - a_k):
                        yield from out_edge(p, j + 1, budget - a_k)
                    net[src] -= w
                    net[dst] += w

    def loop(j: int, budget: int) -> Iterator:
        if j == len(loops):
            yield tuple(a), tuple(windings), tuple(arrows)
            return
        idx, v, least = loops[j]
        budget += least  # release the degree kept back for this loop
        arrows[idx] = (v, v)
        for a_k in degrees[idx]:
            if a_k > budget:
                break
            if a_k > 0:
                a[idx] = a_k
                for w in divisors(a_k):
                    windings[idx] = w
                    yield from loop(j + 1, budget - a_k)

    yield from out_edge(0, 0, free)


def _single(
    graph: FeynmanGraph, order: VertexOrder, a: Sequence[int], l: Sequence[int] | None
) -> Iterator[Cover]:
    """The pass at one multidegree (the degree set (a_k,) on edge k), its
    inputs checked."""
    order, a, leaks, _ = check_query(graph, order, a, l)
    return _cover_pass(graph, order, [(a_k,) for a_k in a], sum(a), leaks)


def enumerate_tuples(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
) -> list[CoverTuple]:
    """The complete, duplicate-free list of covers for the given data.

    A view of :func:`_cover_pass` at the single multidegree a: the
    vertices are visited in order, each one choosing the windings and
    directions of its loops and of its edges to later vertices, and a
    branch is cut as soon as a vertex cannot balance.  The order of the
    list is not specified; compare lists as multisets.
    """
    return [
        CoverTuple(
            windings,
            arrows,
            tuple(
                LOOP if u == v else CURLED if a_k > 0 else DIRECT
                for (u, v), a_k in zip(graph.edges, a_t)
            ),
        )
        for a_t, windings, arrows in _single(graph, order, a, l)
    ]


def cover_count(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
) -> int:
    """Weighted count N = sum over tuples of prod w_k."""
    return sum(prod(windings) for _, windings, _ in _single(graph, order, a, l))


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


def _descendant_weight(
    n: int,
    windings: Sequence[int],
    arrows: Sequence[tuple[int, int]],
    k: Sequence[int],
) -> Coeff:
    """prod w_k times the one-point multiplicity of every vertex's
    (incoming, outgoing) winding profile; a loop (src == dst) joins both."""
    ins: list[list[int]] = [[] for _ in range(n)]
    outs: list[list[int]] = [[] for _ in range(n)]
    for w, (src, dst) in zip(windings, arrows):
        outs[src - 1].append(w)
        ins[dst - 1].append(w)
    term: Coeff = prod(windings)
    for v in range(n):
        m = one_point_mult(ins[v], outs[v], k[v])
        if m == 0:
            return 0
        term = term * m
    return term


def cover_table(
    graph: FeynmanGraph, order: VertexOrder, q_cap: int, k: Sequence[int] | None = None
) -> dict[Multidegree, Coeff]:
    """Zero-leak values at every multidegree with sum(a) <= q_cap, from one
    pass (zero entries dropped): :func:`cover_count`, or with ``k``
    :func:`descendant_contribution`."""
    table: dict[Multidegree, Coeff] = {}
    degrees = [range(q_cap + 1)] * graph.num_edges
    for a, windings, arrows in _cover_pass(graph, order, degrees, q_cap, (0,) * graph.n):
        if k is None:
            value: Coeff = prod(windings)
        else:
            value = _descendant_weight(graph.n, windings, arrows, k)
        s = table.get(a, 0) + value
        if s == 0:
            table.pop(a, None)
        else:
            table[a] = s
    return table


def descendant_contribution(
    graph: FeynmanGraph,
    gf: Sequence[int],
    order: VertexOrder,
    a: Sequence[int],
    k: Sequence[int],
) -> Coeff:
    """Sum over covers of prod w_k times the per-vertex one-point multiplicities."""
    _check_assignment(graph, gf, k)
    total: Coeff = 0
    for _, windings, arrows in _single(graph, order, a, None):
        total = total + _descendant_weight(graph.n, windings, arrows, k)
    return total


def invariant_fixed_order(
    k: Sequence[int], d: int, order: VertexOrder
) -> Coeff:
    """One vertex order's slice of the invariant: sum over labeled graph
    classes of (descendant contributions at total degree d) / |Aut_vl|."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    order = check_order(order, len(k))
    return graph_sum(
        (cover_table(graph, order, d, k), Fraction(1, automorphism_count(graph)))
        for graph, _ in enumerate_labeled_graphs(k)
    ).get(d, 0)


def invariant(k: Sequence[int], d: int) -> Coeff:
    """The degree-d descendant invariant: sum over all vertex orders and
    graph classes, weighted as in :func:`~trofey.graphs.weighted_classes`."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return invariant_series(k, d).get(d, 0)


def invariant_series(k: Sequence[int], q_order: int) -> dict[int, Coeff]:
    """Invariant values for all degrees 1..q_order (zero values dropped;
    with no leaks no cover has degree 0), from one cover pass per
    (isomorphism class, orbit of vertex orders) of
    :func:`~trofey.graphs.weighted_classes`, summed by
    :func:`~trofey.graphs.graph_sum`; k is checked before q_order."""
    return graph_sum(
        (cover_table(graph, order, q_order, k), weight)
        for graph, _, order, weight in weighted_classes(k)
    )
