"""Decorated multigraphs ("Feynman graphs") for tropical-cover counting.

A graph here is a connected multigraph on ``n > 1`` labeled vertices
``1..n``; loops are allowed and edge slots are labeled ``1..r`` with all
loops first (the loop/non-loop split is structural: loop edges never carry
vertex-ratio variables).  A *genus function* assigns a nonnegative integer
``g_v`` to every vertex, and a *descendant vector* ``k`` ties into it
through the valency rule

    deg(v) = k_v + 2 - 2 g_v,

with ``sum(k) = 2 g - 2`` fixing the total genus ``g``; the first Betti
number of the graph then satisfies ``h1 + sum(g_v) = g`` automatically.

Vertex orders (total orders on the vertex set) orient the non-loop edges:
every edge points from its earlier endpoint to its later endpoint.
:func:`check_order`, :func:`check_multidegree` and :func:`check_leaks`
are the query checks every route's entry points share.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Iterator, NamedTuple, Sequence

Edge = tuple[int, int]
GenusFunction = tuple[int, ...]
VertexOrder = tuple[int, ...]  # the vertex sequence, smallest first
Multidegree = tuple[int, ...]  # a_k per edge, in edge-index order


class FeynmanGraph:
    """Connected multigraph with 1-based vertices and loops-first edges.

    Immutable: assigning an attribute raises AttributeError, and graphs
    are equal (and hash equal) exactly when ``(n, edges)`` are.
    """

    __slots__ = ("n", "edges")
    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Sequence[Edge]) -> None:
        if n < 2:
            raise ValueError("graphs need at least two vertices")
        seen_nonloop = False
        norm: list[Edge] = []
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) out of vertex range")
            if u > v:
                u, v = v, u
            if u == v:
                if seen_nonloop:
                    raise ValueError("loop edges must come before non-loop edges")
            else:
                seen_nonloop = True
            norm.append((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(norm))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"FeynmanGraph(n={self.n!r}, edges={self.edges!r})"

    # -- basic invariants ----------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_loops(self) -> int:
        return sum(1 for u, v in self.edges if u == v)

    @property
    def first_betti(self) -> int:
        """h1 = #edges - #vertices + 1 for a connected graph."""
        return self.num_edges - self.n + 1

    def degree(self, v: int) -> int:
        d = 0
        for a, b in self.edges:
            if a == v:
                d += 1
            if b == v:
                d += 1
        return d

    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(v) for v in range(1, self.n + 1))

    def is_connected(self) -> bool:
        reached = {1}
        frontier = [1]
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        while frontier:
            w = frontier.pop()
            for nxt in adj[w]:
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return len(reached) == self.n


def genus_from_descendants(k: Sequence[int]) -> int:
    """Total genus g with sum(k) = 2g - 2."""
    total = sum(k)
    if total % 2 != 0:
        raise ValueError("sum of descendant exponents must be even")
    g = (total + 2) // 2
    if g < 0:
        raise ValueError("descendant vector implies negative genus")
    return g


def derived_k(graph: FeynmanGraph, gf: Sequence[int]) -> tuple[int, ...]:
    """The descendant vector forced by valencies: k_v = deg(v) - 2 + 2 g_v."""
    return tuple(graph.degree(v) - 2 + 2 * gf[v - 1] for v in range(1, graph.n + 1))


def validate_assignment(
    graph: FeynmanGraph, gf: Sequence[int], k: Sequence[int]
) -> list[str]:
    """All reasons why (graph, genus function, descendant vector) is invalid.

    An empty list means the assignment is admissible.
    """
    reasons: list[str] = []
    if len(gf) != graph.n:
        reasons.append("genus function length differs from vertex count")
        return reasons
    if len(k) != graph.n:
        reasons.append("descendant vector length differs from vertex count")
        return reasons
    if any(g < 0 for g in gf):
        reasons.append("vertex genera must be nonnegative")
    if any(kv < 0 for kv in k):
        reasons.append("descendant exponents must be nonnegative")
    if sum(k) % 2 != 0:
        reasons.append("sum of descendant exponents must be even")
    if reasons:
        return reasons
    for v in range(1, graph.n + 1):
        want = k[v - 1] + 2 - 2 * gf[v - 1]
        got = graph.degree(v)
        if got != want:
            reasons.append(
                f"vertex {v}: degree {got} != k+2-2g = {want}"
            )
    if not graph.is_connected():
        reasons.append("graph is not connected")
    return reasons


# -- vertex orders -----------------------------------------------------


def identity_order(n: int) -> VertexOrder:
    return tuple(range(1, n + 1))


def all_orders(n: int) -> Iterator[VertexOrder]:
    """All n! total orders on the vertices, identity first."""
    return itertools.permutations(range(1, n + 1))


def edge_orientation(graph: FeynmanGraph, edge_index: int, order: VertexOrder) -> Edge:
    """(tail, head) of edge ``edge_index`` (0-based) under a vertex order.

    The tail is the endpoint earlier in the order; loops raise, they have
    no orientation.
    """
    u, v = graph.edges[edge_index]
    if u == v:
        raise ValueError("loop edges are not oriented")
    if order.index(u) < order.index(v):
        return (u, v)
    return (v, u)


def check_order(order: Sequence[int], n: int) -> VertexOrder:
    """The order as a tuple, if it is a permutation of 1..n."""
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {order}")
    return order


def check_multidegree(a: Sequence[int], r: int) -> Multidegree:
    """The multidegree as a tuple, if it is r nonnegative integers."""
    a = tuple(a)
    if len(a) != r or any(x < 0 for x in a):
        raise ValueError(f"multidegree must be {r} nonnegative integers")
    return a


def check_leaks(l: Sequence[int] | None, n: int) -> tuple[int, ...]:
    """The leak vector as a tuple (None: no leaks), if it has length n."""
    leaks = (0,) * n if l is None else tuple(l)
    if len(leaks) != n:
        raise ValueError(f"leak vector must have length {n}")
    return leaks


def _orientation_signature(graph: FeynmanGraph, order: VertexOrder) -> tuple:
    """Edgewise (tail, head) data -- everything order-dependent computations see."""
    sig = []
    for idx, (u, v) in enumerate(graph.edges):
        if u == v:
            sig.append((u, u))
        else:
            sig.append(edge_orientation(graph, idx, order))
    return tuple(sig)


def orientation_classes(graph: FeynmanGraph) -> list[tuple[VertexOrder, int]]:
    """The n! vertex orders grouped by the edge directions they induce.

    Returns (representative, class size) pairs; the representative is the
    first order of its class in :func:`all_orders`.  Integrals and covers
    see an order only through these directions, so one computation per
    class, weighted by its size, stands for the sum over all orders.
    """
    classes: dict[tuple, list] = {}
    for order in all_orders(graph.n):
        sig = _orientation_signature(graph, order)
        if sig in classes:
            classes[sig][1] += 1
        else:
            classes[sig] = [order, 1]
    return [(rep, count) for rep, count in classes.values()]


# -- automorphisms -----------------------------------------------------


def automorphism_count(graph: FeynmanGraph) -> int:
    """Order of the vertex-labeled automorphism group.

    Vertices are pinned; automorphisms permute parallel edge slots and the
    two or more loop slots at a vertex (a loop is one edge slot: swapping
    its two half-edge germs is not counted).  The count is the product of
    m! over the multiplicities m of the distinct edges.
    """
    return prod(factorial(m) for m in Counter(graph.edges).values())


# -- enumeration -------------------------------------------------------


class GraphAssignment(NamedTuple):
    """A graph together with a compatible genus function."""

    graph: FeynmanGraph
    gf: GenusFunction


def _nonloop_multiplicity_vectors(
    degrees: Sequence[int],
) -> Iterator[tuple[int, ...]]:
    """Multiplicities for vertex pairs (lex order) realizing a degree sequence."""
    n = len(degrees)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def rec(idx: int, remaining: list[int], acc: list[int]) -> Iterator[tuple[int, ...]]:
        if idx == len(pairs):
            if all(r == 0 for r in remaining):
                yield tuple(acc)
            return
        u, v = pairs[idx]
        # degree still needed at u must be absorbable by later pairs at u
        later_at_u = sum(1 for (a, b) in pairs[idx + 1 :] if a == u or b == u)
        cap = min(remaining[u], remaining[v])
        lo = remaining[u] if later_at_u == 0 else 0
        if lo > cap:
            return
        for m in range(lo, cap + 1):
            remaining[u] -= m
            remaining[v] -= m
            acc.append(m)
            yield from rec(idx + 1, remaining, acc)
            acc.pop()
            remaining[u] += m
            remaining[v] += m

    yield from rec(0, list(degrees), [])


def enumerate_labeled_graphs(k: Sequence[int]) -> list[GraphAssignment]:
    """All vertex-labeled (graph, genus function) classes for a descendant vector.

    Two assignments are the same class when they have identical loop
    counts, identical pair multiplicities, and identical genus functions
    -- i.e. classes are distinct decorated adjacency data on the labeled
    vertex set.  Relabeling vertices can map one class to another;
    :func:`enumerate_graphs` quotients by that, this function does not.

    Deterministic order: by genus function, then loop counts, then pair
    multiplicities, each lexicographically.
    """
    n = len(k)
    if n < 2:
        raise ValueError("need at least two vertices")
    if any(kv < 0 for kv in k):
        raise ValueError("descendant exponents must be nonnegative")
    g = genus_from_descendants(k)
    out: list[GraphAssignment] = []
    gf_ranges = []
    for kv in k:
        # valency k+2-2g must stay >= 1 on a connected graph with n > 1
        max_g = (kv + 1) // 2
        gf_ranges.append(range(0, max_g + 1))
    for gf in itertools.product(*gf_ranges):
        if sum(gf) > g:
            continue
        val = [k[i] + 2 - 2 * gf[i] for i in range(n)]
        loop_ranges = [range(0, val[i] // 2 + 1) for i in range(n)]
        for loops in itertools.product(*loop_ranges):
            rest = [val[i] - 2 * loops[i] for i in range(n)]
            for mults in _nonloop_multiplicity_vectors(rest):
                edges: list[Edge] = []
                for i in range(n):
                    edges.extend([(i + 1, i + 1)] * loops[i])
                pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
                for (u, v), m in zip(pairs, mults):
                    edges.extend([(u + 1, v + 1)] * m)
                graph = FeynmanGraph(n, tuple(edges))
                if not graph.is_connected():
                    continue
                out.append(GraphAssignment(graph, tuple(gf)))
    return out


def _relabeled_code(
    graph: FeynmanGraph, gf: Sequence[int], perm: Sequence[int]
) -> tuple:
    """Code of the assignment after relabeling vertex v -> perm[v-1]."""
    edges = sorted(
        (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
        for u, v in graph.edges
    )
    new_gf = [0] * graph.n
    for v in range(1, graph.n + 1):
        new_gf[perm[v - 1] - 1] = gf[v - 1]
    return (tuple(edges), tuple(new_gf))


def canonical_code(graph: FeynmanGraph, gf: Sequence[int]) -> tuple:
    """Minimal code over all vertex relabelings; equal codes = isomorphic.

    Isomorphisms carry the genus function along, and therefore also the
    derived descendant vector (k_v is determined by degree and genus).
    """
    return min(
        _relabeled_code(graph, gf, perm)
        for perm in itertools.permutations(range(1, graph.n + 1))
    )


def _orbit_codes(graph: FeynmanGraph, gf: Sequence[int], k: Sequence[int]) -> set[tuple]:
    """Codes of the assignment under the vertex relabelings preserving k."""
    return {
        _relabeled_code(graph, gf, perm)
        for perm in itertools.permutations(range(1, graph.n + 1))
        if all(k[p - 1] == kv for p, kv in zip(perm, k))
    }


def labeled_copy_count(graph: FeynmanGraph, gf: Sequence[int]) -> int:
    """How many times :func:`enumerate_labeled_graphs` lists this class for
    its own k: the orbit under the relabelings preserving k."""
    return len(_orbit_codes(graph, gf, derived_k(graph, gf)))


def _orbit_walk(k: Sequence[int]) -> Iterator[tuple[GraphAssignment, int]]:
    """(first labeled member, orbit size) per isomorphism class, in the
    order of :func:`enumerate_labeled_graphs`; later members are skipped."""
    seen: set[tuple] = set()
    for assignment in enumerate_labeled_graphs(k):
        graph, gf = assignment.graph, assignment.gf
        if _relabeled_code(graph, gf, identity_order(graph.n)) not in seen:
            orbit = _orbit_codes(graph, gf, k)
            seen |= orbit
            yield assignment, len(orbit)


def _check_assignment(graph: FeynmanGraph, gf: Sequence[int], k: Sequence[int]) -> None:
    reasons = validate_assignment(graph, gf, k)
    if reasons:
        raise ValueError("invalid (graph, gf, k): " + "; ".join(reasons))


def weighted_classes(k: Sequence[int]) -> Iterator[tuple]:
    """(graph, gf, order, Fraction weight) once per (isomorphism class,
    orientation class): the graph sum of the cover and integral routes.

    An invariant sums a per-order value / |Aut_vl| over all labeled
    (graph, gf) for k and all n! vertex orders.  Relabeling permutes the
    orders and keeps |Aut_vl|, so each isomorphism class is visited (and
    validated) once, at its first labeled member, with weight class size
    (:func:`orientation_classes`) * labeled copies / |Aut_vl|.  The bare
    unlabeled 1/|Aut| misses the pinned values; one vertex order is not
    relabeling-invariant, so its slice sums labeled graphs.
    """
    for assignment, copies in _orbit_walk(k):
        graph, gf = assignment.graph, assignment.gf
        _check_assignment(graph, gf, k)
        aut = automorphism_count(graph)
        for order, size in orientation_classes(graph):
            yield graph, gf, order, Fraction(size * copies, aut)


def enumerate_graphs(k: Sequence[int]) -> list[GraphAssignment]:
    """One representative per isomorphism class of valid (graph, gf) pairs.

    Isomorphism = vertex relabeling respecting the genus function (and
    hence the descendant vector).  Representatives are sorted by their
    canonical codes, so the output order is deterministic.
    """
    reps = [assignment for assignment, _ in _orbit_walk(k)]
    return sorted(reps, key=lambda a: canonical_code(a.graph, a.gf))


# -- JSON interchange --------------------------------------------------


def _is_int(x: object) -> bool:
    """A JSON integer: ``int`` but not ``bool`` (true/false are no counts)."""
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_json_dict(
    data: dict,
) -> tuple[FeynmanGraph, GenusFunction | None, list[int] | None]:
    """Parse ``{"n":..., "edges":[[u,v],...], "genus":[...]?}``.

    Edges are re-sorted loops-first (stable) when needed; the third return
    value is then the 1-based original position of each edge slot, so
    callers can report how edge variables were renumbered.  ``genus`` is
    optional.
    """
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    n = data.get("n")
    if not _is_int(n):
        raise ValueError("graph JSON needs an integer field 'n'")
    raw_edges = data.get("edges")
    if not isinstance(raw_edges, list) or not raw_edges:
        raise ValueError("graph JSON needs a nonempty list field 'edges'")
    edges: list[Edge] = []
    for item in raw_edges:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(_is_int(x) for x in item)
        ):
            raise ValueError(f"bad edge entry {item!r}")
        u, v = item
        edges.append((min(u, v), max(u, v)))
    indexed = list(enumerate(edges, start=1))
    ordered = [p for p in indexed if p[1][0] == p[1][1]] + [
        p for p in indexed if p[1][0] != p[1][1]
    ]
    relabeling: list[int] | None = None
    if [p[0] for p in ordered] != list(range(1, len(edges) + 1)):
        relabeling = [p[0] for p in ordered]
    graph = FeynmanGraph(n, tuple(p[1] for p in ordered))
    gf: GenusFunction | None = None
    if "genus" in data:
        raw_gf = data["genus"]
        if not isinstance(raw_gf, list) or not all(_is_int(x) for x in raw_gf):
            raise ValueError("'genus' must be a list of integers")
        if len(raw_gf) != n:
            raise ValueError("'genus' must list one value per vertex")
        gf = tuple(raw_gf)
    return graph, gf, relabeling


def graph_to_json_dict(graph: FeynmanGraph, gf: GenusFunction | None = None) -> dict:
    out: dict = {"n": graph.n, "edges": [list(e) for e in graph.edges]}
    if gf is not None:
        out["genus"] = list(gf)
    return out
