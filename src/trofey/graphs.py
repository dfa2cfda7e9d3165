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
every edge points from its earlier endpoint to its later endpoint
(:func:`orientation`).
:func:`check_query` is the one check of a (graph, order, multidegree,
leaks, genus function) query that every route's entry points share.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

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

    def degrees(self) -> tuple[int, ...]:
        """Degree of each vertex 1..n, from one pass over the edges; a loop
        counts twice."""
        counts = [0] * (self.n + 1)
        for u, v in self.edges:
            counts[u] += 1
            counts[v] += 1
        return tuple(counts[1:])

    def is_connected(self) -> bool:
        """Whether every vertex is reached from vertex 1.  A connected graph
        has a spanning tree, so one with fewer than n - 1 non-loop edges is
        turned down before anything of size n is built."""
        if self.num_edges - self.num_loops < self.n - 1:
            return False
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
    for v, got in enumerate(graph.degrees(), start=1):
        want = k[v - 1] + 2 - 2 * gf[v - 1]
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


def orientation(graph: FeynmanGraph, order: VertexOrder) -> tuple[Edge, ...]:
    """(tail, head) of every edge under a vertex order: the tail is the
    endpoint earlier in the order, and a loop at v is (v, v).  The three
    routes and :func:`orientation_classes` read edge directions here."""
    pos = {v: i for i, v in enumerate(order)}
    return tuple((u, v) if pos[u] <= pos[v] else (v, u) for u, v in graph.edges)


def check_order(order: Sequence[int], n: int) -> VertexOrder:
    """The order as a tuple, if it is a permutation of 1..n."""
    order = tuple(order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order must be a permutation of 1..{n}, got {order}")
    return order


def check_query(
    graph: FeynmanGraph,
    order: Sequence[int],
    a: Sequence[int] | None = None,
    l: Sequence[int] | None = None,
    gf: Sequence[int] | None = None,
) -> tuple[VertexOrder, Multidegree | None, tuple[int, ...], GenusFunction]:
    """The checked order, multidegree (None stays None: a series query),
    leak vector (None: no leaks) and genus function (None: genus 0 at every
    vertex) of one (graph, order) query of any route."""
    order = check_order(order, graph.n)
    if a is not None:
        a = tuple(a)
        if len(a) != graph.num_edges or any(x < 0 for x in a):
            raise ValueError(f"multidegree must be {graph.num_edges} nonnegative integers")
    leaks = (0,) * graph.n if l is None else tuple(l)
    if len(leaks) != graph.n:
        raise ValueError(f"leak vector must have length {graph.n}")
    gf = (0,) * graph.n if gf is None else tuple(gf)
    if len(gf) != graph.n or any(g < 0 for g in gf):
        raise ValueError("genus function must be n nonnegative integers")
    return order, a, leaks, gf


def orbit_members(
    graph: FeynmanGraph, symmetries: Sequence[VertexOrder] | None = None
) -> list[list[tuple[VertexOrder, tuple[int, ...]]]]:
    """The n! vertex orders grouped by the edge directions they induce, and
    with ``symmetries`` also under those symmetries and order reversal.

    Each orbit lists its orders in :func:`all_orders` order, each with the
    edge slots (:func:`edge_images`) of the symmetry that carries the first
    order's edge directions to its own, reversed or not (the identity
    where they are the same): they carry the first order's zero-leak
    table to this order's.  An order is keyed by the sorted (tail, head)
    pairs of :func:`orientation`: parallel edges always point the same
    way, so the key fixes every edge's direction.  When an order opens an
    orbit, the keys of its images are marked, each with the first
    symmetry that reaches it: a symmetry pi (:func:`symmetries`) sends
    (t, h) to (pi(t), pi(h)), and reversal sends it to (h, t).
    """
    moves = [(pi, edge_images(graph, pi)) for pi in symmetries or ()]
    identity = tuple(range(graph.num_edges))
    orbit_of: dict[tuple, tuple[list, tuple[int, ...]]] = {}
    orbits: list[list] = []
    for order in all_orders(graph.n):
        key = tuple(sorted(orientation(graph, order)))
        marked = orbit_of.get(key)
        if marked is None:
            orbit: list = []
            orbits.append(orbit)
            marked = orbit_of[key] = (orbit, identity)
            for pi, images in moves:
                image = sorted((pi[t - 1], pi[h - 1]) for t, h in key)
                orbit_of.setdefault(tuple(image), (orbit, images))
                orbit_of.setdefault(tuple(sorted((h, t) for t, h in image)), (orbit, images))
        orbit, images = marked
        orbit.append((order, images))
    return orbits


def orientation_classes(
    graph: FeynmanGraph, symmetries: Sequence[VertexOrder] | None = None
) -> list[tuple[VertexOrder, int]]:
    """(representative, orbit size) per orbit of :func:`orbit_members`; the
    representative is the first order of its orbit in :func:`all_orders`.

    Without symmetries the orbits are the orientation classes.  Integrals
    and covers see an order only through the edge directions, so one
    computation per class, weighted by its size, stands for the sum over
    all orders; per-edge queries (one multidegree, any leaks) group orders
    this way.  The orbits under the symmetries and reversal hold only at
    zero leaks (:func:`weighted_classes`).
    """
    return [(orbit[0][0], len(orbit)) for orbit in orbit_members(graph, symmetries)]


def edge_images(graph: FeynmanGraph, pi: VertexOrder) -> tuple[int, ...]:
    """Where the vertex symmetry pi sends each edge slot (0-based): to a
    slot between the images of its endpoints, parallel slots matched in
    turn.  Entry k of a multidegree at an order moves to slot
    ``edge_images[k]`` at pi's image of that order."""
    free = list(range(graph.num_edges))
    images = []
    for u, v in graph.edges:
        target = (min(pi[u - 1], pi[v - 1]), max(pi[u - 1], pi[v - 1]))
        j = next(j for j in free if graph.edges[j] == target)
        free.remove(j)
        images.append(j)
    return tuple(images)


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


def enumerate_labeled_graphs(k: Sequence[int]) -> list[GraphAssignment]:
    """All vertex-labeled (graph, genus function) classes for a descendant vector.

    Two assignments are the same class when they have identical loop
    counts, identical pair multiplicities, and identical genus functions
    -- i.e. classes are distinct decorated adjacency data on the labeled
    vertex set.  Relabeling vertices can map one class to another;
    :func:`weighted_classes` quotients by that, this function does not.

    For each genus function (lexicographically), one depth-first walk fills
    the edge slots in turn: each vertex's loop count, then each vertex
    pair's multiplicity, pairs lexicographically, every slot counting up
    from its least value.  A slot takes at most the valency its vertices
    have left, and a vertex's last slot, its pair with vertex n, takes
    exactly what it has left.  So the classes come ordered by genus
    function, then loop counts, then pair multiplicities, each
    lexicographically, and each one's edges are sorted.
    """
    n = len(k)
    if n < 2:
        raise ValueError("need at least two vertices")
    if any(kv < 0 for kv in k):
        raise ValueError("descendant exponents must be nonnegative")
    g = genus_from_descendants(k)
    slots = [(v, v) for v in range(1, n + 1)] + list(itertools.combinations(range(1, n + 1), 2))
    out: list[GraphAssignment] = []

    def fill(gf: GenusFunction, left: list[int], i: int, edges: tuple[Edge, ...]) -> None:
        # left[v]: the valency vertex v has left (left[0] is unused)
        if i == len(slots):
            if not any(left):
                graph = FeynmanGraph(n, edges)
                if graph.is_connected():
                    out.append(GraphAssignment(graph, gf))
            return
        u, v = slots[i]
        top = left[u] // 2 if u == v else min(left[u], left[v])
        last = u < v == n  # u's last slot takes all that u has left
        for m in range(left[u] if last else 0, top + 1):
            left[u] -= m
            left[v] -= m
            fill(gf, left, i + 1, edges + ((u, v),) * m)
            left[u] += m
            left[v] += m

    # valency k+2-2g must stay >= 1 on a connected graph with n > 1
    for gf in itertools.product(*(range((kv + 1) // 2 + 1) for kv in k)):
        if sum(gf) <= g:
            fill(gf, [0] + [kv + 2 - 2 * gv for kv, gv in zip(k, gf)], 0, ())
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


def _relabelings(
    graph: FeynmanGraph, gf: Sequence[int], labels: Sequence
) -> tuple[set[tuple], list[VertexOrder]]:
    """Codes of the assignment under the vertex relabelings that keep the
    vertex labels, and those relabelings that keep its own code: its
    symmetries, identity first."""
    own = _relabeled_code(graph, gf, identity_order(graph.n))
    codes: set[tuple] = set()
    syms: list[VertexOrder] = []
    for perm in itertools.permutations(range(1, graph.n + 1)):
        if all(labels[p - 1] == label for p, label in zip(perm, labels)):
            code = _relabeled_code(graph, gf, perm)
            codes.add(code)
            if code == own:
                syms.append(perm)
    return codes, syms


def symmetries(graph: FeynmanGraph, gf: Sequence[int]) -> list[VertexOrder]:
    """The vertex maps v -> pi[v-1] that keep the edges and the genus
    function, identity first.  They keep every degree, so they keep k too:
    deg(v) = k_v + 2 - 2 g_v."""
    return _relabelings(graph, gf, tuple(zip(graph.degrees(), gf)))[1]


def _check_assignment(graph: FeynmanGraph, gf: Sequence[int], k: Sequence[int]) -> None:
    reasons = validate_assignment(graph, gf, k)
    if reasons:
        raise ValueError("invalid (graph, gf, k): " + "; ".join(reasons))


def weighted_classes(k: Sequence[int]) -> Iterator[tuple]:
    """(graph, gf, order, Fraction weight) once per (isomorphism class,
    orbit of vertex orders): the graph sum of the cover and integral
    routes at zero leaks.

    An invariant sums a per-order value / |Aut_vl| over all labeled
    (graph, gf) for k and all n! vertex orders.  Relabeling permutes the
    orders and keeps |Aut_vl|, so each isomorphism class is visited once,
    at its first labeled member; the labeled walk admits only valid
    classes, so none is validated again.  The walk reads
    :func:`enumerate_labeled_graphs` in order and skips a member whose
    code an earlier member's relabelings reached; the one pass over the
    relabelings that keep k (:func:`_relabelings`) gives the class's
    labeled copies and its symmetries.  Its orders are grouped
    into orbits under its symmetries and order reversal
    (:func:`orientation_classes`), and each orbit is visited at its first
    order, with weight orbit size * labeled copies / |Aut_vl|.  The bare
    unlabeled 1/|Aut| misses the pinned values; one vertex order is not
    relabeling-invariant, so its slice sums labeled graphs.

    At zero leaks both moves keep a table up to permuting its
    multidegrees, so they keep every total by degree d:

    * a symmetry pi permutes the edges, so the table at the order pi(sigma)
      is the table at sigma with every multidegree permuted;
    * reversal flips every edge and keeps every entry of the table.
      Reversing a cover's arrows gives a cover of the reversed order:
      balance holds because there are no leaks, and a one-point
      multiplicity reads only the multiset of windings at its vertex.
      The integrand maps to itself under x_v -> 1/x_v, and S is even, so
      its constant term in x does not change.

    With a leak vector l, reversal trades l for -l, and the totals differ
    (on the triangle with gf (1,0,0), a = (1,0,0) and l = (1,-1,0), the
    coefficient is 2/3 at order (1,3,2) and 0 at its reverse): only the
    zero-leak sums may use these orbits.
    """
    seen: set[tuple] = set()
    for graph, gf in enumerate_labeled_graphs(k):
        if _relabeled_code(graph, gf, identity_order(graph.n)) in seen:
            continue
        codes, syms = _relabelings(graph, gf, k)
        seen |= codes
        aut = automorphism_count(graph)
        for order, size in orientation_classes(graph, syms):
            yield graph, gf, order, Fraction(size * len(codes), aut)


def graph_sum(parts: Iterable[tuple[dict, Any]]) -> dict[int, Any]:
    """Sum of weight * table over (table, weight) pairs, by degree d in
    ascending order, zero sums dropped: the one assembly of every route's
    series over graphs and vertex orders.  A table is keyed by d, or by a
    multidegree a, which counts at d = sum(a)."""
    totals: dict[int, Any] = {}
    for table, weight in parts:
        for key, value in table.items():
            d = key if isinstance(key, int) else sum(key)
            totals[d] = totals.get(d, 0) + value * weight
    return {d: totals[d] for d in sorted(totals) if totals[d] != 0}


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
    optional.  A disconnected graph is rejected: no route counts its covers.
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
    if not graph.is_connected():
        raise ValueError("graph is not connected")
    return graph, gf, relabeling
