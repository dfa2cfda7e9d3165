"""The fine-level identity on random graphs.

Covers and integral monomials agree for every (graph, genus function,
vertex order, multidegree, leak vector), not only on the fixed graph
lists of the other tests.  The strategies here draw decorated graphs for
the cover and integral routes, and loop-free cubic graphs for the
operator route.  At zero leaks a graph with a bridge has no cover, so the
zero-leak identities draw bridgeless graphs, and the leaked one, where a
leak can cross a bridge, draws any connected graph.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trofey.covers import cover_count, cover_table
from trofey.fock import fock_tables
from trofey.graphs import FeynmanGraph, validate_assignment
from trofey.integrals import integral_series_refined, multidegrees, refined_coeff


def _graph(n: int, edges: list[tuple[int, int]]) -> FeynmanGraph:
    """The multigraph with these edges, loops moved to the front."""
    return FeynmanGraph(n, sorted(edges, key=lambda e: e[0] != e[1]))


@st.composite
def decorated_graphs(draw) -> tuple[FeynmanGraph, tuple[int, ...], tuple[int, ...]]:
    """(graph, gf, k): a random spanning tree on n <= 5 vertices plus 0-3
    extra edges or loops, vertex genera in {0, 1} and the descendant vector
    k = valency - 2 + 2g, which must be >= 0 with sum(k) <= 8.

    sum(k) = 2 (edges - n + sum(gf)) is always even.  A leaf has valency 1,
    so k >= 0 forces its genus to 1.
    """
    n = draw(st.integers(2, 5))
    edges = [(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)]
    vertex = st.integers(1, n)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=3))
    graph = _graph(n, edges)
    gf = tuple(1 if deg == 1 else draw(st.integers(0, 1)) for deg in graph.degrees())
    k = tuple(deg - 2 + 2 * g for deg, g in zip(graph.degrees(), gf))
    assume(sum(k) <= 8)
    return graph, gf, k


def has_bridge(graph: FeynmanGraph) -> bool:
    """Whether removing some non-loop edge disconnects the graph.  At zero
    leaks such a graph has no cover: a bridge's winding is the net flow out
    of one side, which is 0."""
    return any(
        not FeynmanGraph(graph.n, graph.edges[:i] + graph.edges[i + 1 :]).is_connected()
        for i, (u, v) in enumerate(graph.edges)
        if u != v
    )


@st.composite
def bridgeless_graphs(draw) -> tuple[FeynmanGraph, tuple[int, ...], tuple[int, ...]]:
    """(graph, gf, k) as in :func:`decorated_graphs`, but with no bridge.

    An ear decomposition on n <= 5 vertices: a cycle through vertex 1 and
    new vertices, then ears until every vertex is in, each a path from a
    reached vertex through new vertices to a reached vertex (maybe the
    same one), then 0-2 extra edges or loops.  Every edge lies on a cycle.
    Every valency is at least 2, so the genera in {0, 1} are free.
    """
    n = draw(st.integers(2, 5))
    reached, edges = [1], []
    while len(reached) < n:
        new = len(reached) + 1
        inner = list(range(new, new + draw(st.integers(1, n - new + 1))))
        path = [draw(st.sampled_from(reached)), *inner, draw(st.sampled_from(reached))]
        edges += zip(path, path[1:])
        reached += inner
    vertex = st.integers(1, n)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    graph = _graph(n, edges)
    gf = tuple(draw(st.integers(0, 1)) for _ in range(n))
    k = tuple(deg - 2 + 2 * g for deg, g in zip(graph.degrees(), gf))
    assume(sum(k) <= 8)
    return graph, gf, k


@st.composite
def cubic_graphs(draw) -> FeynmanGraph:
    """A connected loop-free cubic multigraph with no bridge on n = 2, 4 or
    6 vertices: a random perfect matching of the 3n half-edges, each one
    matched to a half-edge at another vertex."""
    n = draw(st.sampled_from((2, 4, 6)))
    halves = [v for v in range(1, n + 1) for _ in range(3)]
    edges = []
    while halves:
        u = halves.pop()
        partners = [i for i, v in enumerate(halves) if v != u]
        assume(partners)
        edges.append((u, halves.pop(draw(st.sampled_from(partners)))))
    graph = _graph(n, edges)
    assume(graph.is_connected() and not has_bridge(graph))
    return graph


@settings(max_examples=200, deadline=None)
@given(decorated=bridgeless_graphs(), data=st.data())
def test_cover_table_equals_integral_table_on_random_graphs(decorated, data):
    # at zero leaks a graph with a bridge has two empty tables, and so do
    # most at dmax <= 1; a dmax-3 table holds every key of sum <= 1 too
    graph, gf, k = decorated
    assert validate_assignment(graph, gf, k) == [] and not has_bridge(graph)
    order = tuple(data.draw(st.permutations(range(1, graph.n + 1))))
    dmax = data.draw(st.integers(2, 3))
    assert cover_table(graph, order, dmax, k) == integral_series_refined(graph, order, dmax, gf=gf)


@settings(max_examples=200, deadline=None)
@given(decorated=decorated_graphs(), data=st.data())
def test_leaked_cover_count_equals_refined_coeff_on_random_graphs(decorated, data):
    # leaks l in [-2, 2]^n; an unbalanced vector has no covers and no
    # monomial, so half of them are balanced to sum(l) = 0 by the last entry
    # and placed in descending order along the vertex order, the direction
    # in which uncurled edges carry winding
    graph, _, _ = decorated
    order = tuple(data.draw(st.permutations(range(1, graph.n + 1))))
    a = data.draw(st.sampled_from(list(multidegrees(graph, 3))))
    leaks = data.draw(st.lists(st.integers(-2, 2), min_size=graph.n, max_size=graph.n))
    if data.draw(st.booleans()):
        leaks[-1] -= sum(leaks)
        ranked = dict(zip(order, sorted(leaks, reverse=True)))
        leaks = [ranked[v] for v in range(1, graph.n + 1)]
    assert refined_coeff(graph, order, a, leaks) == cover_count(graph, order, a, leaks)


@settings(max_examples=15, deadline=None)
@given(graph=cubic_graphs())
def test_fock_tables_equal_cover_tables_on_random_cubic_graphs(graph):
    # K4 has no cover at amax 2; every bridgeless cubic graph on <= 6
    # vertices has one at amax 3
    tables = fock_tables(graph, 3)
    assert any(tables.values())
    for order, table in tables.items():
        assert table == cover_table(graph, order, 3), (graph.edges, order)
