"""Coefficient extraction from products of edge factors.

The quantity computed here, for a graph with genus function gf, vertex
order, leak vector l and multidegree a, is

    Coef_{z^{2g}} Coef_{x^l} Coef_{q^a}  prod_i 1/S(z_i)
        * prod_{loops k} P~_loop(q_k) * prod_{non-loops k} P~(x_t/x_h, q_k)

with the dressed factors of :mod:`trofey.propagators`.  With no genus
function every vertex has genus 0: the dressing is then trivial and the
factors are the plain ones of the Hurwitz case, on the same code path.  Since
q_k occurs in exactly one factor, the q-extraction happens per edge: a
query at multidegree a multiplies the per-edge q^{a_k} slices and only
then extracts x- and z-coefficients.

One DP does every extraction.  Edge k multiplies in its q^a slices for
the a in a degree set: the single a_k for one multidegree
(:func:`refined_sweep`, :func:`refined_coeff`), 0..q_order for a series
(:func:`integral_series_q`, :func:`integral_series_refined`), always with
sum(a) <= a total cap.  The state maps a grade (the total q-degree d, or
the degrees of the edges done so far) to the monomials in (x-exponents,
z-exponents), so one pass covers every multidegree, and it extracts
several leak targets at once.  The 1/S(z_i) prefactors are applied once,
at extraction: a surviving monomial of z-degree zs_i at vertex i takes
the z^{2 g_i - zs_i} coefficient of 1/S.

Winding bounds.  A slice term of a curled edge (a_k > 0) moves w | a_k
units between its endpoints; an uncurled edge (a_k = 0) carries w >= 1 in
its orientation direction.  In any monomial contributing to x^l, the
uncurled weights form a flow on the acyclic orientation whose sources are
curled contributions and leaks, so each uncurled w is at most
B = total cap + max over the targets of sum|l|.  Terms beyond these
bounds are provably irrelevant and never built.  Partial products are
pruned per vertex: an exponent x_v must stay within [min_t t_v - R_v,
max_t t_v + R_v], where R_v sums the pruning caps of v's remaining edges.
An edge's pruning cap is B if it may stay uncurled (0 in its degree set)
and its largest degree otherwise.  Nothing is silently truncated: the
bounds are sufficient.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .graphs import (
    FeynmanGraph,
    Multidegree,
    VertexOrder,
    check_leaks,
    check_multidegree,
    check_order,
    edge_orientation,
    orientation_classes,
    weighted_classes,
)
from .propagators import divisors
from .series import Coeff, invert, s_coeff, s_series

LeakVector = tuple[int, ...]


@lru_cache(maxsize=None)
def _inv_s_even(g: int) -> tuple[Coeff, ...]:
    """z^{2m}-coefficients (m = 0..g) of 1/S(z), via series inversion."""
    return tuple(invert(s_series(1, 2 * g), 2 * g)[::2])


# An edge-slice term: exponent/dressing data at the two edge ends plus a
# coefficient.  For loops both ends are the same vertex and x-exponents
# are zero; the whole z-dressing is reported in the tail slot.
_SliceTerm = tuple[int, int, int, int, Coeff]  # (x_tail, z_tail, x_head, z_head, c)


@lru_cache(maxsize=None)
def _slice_terms(
    is_loop: bool, a: int, direct_cap: int, g_tail: int, g_head: int
) -> tuple[_SliceTerm, ...]:
    """q^a-slice of one (dressed) edge factor, in endpoint-local form."""
    out: list[_SliceTerm] = []
    if is_loop:
        if a == 0:
            return ()  # loop factors have no constant term
        for w in divisors(a):
            # S(w z)^2 = sum_m (sum_{i+j=m} s_i s_j) w^{2m} z^{2m}
            for m in range(g_tail + 1):
                conv = sum(s_coeff(i) * s_coeff(m - i) for i in range(m + 1))
                out.append((0, 2 * m, 0, 0, w ** (2 * m + 1) * conv))
        return tuple(out)
    if a == 0:
        windings: list[tuple[int, int]] = [(w, 1) for w in range(1, direct_cap + 1)]
    else:
        windings = [(w, s) for w in divisors(a) for s in (1, -1)]
    for w, sgn in windings:
        for i in range(g_tail + 1):
            for j in range(g_head + 1):
                c = w ** (1 + 2 * i + 2 * j) * s_coeff(i) * s_coeff(j)
                out.append((sgn * w, 2 * i, -sgn * w, 2 * j, c))
    return tuple(out)


def _normalize_query(
    graph: FeynmanGraph,
    order: Sequence[int],
    a: Sequence[int] | None,
    l: Sequence[int] | None,
    gf: Sequence[int] | None,
) -> tuple[VertexOrder, Multidegree | None, LeakVector, tuple[int, ...]]:
    """The checked order, multidegree (None for a series), leaks and genus
    function.  No genus function means genus 0 at every vertex, where the
    dressed factors are the plain ones."""
    order = check_order(order, graph.n)
    if a is not None:
        a = check_multidegree(a, graph.num_edges)
    leaks = check_leaks(l, graph.n)
    gf = (0,) * graph.n if gf is None else tuple(gf)
    if len(gf) != graph.n or any(g < 0 for g in gf):
        raise ValueError("genus function must be n nonnegative integers")
    return order, a, leaks, gf


def _edge_processing_order(graph: FeynmanGraph, order: VertexOrder) -> list[int]:
    """Edge indices (0-based) sorted so vertices finish as early as possible."""
    pos = {v: order.index(v) for v in range(1, graph.n + 1)}

    def key(idx: int) -> tuple[int, int, int]:
        u, v = graph.edges[idx]
        return (max(pos[u], pos[v]), min(pos[u], pos[v]), idx)

    return sorted(range(graph.num_edges), key=key)


def _winding_caps(
    graph: FeynmanGraph,
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    targets: Sequence[LeakVector],
) -> tuple[int, list[int]]:
    """The uncurled winding cap B = total_cap + max_t sum|t|, and per edge
    the pruning cap on |winding|: 0 for a loop, the largest allowed degree
    for an edge that must curl, B for one that may stay uncurled."""
    winding_cap = total_cap + max(sum(abs(x) for x in t) for t in targets)
    return winding_cap, [
        0 if u == v else winding_cap if 0 in degs else max(degs, default=0)
        for (u, v), degs in zip(graph.edges, degrees)
    ]


def _graded_pass(
    graph: FeynmanGraph,
    gf_t: tuple[int, ...],
    order: VertexOrder,
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    targets: Sequence[LeakVector],
    by_multidegree: bool,
) -> dict[LeakVector, dict]:
    """Coefficients of x^t z^{2g}, for each leak target t, at every
    multidegree with a_k in degrees[k] and sum(a) <= total_cap: one table
    per target, in one DP over the edges.

    The state maps a grade to its monomials (x-exponents, z-exponents).
    The grade is the total q-degree d, or with ``by_multidegree`` the
    degrees of the edges done so far; each table is keyed by the grade,
    or by the multidegree in edge-index order.  Every uncurled winding is
    capped once, at total_cap + max_t sum|t|; a vertex exponent is pruned
    once it leaves [min_t t_v - remaining, max_t t_v + remaining], with
    the remaining edges at their pruning caps (:func:`_winding_caps`).
    """
    n = graph.n
    edge_order = _edge_processing_order(graph, order)
    winding_cap, caps = _winding_caps(graph, degrees, total_cap, targets)
    remaining_cap = [0] * n  # loops have cap 0
    for (u, v), cap in zip(graph.edges, caps):
        remaining_cap[u - 1] += cap
        remaining_cap[v - 1] += cap
    target_lo = [min(t[v] for t in targets) for v in range(n)]
    target_hi = [max(t[v] for t in targets) for v in range(n)]
    zero = (0,) * n
    # grade -> {(x-exponents, z-exponents): coefficient}
    state: dict[object, dict[tuple[tuple[int, ...], tuple[int, ...]], Coeff]] = {
        () if by_multidegree else 0: {(zero, zero): 1}
    }
    for idx in edge_order:
        u, v = graph.edges[idx]
        tail, head = edge_orientation(graph, idx, order) if u != v else (u, v)
        t_idx, h_idx = tail - 1, head - 1
        remaining_cap[t_idx] -= caps[idx]
        remaining_cap[h_idx] -= caps[idx]
        zt_max, zh_max = 2 * gf_t[t_idx], 2 * gf_t[h_idx]
        t_lo = target_lo[t_idx] - remaining_cap[t_idx]
        t_hi = target_hi[t_idx] + remaining_cap[t_idx]
        h_lo = target_lo[h_idx] - remaining_cap[h_idx]
        h_hi = target_hi[h_idx] + remaining_cap[h_idx]
        # (degree, grade increment, slice terms); the grade grows by addition
        slices = [
            (a, (a,) if by_multidegree else a, terms)
            for a in degrees[idx]
            if (terms := _slice_terms(u == v, a, winding_cap, gf_t[t_idx], gf_t[h_idx]))
        ]
        new: dict[object, dict[tuple[tuple[int, ...], tuple[int, ...]], Coeff]] = {}
        for grade, monomials in state.items():
            budget = total_cap - (sum(grade) if by_multidegree else grade)
            for a, step, terms in slices:
                if a > budget:
                    continue
                out = new.setdefault(grade + step, {})
                for (xs, zs), c in monomials.items():
                    for xt, zt, xh, zh, ec in terms:
                        zt_new = zs[t_idx] + zt
                        if zt_new > zt_max:
                            continue
                        xt_new = xs[t_idx] + xt
                        if not t_lo <= xt_new <= t_hi:
                            continue
                        if t_idx == h_idx:
                            xs2, zs2 = list(xs), list(zs)
                        else:
                            zh_new = zs[h_idx] + zh
                            if zh_new > zh_max:
                                continue
                            xh_new = xs[h_idx] + xh
                            if not h_lo <= xh_new <= h_hi:
                                continue
                            xs2, zs2 = list(xs), list(zs)
                            xs2[h_idx] = xh_new
                            zs2[h_idx] = zh_new
                        xs2[t_idx] = xt_new
                        zs2[t_idx] = zt_new
                        key = (tuple(xs2), tuple(zs2))
                        s = out.get(key, 0) + c * ec
                        if s == 0:
                            out.pop(key, None)
                        else:
                            out[key] = s
        state = {grade: monomials for grade, monomials in new.items() if monomials}
        if not state:
            break

    # the vertex prefactors 1/S(z_i) supply the missing z-degree 2g_i - zs_i
    dressed = [(vi, g, _inv_s_even(g)) for vi, g in enumerate(gf_t) if g]
    tables: dict[LeakVector, dict] = {t: {} for t in targets}
    for grade, monomials in state.items():
        for (xs, zs), c in monomials.items():
            out = tables.get(xs)
            if out is None:
                continue
            for vi, g, inv in dressed:
                c *= inv[g - zs[vi] // 2]
            s = out.get(grade, 0) + c
            if s == 0:
                out.pop(grade, None)
            else:
                out[grade] = s
    if not by_multidegree:
        return tables
    for t, out in tables.items():
        table: dict[Multidegree, Coeff] = {}
        for prefix, c in out.items():
            a = [0] * graph.num_edges
            for idx, a_k in zip(edge_order, prefix):
                a[idx] = a_k
            table[tuple(a)] = c
        tables[t] = table
    return tables


def refined_sweep(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    leak_targets: Sequence[Sequence[int]],
    gf: Sequence[int] | None = None,
) -> dict[LeakVector, Coeff]:
    """Coefficients at one multidegree for several leak vectors at once.

    One :func:`_graded_pass` with the single degree a_k on edge k: the
    edge-factor product is independent of the leak target, so a whole
    family of leak extractions shares one product.
    """
    order, a_t, _, gf_t = _normalize_query(graph, order, a, None, gf)
    targets = [check_leaks(t, graph.n) for t in leak_targets]
    if not targets:
        raise ValueError("refined_sweep needs at least one leak target")
    return _sweep(graph, order, a_t, targets, gf_t)


def _sweep(
    graph: FeynmanGraph,
    order: VertexOrder,
    a_t: Multidegree,
    targets: Sequence[LeakVector],
    gf_t: tuple[int, ...],
) -> dict[LeakVector, Coeff]:
    """:func:`refined_sweep` on an already normalized query."""
    d = sum(a_t)
    tables = _graded_pass(graph, gf_t, order, [(a_k,) for a_k in a_t], d, targets, False)
    return {t: tables[t].get(d, 0) for t in targets}


def refined_coeff(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
    gf: Sequence[int] | None = None,
) -> Coeff:
    """Single coefficient of the dressed edge-factor product; with no genus
    function, of the plain one (genus 0 everywhere)."""
    order, a_t, leaks, gf_t = _normalize_query(graph, order, a, l, gf)
    if sum(leaks) != 0:
        return 0  # every edge term moves weight between vertices, net zero
    return _sweep(graph, order, a_t, [leaks], gf_t)[leaks]


def multidegrees(graph: FeynmanGraph, amax: int) -> Iterator[Multidegree]:
    """All multidegrees with sum(a) <= amax, in lexicographic order (loops
    need a_k >= 1)."""
    is_loop = [int(u == v) for u, v in graph.edges]
    r = len(is_loop)
    loops_after = [sum(is_loop[idx + 1 :]) for idx in range(r)]

    def rec(idx: int, left: int, acc: list[int]) -> Iterator[Multidegree]:
        if idx == r:
            yield tuple(acc)
            return
        for val in range(is_loop[idx], left - loops_after[idx] + 1):
            acc.append(val)
            yield from rec(idx + 1, left - val, acc)
            acc.pop()

    if sum(is_loop) <= amax:
        yield from rec(0, amax, [])


def integral_series_refined(
    graph: FeynmanGraph,
    order: VertexOrder,
    q_order: int,
    l: Sequence[int] | None = None,
    gf: Sequence[int] | None = None,
) -> dict[Multidegree, Coeff]:
    """All refined coefficients with sum(a) <= q_order (zero entries dropped).

    One :func:`_graded_pass` with degree sets 0..q_order, graded by the
    degrees of the edges done so far, gives every multidegree at once;
    each value equals :func:`refined_coeff` at it.
    """
    order, _, leaks, gf_t = _normalize_query(graph, order, None, l, gf)
    if q_order < 0:
        raise ValueError(f"q-order must be >= 0, got {q_order}")
    if sum(leaks) != 0:
        return {}
    degrees = [range(q_order + 1)] * graph.num_edges
    return _graded_pass(graph, gf_t, order, degrees, q_order, [leaks], True)[leaks]


def integral_series_q(
    graph: FeynmanGraph,
    gf: Sequence[int] | None,
    order: VertexOrder,
    q_order: int,
) -> dict[int, Coeff]:
    """q-series with q_1 = ... = q_r = q: coefficient of q^d sums Σa = d.

    One DP over the edges whose state also carries the total q-degree d,
    so every multidegree with Σa <= q_order is covered in a single pass.
    """
    order, _, _, gf_t = _normalize_query(graph, order, None, None, gf)
    if q_order < 0:
        raise ValueError(f"q-order must be >= 0, got {q_order}")
    degrees = [range(q_order + 1)] * graph.num_edges
    zero = (0,) * graph.n
    return _graded_pass(graph, gf_t, order, degrees, q_order, [zero], False)[zero]


def _weighted_total(parts: Iterable[tuple[dict[int, Coeff], Coeff]]) -> dict[int, Coeff]:
    """Sum of weight * series over (series, weight) pairs, in ascending d,
    zero coefficients dropped."""
    totals: dict[int, Coeff] = {}
    for series, weight in parts:
        for d, c in series.items():
            totals[d] = totals.get(d, 0) + c * weight
    return {d: totals[d] for d in sorted(totals) if totals[d] != 0}


def integral_series_all_orders(
    graph: FeynmanGraph, gf: Sequence[int] | None, q_order: int
) -> dict[int, Coeff]:
    """Sum of integral_series_q over all n! vertex orders.

    Orders inducing the same edge orientations give identical series, so
    the sum is computed once per orientation class and multiplied.
    """
    return _weighted_total(
        (integral_series_q(graph, gf, rep, q_order), count)
        for rep, count in orientation_classes(graph)
    )


def mirror_total_series(k: Sequence[int], q_order: int) -> dict[int, Coeff]:
    """The graph-sum side of the mirror identity: the dressed q-series summed
    as in :func:`~trofey.graphs.weighted_classes` (zero coefficients dropped)."""
    return _weighted_total(
        (integral_series_q(graph, gf, order, q_order), weight)
        for graph, gf, order, weight in weighted_classes(k)
    )
