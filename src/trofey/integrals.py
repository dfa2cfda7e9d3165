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
(:func:`refined_coeff`, which :func:`refined_sweep` reads once per leak
vector), 0..q_order for a series (:func:`integral_series_q`,
:func:`integral_series_refined`), always with sum(a) <= a total cap.  The
state maps a monomial (x-exponents, z-exponents) to its coefficient at
every grade: the total q-degree d, or the degrees of the edges done so
far, packed into one integer.  An edge's slice terms are grouped by the
exponent shift they apply, so the pass builds each new monomial once per
(monomial, shift) and then walks the grades.  A pass extracts one leak
vector, so its result is one table.

Genus dressing stays in integers.  A z^{2m} term at a vertex of genus g
carries s_m = 1/(4^m (2m+1)!), m <= g; the pass scales it by K_g^m with
K_g = 4 (2g+1)!, which leaves (2g+1)!^m / (2m+1)!, an integer because
(2m+1)! divides (2g+1)!.  A monomial of z-degree zs_v at vertex v so
carries K_v^{zs_v/2} too much.  The 1/S(z_v) prefactors and that scale
are applied once per monomial, at extraction: vertex v contributes the
z^{2 g_v - zs_v} coefficient of 1/S divided by K_v^{zs_v/2}.  Genus-0
vertices contribute nothing, so a genus-0 pass stays in ``int``.

Winding bounds.  A slice term of a curled edge (a_k > 0) moves w | a_k
units between its endpoints; an uncurled edge (a_k = 0) carries w >= 1 in
its orientation direction.  In any monomial contributing to x^l, the
uncurled weights form a flow on the acyclic orientation whose sources are
curled contributions and leaks, so each uncurled w is at most
B = total cap + sum|l|.  Terms beyond these bounds are provably
irrelevant and never built.  Partial products are pruned per vertex: an
exponent x_v must stay within [l_v - R_v, l_v + R_v], where R_v sums the
pruning caps of v's remaining edges.  An edge's pruning cap is B if it
may stay uncurled (0 in its degree set) and its largest degree
otherwise.  Nothing is silently truncated: the bounds are sufficient.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from .graphs import (
    FeynmanGraph,
    Multidegree,
    VertexOrder,
    check_query,
    graph_sum,
    identity_order,
    orientation,
    orientation_classes,
    symmetries,
    weighted_classes,
)
from .propagators import divisors
from .series import Coeff, invert, s_series

LeakVector = tuple[int, ...]


def _inv_s_even(g: int) -> tuple[Coeff, ...]:
    """z^{2m}-coefficients (m = 0..g) of 1/S(z), via series inversion."""
    return tuple(invert(s_series(1, 2 * g), 2 * g)[::2])


@lru_cache(maxsize=None)
def _scaled_s(m: int, g: int) -> int:
    """K_g^m s_m = (2g+1)!^m / (2m+1)! for m <= g, with K_g = 4 (2g+1)!."""
    return factorial(2 * g + 1) ** m // factorial(2 * m + 1)


@lru_cache(maxsize=None)
def _vertex_prefactors(g: int) -> tuple[Fraction, ...]:
    """For a vertex of genus g >= 1 whose monomial has z-degree 2m (m = 0..g):
    the z^{2g-2m} coefficient of 1/S, divided by the scale K_g^m."""
    scale = 4 * factorial(2 * g + 1)
    inv = _inv_s_even(g)
    return tuple(Fraction(inv[g - m]) / scale**m for m in range(g + 1))


# A shift group of one edge: the exponent shift at the two edge ends and
# the terms applying it, as (grade step, scaled coefficient) in ascending
# degree.  For loops both ends are the same vertex and the x-shifts are
# zero; the whole z-dressing is reported in the tail slot.
_ShiftGroup = tuple[int, int, int, int, tuple[tuple[int, int], ...]]


@lru_cache(maxsize=None)
def _shift_groups(
    is_loop: bool,
    degrees: Sequence[int],
    direct_cap: int,
    g_tail: int,
    g_head: int,
    step_unit: int,
) -> tuple[_ShiftGroup, ...]:
    """The q^a slices (a in degrees, ascending) of one dressed edge factor,
    grouped by shift, the z^{2m} dressing at a vertex of genus g scaled by
    K_g^m; degree a steps the grade by a * step_unit."""
    groups: dict[tuple[int, int, int, int], dict[int, int]] = {}

    def add(shift: tuple[int, int, int, int], a: int, c: int) -> None:
        terms = groups.setdefault(shift, {})
        terms[a] = terms.get(a, 0) + c

    # S(w z)^2 = sum_m (sum_{i+j=m} s_i s_j) w^{2m} z^{2m}
    loop_dressing = [
        sum(_scaled_s(i, g_tail) * _scaled_s(m - i, g_tail) for i in range(m + 1))
        for m in range(g_tail + 1)
    ]
    for a in degrees:
        if is_loop and a == 0:
            continue  # loop factors have no constant term
        if is_loop:
            for w in divisors(a):
                for m, conv in enumerate(loop_dressing):
                    add((0, 2 * m, 0, 0), a, w ** (2 * m + 1) * conv)
            continue
        if a == 0:
            windings = [(w, 1) for w in range(1, direct_cap + 1)]
        else:
            windings = [(w, s) for w in divisors(a) for s in (1, -1)]
        for w, sgn in windings:
            for i in range(g_tail + 1):
                for j in range(g_head + 1):
                    c = _scaled_s(i, g_tail) * _scaled_s(j, g_head)
                    add((sgn * w, 2 * i, -sgn * w, 2 * j), a, w ** (1 + 2 * i + 2 * j) * c)
    return tuple(
        shift + (tuple((a * step_unit, c) for a, c in sorted(terms.items())),)
        for shift, terms in groups.items()
    )


def _edge_plan(graph: FeynmanGraph, order: VertexOrder) -> tuple[tuple[int, int, int], ...]:
    """(edge index, tail, head) with 0-based vertices, edges sorted so
    vertices finish as early as possible; a loop's tail is its head."""
    pos = {v: i for i, v in enumerate(order)}
    plan = sorted(  # the head is the order-later endpoint
        (pos[head], pos[tail], idx, tail - 1, head - 1)
        for idx, (tail, head) in enumerate(orientation(graph, order))
    )
    return tuple(step[2:] for step in plan)


def _winding_caps(
    graph: FeynmanGraph,
    degrees: Sequence[Sequence[int]],
    total_cap: int,
    leaks: LeakVector,
) -> tuple[int, list[int]]:
    """The uncurled winding cap B = total_cap + sum|l|, and per edge the
    pruning cap on |winding|: 0 for a loop, the largest allowed degree for
    an edge that must curl, B for one that may stay uncurled."""
    winding_cap = total_cap + sum(abs(x) for x in leaks)
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
    leaks: LeakVector,
    by_multidegree: bool,
) -> dict:
    """Coefficients of x^l z^{2g} at every multidegree with a_k in
    degrees[k] and sum(a) <= total_cap, as one table, in one DP over the
    edges.

    The state maps a monomial (x-exponents, z-exponents) to {grade:
    coefficient}.  A grade is the integer d * U + code, d the total
    q-degree.  Without ``by_multidegree`` U = 1 and the code is 0, so the
    grade is d.  With it, U = R^r for radix R = total_cap + 1 and r edges,
    and the code holds the degree of the p-th edge done as its base-R
    digit p.  No digit exceeds total_cap, so nothing carries: sum(a) <=
    total_cap holds exactly when the grade is below R * U.  The table is
    keyed by d, or by the multidegree in edge-index order, ascending.

    Per edge, each monomial builds one new monomial per shift group
    (:func:`_shift_groups`), after the pruning checks; then each of its
    grades takes the group's terms in ascending degree until the grade
    reaches R * U.  Every uncurled winding is capped once, at
    total_cap + sum|l|; a vertex exponent is pruned once it leaves
    [l_v - remaining, l_v + remaining], with the remaining edges at their
    pruning caps (:func:`_winding_caps`).  Every scaled slice coefficient
    is a positive integer, so the pass never cancels; zero sums are
    dropped at extraction.  The pass is the one guard of every integral
    query's cap and leak balance.
    """
    if total_cap < 0:
        raise ValueError(f"q-order must be >= 0, got {total_cap}")
    if sum(leaks) != 0:
        return {}  # every edge term moves weight between vertices, net zero
    n = graph.n
    plan = _edge_plan(graph, order)
    winding_cap, caps = _winding_caps(graph, degrees, total_cap, leaks)
    remaining_cap = [0] * n  # loops have cap 0
    for (u, v), cap in zip(graph.edges, caps):
        remaining_cap[u - 1] += cap
        remaining_cap[v - 1] += cap
    radix = total_cap + 1
    unit = radix ** len(plan) if by_multidegree else 1
    limit = radix * unit
    zero = (0,) * n
    # (x-exponents, z-exponents) -> {grade: coefficient}
    state: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {(zero, zero): {0: 1}}
    for p, (idx, t_idx, h_idx) in enumerate(plan):
        remaining_cap[t_idx] -= caps[idx]
        remaining_cap[h_idx] -= caps[idx]
        zt_max, zh_max = 2 * gf_t[t_idx], 2 * gf_t[h_idx]
        t_lo, t_hi = leaks[t_idx] - remaining_cap[t_idx], leaks[t_idx] + remaining_cap[t_idx]
        h_lo, h_hi = leaks[h_idx] - remaining_cap[h_idx], leaks[h_idx] + remaining_cap[h_idx]
        groups = _shift_groups(
            t_idx == h_idx, degrees[idx], winding_cap, gf_t[t_idx], gf_t[h_idx],
            unit + radix**p if by_multidegree else 1,
        )
        new: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[int, int]] = {}
        for (xs, zs), grades in state.items():
            lowest = min(grades)
            for xt, zt, xh, zh, terms in groups:
                if lowest + terms[0][0] >= limit:
                    continue
                zt_new = zs[t_idx] + zt
                if zt_new > zt_max:
                    continue
                xt_new = xs[t_idx] + xt
                if not t_lo <= xt_new <= t_hi:
                    continue
                if t_idx == h_idx:
                    zs2 = list(zs)
                    zs2[t_idx] = zt_new
                    key = (xs, tuple(zs2))
                else:
                    zh_new = zs[h_idx] + zh
                    if zh_new > zh_max:
                        continue
                    xh_new = xs[h_idx] + xh
                    if not h_lo <= xh_new <= h_hi:
                        continue
                    xs2, zs2 = list(xs), list(zs)
                    xs2[t_idx], xs2[h_idx] = xt_new, xh_new
                    zs2[t_idx], zs2[h_idx] = zt_new, zh_new
                    key = (tuple(xs2), tuple(zs2))
                out = new.get(key)
                if out is None:
                    out = new[key] = {}
                for g, c in grades.items():
                    for step, ec in terms:
                        g2 = g + step
                        if g2 >= limit:
                            break
                        out[g2] = out.get(g2, 0) + c * ec
        state = new
        if not state:
            break

    # the vertex prefactors 1/S(z_i) supply the missing z-degree 2g_i - zs_i
    dressed = [(vi, _vertex_prefactors(g)) for vi, g in enumerate(gf_t) if g]
    out: dict[int, Coeff] = {}
    for (xs, zs), grades in state.items():
        if xs != leaks:
            continue
        scale: Coeff = 1
        for vi, prefactors in dressed:
            scale *= prefactors[zs[vi] // 2]
        for g, c in grades.items():
            out[g] = out.get(g, 0) + c * scale

    def multidegree(code: int) -> Multidegree:
        a = [0] * graph.num_edges
        for idx, _, _ in plan:
            code, a[idx] = divmod(code, radix)
        return tuple(a)

    if by_multidegree:
        return dict(sorted((multidegree(g % unit), c) for g, c in out.items() if c != 0))
    return {d: out[d] for d in sorted(out) if out[d] != 0}


def refined_sweep(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    leak_targets: Sequence[Sequence[int]],
    gf: Sequence[int] | None = None,
) -> dict[LeakVector, Coeff]:
    """Coefficients at one multidegree for several leak vectors: one
    :func:`refined_coeff` per leak vector."""
    if not leak_targets:
        raise ValueError("refined_sweep needs at least one leak target")
    return {tuple(t): refined_coeff(graph, order, a, t, gf) for t in leak_targets}


def refined_coeff(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
    gf: Sequence[int] | None = None,
) -> Coeff:
    """Single coefficient of the dressed edge-factor product; with no genus
    function, of the plain one (genus 0 everywhere): the pass with the
    single degree a_k on edge k."""
    order, a_t, leaks, gf_t = check_query(graph, order, a, l, gf)
    d = sum(a_t)
    return _graded_pass(graph, gf_t, order, [(a_k,) for a_k in a_t], d, leaks, False).get(d, 0)


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
    order, _, leaks, gf_t = check_query(graph, order, l=l, gf=gf)
    degrees = [range(q_order + 1)] * graph.num_edges
    return _graded_pass(graph, gf_t, order, degrees, q_order, leaks, True)


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
    order, _, _, gf_t = check_query(graph, order, gf=gf)
    degrees = [range(q_order + 1)] * graph.num_edges
    return _graded_pass(graph, gf_t, order, degrees, q_order, (0,) * graph.n, False)


def integral_series_all_orders(
    graph: FeynmanGraph, gf: Sequence[int] | None, q_order: int
) -> dict[int, Coeff]:
    """Sum of integral_series_q over all n! vertex orders.

    It is computed once per orbit of orders under the symmetries of
    (graph, gf) and order reversal
    (:func:`~trofey.graphs.orientation_classes`), which give the same
    zero-leak series (:func:`~trofey.graphs.weighted_classes`), and
    multiplied by the orbit size.
    """
    _, _, _, gf_t = check_query(graph, identity_order(graph.n), gf=gf)
    orbits = orientation_classes(graph, symmetries(graph, gf_t))
    return graph_sum((integral_series_q(graph, gf_t, rep, q_order), size) for rep, size in orbits)


def mirror_total_series(k: Sequence[int], q_order: int) -> dict[int, Coeff]:
    """The graph-sum side of the mirror identity: the dressed q-series summed
    as in :func:`~trofey.graphs.weighted_classes` (zero coefficients dropped)."""
    return graph_sum(
        (integral_series_q(graph, gf, order, q_order), weight)
        for graph, gf, order, weight in weighted_classes(k)
    )
