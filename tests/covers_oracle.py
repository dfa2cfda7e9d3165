"""Test-only oracle for the cover route: the product-then-solve enumeration.

``enumerate_tuples_reference`` is the cover enumeration that
``trofey.covers.enumerate_tuples`` used before the vertex-order pass.  For
one (graph, order, multidegree, leaks) it takes the product of every loop
winding choice and every curled (winding, direction) choice, and for each
product element solves the balance condition for the direct windings
vertex by vertex.  It shares no enumeration code with the pass (the
composition helper is copied here), so equal cover multisets check the
pass's edge ownership and pruning.

``split_by_windings`` groups the covers of one multidegree by the windings
of the edges with a_k > 0: the split that the operator route produces one
winding choice at a time, and the split the pinned criteria 02 and 03
state.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import Iterator, Sequence

from trofey.covers import Cover, _descendant_weight, enumerate_tuples
from trofey.graphs import FeynmanGraph, VertexOrder
from trofey.propagators import divisors
from trofey.series import Coeff


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


def enumerate_tuples_reference(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
) -> list[Cover]:
    """The complete, duplicate-free list of covers for the given data, as
    (a, windings, arrows) triples."""
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
            tail, head = (u, v) if order.index(u) < order.index(v) else (v, u)
            orient.append((tail, head))
            (curled_idx if a[idx] > 0 else direct_idx).append(idx)

    out_direct: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for idx in direct_idx:
        out_direct[orient[idx][0]].append(idx)

    loop_choices = [divisors(a[idx]) for idx in loop_idx]
    curled_choices = [
        [(w, s) for w in divisors(a[idx]) for s in (1, -1)] for idx in curled_idx
    ]

    tuples: list[Cover] = []
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
                for idx, w in zip(loop_idx, loop_ws):
                    windings[idx] = w
                    arrows[idx] = orient[idx]
                for idx, (w, _) in zip(curled_idx, curled_ws):
                    windings[idx] = w
                    arrows[idx] = arrow[idx]
                for idx in direct_idx:
                    windings[idx] = assignment[idx]
                    arrows[idx] = orient[idx]
                tuples.append((a, tuple(windings), tuple(arrows)))
    return tuples


def split_by_windings(
    graph: FeynmanGraph,
    order: VertexOrder,
    a: Sequence[int],
    l: Sequence[int] | None = None,
    k: Sequence[int] | None = None,
) -> dict[tuple[int, ...], Coeff]:
    """Covers grouped by the windings of the edges with a_k > 0 (keys in
    edge-index order), each cover counting prod w, or with ``k`` its
    descendant weight; groups that sum to 0 are dropped."""
    marked = [idx for idx, a_k in enumerate(a) if a_k > 0]
    out: dict[tuple[int, ...], Coeff] = {}
    for _, windings, arrows in enumerate_tuples(graph, order, a, l):
        key = tuple(windings[idx] for idx in marked)
        if k is None:
            value = prod(windings)
        else:
            value = _descendant_weight(graph.n, windings, arrows, k)
        out[key] = out.get(key, 0) + value
    return {key: value for key, value in out.items() if value != 0}
