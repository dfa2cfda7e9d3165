"""Fit fixed-order graph series into the ring Q[E2, E4, E6].

For the three trivalent 3-vertex graphs contributing at genus 2 with one
double descendant, the identity-order q-series of each graph is matched
exactly against Eisenstein polynomials up to its weight bound.  The
triangle and right graphs are mixed-weight individually, but their
weight-6 parts are exact negatives: the sum is homogeneous of weight 8,
like the middle graph on its own.

Usage: python3 scripts/quasimodular_fits.py [--q-order N]
"""

import argparse

from trofey.graphs import FeynmanGraph, graph_sum, identity_order
from trofey.integrals import integral_series_q
from trofey.quasimodular import fit, weight_bound

GRAPHS = [
    ("triangle", FeynmanGraph(3, ((1, 2), (2, 3), (1, 3))), (1, 0, 0)),
    ("right", FeynmanGraph(3, ((1, 1), (1, 2), (2, 3), (1, 3))), (0, 0, 0)),
    ("middle", FeynmanGraph(3, ((1, 2), (1, 2), (1, 3), (1, 3))), (0, 0, 0)),
]


def describe(name: str, result) -> None:
    profile = sorted(result.weight_profile)
    shape = "homogeneous" if result.is_homogeneous else "mixed"
    print(f"{name:>9}:  {result.format_polynomial()}")
    print(f"{'':>9}   weights {profile} ({shape})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q-order", type=int, default=16)
    args = parser.parse_args()

    pair = []  # the triangle and right series, summed below
    for name, graph, gf in GRAPHS:
        order = identity_order(graph.n)
        series = integral_series_q(graph, gf, order, args.q_order)
        result = fit(series, weight_bound(graph, gf), args.q_order)
        describe(name, result)
        if name in ("triangle", "right"):
            pair.append((series, 1))

    result = fit(graph_sum(pair), 8, args.q_order)
    describe("tri+right", result)


if __name__ == "__main__":
    main()
