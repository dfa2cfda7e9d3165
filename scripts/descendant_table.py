"""Print a table of descendant invariants of the elliptic curve.

Rows are degrees, columns descendant vectors; every value is computed by
the cover route and re-checked against the integral route.

Usage: python3 scripts/descendant_table.py [--dmax N]
"""

import argparse
from fractions import Fraction

from trofey.covers import invariant_series
from trofey.integrals import mirror_total_series

VECTORS = [(1, 1), (2, 0, 0), (1, 1, 1, 1), (2, 2), (3, 1)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dmax", type=int, default=4)
    args = parser.parse_args()

    columns = {}
    for k in VECTORS:
        covers = invariant_series(k, args.dmax)
        integrals = mirror_total_series(k, args.dmax)
        for d in range(1, args.dmax + 1):
            assert covers.get(d, 0) == integrals.get(d, 0), (k, d)
        columns[k] = covers

    header = ["d"] + ["k=" + ",".join(map(str, k)) for k in VECTORS]
    widths = [max(len(h), 10) for h in header]
    print("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    for d in range(1, args.dmax + 1):
        row = [str(d)] + [str(Fraction(columns[k].get(d, 0))) for k in VECTORS]
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    print("\nall values agree between the cover and integral routes")


if __name__ == "__main__":
    main()
