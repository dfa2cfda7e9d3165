"""Exact tropical descendant invariants of the elliptic curve.

Three independent computations of the same numbers -- coefficient
extraction from graph integrals, weighted enumeration of graph covers,
and operator matrix elements on a bosonic Fock space -- plus an exact
fit of the resulting q-series into the Eisenstein ring Q[E2, E4, E6].
"""

__version__ = "0.1.0"
