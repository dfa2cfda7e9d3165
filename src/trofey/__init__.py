"""Exact tropical descendant invariants of the elliptic curve.

Three independent computations of the same numbers -- coefficient
extraction from graph integrals, weighted enumeration of graph covers,
and operator matrix elements on a bosonic Fock space -- plus an exact
fit of the resulting q-series into the Eisenstein ring Q[E2, E4, E6].
"""

from .covers import (
    CoverTuple,
    cover_count,
    cover_count_by_windings,
    descendant_contribution,
    descendant_contribution_by_windings,
    enumerate_tuples,
    fixed_order_series,
    invariant,
    invariant_fixed_order,
    invariant_series,
    one_point_mult,
)
from .fock import (
    cut_join,
    double_hurwitz,
    elliptic_hurwitz_connected,
    elliptic_hurwitz_disconnected,
    fock_cover_count,
    labeled_matrix_element,
    labeled_series_product_check,
    matrix_element,
)
from .graphs import (
    FeynmanGraph,
    GraphAssignment,
    all_orders,
    automorphism_count,
    enumerate_graphs,
    enumerate_labeled_graphs,
    genus_from_descendants,
    graph_from_json_dict,
    graph_to_json_dict,
    identity_order,
    validate_assignment,
)
from .integrals import (
    integral_series_all_orders,
    integral_series_q,
    integral_series_refined,
    mirror_total_series,
    refined_coeff,
    refined_sweep,
)
from .propagators import eisenstein_coefficients
from .quasimodular import QuasimodularFit, basis, fit, weight_bound

__version__ = "0.1.0"

__all__ = [
    "CoverTuple",
    "FeynmanGraph",
    "GraphAssignment",
    "QuasimodularFit",
    "all_orders",
    "automorphism_count",
    "basis",
    "cover_count",
    "cover_count_by_windings",
    "cut_join",
    "descendant_contribution",
    "descendant_contribution_by_windings",
    "double_hurwitz",
    "eisenstein_coefficients",
    "elliptic_hurwitz_connected",
    "elliptic_hurwitz_disconnected",
    "enumerate_graphs",
    "enumerate_labeled_graphs",
    "enumerate_tuples",
    "fit",
    "fixed_order_series",
    "fock_cover_count",
    "genus_from_descendants",
    "graph_from_json_dict",
    "graph_to_json_dict",
    "identity_order",
    "integral_series_all_orders",
    "integral_series_q",
    "integral_series_refined",
    "invariant",
    "invariant_fixed_order",
    "invariant_series",
    "labeled_matrix_element",
    "labeled_series_product_check",
    "matrix_element",
    "mirror_total_series",
    "one_point_mult",
    "refined_coeff",
    "refined_sweep",
    "validate_assignment",
    "weight_bound",
]
