"""Exact Z2-Thurston norms for torus bundles and torus semi-bundles.

The package computes, from a unimodular 2x2 integer matrix: the structure of
second homology with Z2 coefficients, the Z2-Thurston norm of every class
together with a realizing-surface description, the minimum odd and even
genus of embeddable non-orientable closed surfaces, and geodesic
certificates in the intersection-number-2 curve complex of the torus.  All
arithmetic is exact; every closed form is backed by an independent
brute-force oracle (see solnorm.oracle and the `solnorm verify` subcommand).
"""

from .arith import INF, ExtNat, bredon_wood, ext_gcd
from .bundle import (
    BundleClass,
    GeometryClass,
    classify_geometry,
    h2_structure,
    meg_bundle,
    mog_bundle,
    norm_multiset_bundle,
    norm_table_bundle,
    order,
    periodic_class,
    z2_norm_bundle,
)
from .curve_complex import (
    GL2Matrix,
    ParityClass,
    Slope,
    distance,
    distance_bfs,
    export_dot,
    geodesic,
    intersection_number,
    mat_act,
    neighbors_bounded,
    parity_of,
    parse_matrix,
    parse_slope,
)
from .errors import DomainError, ParseError
from .semibundle import (
    SemiBundleClass,
    h2_structure_semi,
    meg_semi,
    mog_semi,
    norm_multiset_semi,
    norm_table_semi,
    z2_norm_semi,
)
from .tree_action import (
    ActionType,
    TranslationData,
    parity_permutation,
    translation_length_closed,
    translation_length_orbit,
    translation_lengths,
)

__version__ = "0.1.0"

__all__ = [
    "ActionType",
    "BundleClass",
    "DomainError",
    "ExtNat",
    "GL2Matrix",
    "GeometryClass",
    "INF",
    "ParityClass",
    "ParseError",
    "SemiBundleClass",
    "Slope",
    "TranslationData",
    "bredon_wood",
    "classify_geometry",
    "distance",
    "distance_bfs",
    "export_dot",
    "ext_gcd",
    "geodesic",
    "h2_structure",
    "h2_structure_semi",
    "intersection_number",
    "mat_act",
    "meg_bundle",
    "meg_semi",
    "mog_bundle",
    "mog_semi",
    "neighbors_bounded",
    "norm_multiset_bundle",
    "norm_multiset_semi",
    "norm_table_bundle",
    "norm_table_semi",
    "order",
    "parity_of",
    "parity_permutation",
    "parse_matrix",
    "parse_slope",
    "periodic_class",
    "translation_length_closed",
    "translation_length_orbit",
    "translation_lengths",
    "z2_norm_bundle",
    "z2_norm_semi",
]
