"""Exact Z2-Thurston norms for torus bundles and torus semi-bundles.

The package computes, from a unimodular 2x2 integer matrix: the structure of
second homology with Z2 coefficients, the Z2-Thurston norm of every class
together with a realizing-surface description, the minimum odd and even
genus of embeddable non-orientable closed surfaces, and geodesic
certificates in the intersection-number-2 curve complex of the torus.  All
arithmetic is exact; every closed form is backed by an independent
brute-force oracle (see solnorm.oracle and the `solnorm verify` subcommand).

Each kind has one report API.  bundle.summary(A) and semibundle.summary(A)
give every invariant a report states: the H2 case, the sorted norms, mog,
meg and, for bundles, the geometry and the translation lengths.
norm_table(A, summary(A)) in the same module adds the realizing
surfaces.  z2_norm_bundle and z2_norm_semi give the norm of one class.

The orbit reference for translation lengths (ActionType, TranslationData,
translation_length_orbit) and the bounded breadth-first distance
distance_bfs live in solnorm.oracle.  They keep their names here: the
module __getattr__ (PEP 562) imports the oracle on the first use of one of
them, so importing solnorm does not.
"""

from .arith import INF, ExtNat, bredon_wood, ext_gcd
from .bundle import (
    BundleClass,
    GeometryClass,
    classify_geometry,
    h2_structure,
    meg_bundle,
    order,
    periodic_class,
    z2_norm_bundle,
)
from .curve_complex import (
    GL2Matrix,
    ParityClass,
    Slope,
    TreePath,
    distance,
    export_dot,
    geodesic,
    geodesic_path,
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
    z2_norm_semi,
)
from .tree_action import parity_permutation, translation_length_closed, translation_lengths

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
    "TreePath",
    "bredon_wood",
    "classify_geometry",
    "distance",
    "distance_bfs",
    "export_dot",
    "ext_gcd",
    "geodesic",
    "geodesic_path",
    "h2_structure",
    "intersection_number",
    "mat_act",
    "meg_bundle",
    "neighbors_bounded",
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

_ORACLE_NAMES = frozenset({"ActionType", "TranslationData", "distance_bfs", "translation_length_orbit"})


def __getattr__(name: str):
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
