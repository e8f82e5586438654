"""Per-matrix summary records, realizing-surface descriptions and per-class
norm reports.

A Summary holds everything a report or census row states about one matrix
apart from the norm table; bundle.summary and semibundle.summary are the
only places those invariants are computed.  With the matrix text it is
the one record (cli._record) that the text report, the JSON report and
the census row are each written from.

A norm table entry pairs a homology class with its norm and a combinatorial
description of a surface realizing it.  Each positive norm is a tree
distance d(w, A(w)), realized by a non-orientable surface assembled one
piece per edge of its certificate, the geodesic from w to A(w); pi_surface
makes it for both kinds.  A certificate is kept as the checked runs of the
walk that proved it, each stored as the slopes it spells, already in
canonical form (a curve_complex.TreePath).  Every certificate is checked,
however long; cli decides whether to print it, with TreePath.text, one
block of "p/q" texts per stored piece.

The module holds only what the reports render.  The norm a realizer
contributes, max(0, -Euler characteristic), is not rendered: the tests
recompute it from these records and compare it with each row's norm.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .arith import ExtNat
from .curve_complex import GL2Matrix, ParityClass, Slope, TreePath, geodesic_path, mat_act

if TYPE_CHECKING:
    from .bundle import H2Structure
    from .semibundle import SemiBundleH2

KIND_EMPTY = "empty"
KIND_TORUS_FIBER = "torus fiber"
KIND_TORUS = "torus"
KIND_KLEIN_BOTTLE = "Klein bottle"
KIND_PI = "Pi_g"
KIND_SUM = "sum"


class Summary(NamedTuple):
    """The invariants of one bundle or semi-bundle.  h2 is the kind's H2
    structure and norms the sorted norm multiset of H_2.  Bundles also fill
    geometry and the translation length of each parity class; semi-bundles
    fill f_norm, N(b, a), which stays None when b is odd."""

    kind: str
    det: int
    trace: int
    h2: H2Structure | SemiBundleH2
    norms: tuple[int, ...]
    mog: ExtNat
    meg: int
    geometry: str | None = None
    lengths: dict[ParityClass, ExtNat] | None = None
    f_norm: int | None = None


class SurfaceDescription(NamedTuple):
    """A realizing surface: its kind, the genus of a non-orientable one,
    the certificate of a Pi_g and the pieces of a sum.  cli writes its
    text and its JSON."""

    kind: str
    genus: int | None = None
    certificate: TreePath | None = None
    pieces: tuple[SurfaceDescription, ...] = ()


class NormReport(NamedTuple):
    coords: dict
    norm: int
    realizer: SurfaceDescription
    note: str | None = None


def pi_surface(A: GL2Matrix, v: Slope, length: int) -> SurfaceDescription:
    """The non-orientable surface of genus length + 2 built along the
    certificate of A from v, for both kinds: the middle length edges of
    the walk from v to A(v).  The walk checks that the certificate has
    length edges; it must also run from its first vertex w to A(w), which
    proves d(w, A(w)) = length.  That w is on the axis (a bundle) or is v
    itself (a semi-bundle) is the caller's to check."""
    certificate = geodesic_path(v, mat_act(A, v), middle=length)
    if certificate[-1] != mat_act(A, certificate[0]):
        raise AssertionError(f"certificate of {A} from {v} does not run from a vertex to its image")
    return SurfaceDescription(KIND_PI, genus=length + 2, certificate=certificate)


EMPTY_SURFACE = SurfaceDescription(KIND_EMPTY)
TORUS_FIBER = SurfaceDescription(KIND_TORUS_FIBER)
TORUS = SurfaceDescription(KIND_TORUS)
KLEIN_BOTTLE = SurfaceDescription(KIND_KLEIN_BOTTLE, genus=2)


def sum_of(*pieces: SurfaceDescription) -> SurfaceDescription:
    """The disjoint union: the empty surface for no pieces, the piece itself
    for one."""
    if len(pieces) < 2:
        return pieces[0] if pieces else EMPTY_SURFACE
    return SurfaceDescription(KIND_SUM, pieces=pieces)
