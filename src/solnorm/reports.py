"""Per-matrix summary records, realizing-surface descriptions and per-class
norm reports.

A Summary holds everything a report or census row states about one matrix
apart from the norm table; bundle.summary and semibundle.summary are the
only places those invariants are computed.  With the matrix text it is
the one record (cli._record) that the text report, the JSON report and
the census row are each written from.

A norm table entry pairs a homology class with its norm and a combinatorial
description of a surface realizing it.  Non-orientable realizers of positive
norm carry a geodesic certificate: the path of slopes whose successive
intersection numbers are 2, from which the surface is assembled one piece
per edge.  A certificate is kept as the checked runs of the walk that
proved it, each stored as the slopes it spells, already in canonical form
(a curve_complex.TreePath).  A report formats it with TreePath.text, one
block of "p/q" texts per stored piece, so rendering builds no list of its
vertices and no string per vertex.  The text report writes it joined by
" -> " once per realizer, and cli.to_canonical_json writes it as its list
of quoted texts once per document.
Certificates longer than a caller-chosen cap are elided from reports but
the genus is still recorded; geodesic_path's MAX_PATH_EDGES limit still
applies to those that are not.

The module holds only what the reports render.  The norm a realizer
contributes, max(0, -Euler characteristic), is not rendered: the tests
recompute it from these records and compare it with each row's norm.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .arith import ExtNat
from .curve_complex import ParityClass, TreePath

if TYPE_CHECKING:
    from .bundle import H2Structure
    from .semibundle import SemiBundleH2

DEFAULT_CERTIFICATE_CAP = 10000

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


class _SurfaceFields(NamedTuple):
    kind: str
    genus: int | None = None
    certificate: TreePath | None = None
    certificate_elided: bool = False
    pieces: tuple[SurfaceDescription, ...] = ()


class SurfaceDescription(_SurfaceFields):
    """A realizing surface, which the JSON writer reads field by field and
    the text report through describe and certificate_text.  It has no
    __slots__: the instance dict holds the cached text of its certificate,
    while its fields stay read-only."""

    @cached_property
    def certificate_line(self) -> str:
        """The certificate as the text report's "p/q -> ... -> p/q", formatted
        once however many rows show it."""
        return self.certificate.text(" -> ")

    def describe(self) -> str:
        if self.kind == KIND_SUM:
            return " + ".join(piece.describe() for piece in self.pieces)
        if self.kind == KIND_PI:
            return f"Pi_{self.genus}"
        if self.kind == KIND_EMPTY:
            return "empty surface"
        return self.kind

    def certificate_text(self) -> str | None:
        texts = []
        for desc in (self,) + self.pieces:
            if desc.certificate_elided:
                texts.append("(elided)")
            elif desc.certificate is not None:
                texts.append(desc.certificate_line)
        return "; ".join(texts) if texts else None


class NormReport(NamedTuple):
    coords: dict
    norm: int
    realizer: SurfaceDescription
    note: str | None = None


def pi_surface(certificate: TreePath) -> SurfaceDescription:
    """Non-orientable surface built along a geodesic: genus = path length + 2."""
    genus = len(certificate) - 1 + 2
    return SurfaceDescription(KIND_PI, genus=genus, certificate=certificate)


def pi_surface_elided(genus: int) -> SurfaceDescription:
    """Same, for certificates over the length cap: genus only, path elided."""
    return SurfaceDescription(KIND_PI, genus=genus, certificate_elided=True)


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
