"""Test-only helpers that read the report records and certificate paths."""

import itertools

from solnorm import bundle, semibundle
from solnorm.arith import INF
from solnorm.curve_complex import PARITY_CLASSES, GL2Matrix, TreePath
from solnorm.reports import KIND_PI, KIND_SUM, NormReport, SurfaceDescription


def check_pieces(path: TreePath) -> None:
    """Raise AssertionError unless the stored pieces of path add up to its
    vertex count and each starts where the ones before it end.  It reads
    only the record, so a path that claims more vertices than it has
    fails here before any vertex is built."""
    pieces, starts, count = path._path
    sizes = [len(piece) if type(piece) is list else piece[-1] for piece in pieces]
    if sum(sizes) != count or starts != list(itertools.accumulate(sizes[:-1], initial=0)):
        raise AssertionError(f"pieces of sizes {sizes} at {starts} do not make a path of {count} vertices")


def norm_contribution(surface: SurfaceDescription) -> int:
    """max(0, -Euler characteristic) of a realizing surface: genus - 2 for a
    non-orientable surface of genus > 2, the sum over the pieces of a
    disjoint union, zero for everything else here."""
    if surface.kind == KIND_SUM:
        return sum(norm_contribution(piece) for piece in surface.pieces)
    if surface.kind == KIND_PI:
        # an explicit raise: a helper's assert would vanish under python -O
        if surface.genus is None:
            raise AssertionError(f"{KIND_PI} surface without a genus")
        return max(0, surface.genus - 2)
    return 0


def _surface_document(surface: SurfaceDescription) -> dict:
    doc: dict = {"kind": surface.kind}
    if surface.genus is not None:
        doc["genus"] = surface.genus
    if surface.certificate_elided:
        doc["certificate"] = "elided"
    elif surface.certificate is not None:
        doc["certificate"] = [str(v) for v in surface.certificate]
    if surface.pieces:
        doc["pieces"] = [_surface_document(piece) for piece in surface.pieces]
    return doc


def _row_document(entry: NormReport) -> dict:
    doc = {"class": dict(entry.coords), "norm": entry.norm, "realizer": _surface_document(entry.realizer)}
    if entry.note:
        doc["note"] = entry.note
    return doc


def reference_document(kind: str, A: GL2Matrix, cap: int) -> dict:
    """The JSON report as a dict of plain JSON values, built from the
    records: json.dumps(reference_document(kind, A, cap), sort_keys=True,
    indent=2) + "\n" is the reference for cli.to_canonical_json.  Each
    certificate is the list of str of its vertices, so the reference
    reads the path one slope at a time and not through TreePath.text."""
    module = {"bundle": bundle, "semibundle": semibundle}[kind]
    matrix = A.to_text()
    s = module.summary(A)
    h2 = {"order": s.h2.order, "generators": list(s.h2.generators)}
    doc = {"matrix": matrix, "kind": s.kind, "det": s.det, "trace": s.trace, "h2": h2}
    if s.kind == "bundle":
        doc["geometry"] = s.geometry
        h2["case"] = s.h2.case_label
        if s.h2.identification:
            h2["identification"] = s.h2.identification
        doc["translation_lengths"] = {
            cls.label: "inf" if s.lengths[cls] == INF else s.lengths[cls] for cls in PARITY_CLASSES
        }
    doc["mog"], doc["meg"] = "inf" if s.mog == INF else s.mog, s.meg
    doc["norm_table"] = [_row_document(entry) for entry in module.norm_table(A, s, cap)]
    return doc
