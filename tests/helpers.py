"""Test-only helpers that read the report records and certificate paths."""

import math

import pytest

from solnorm import bundle, curve_complex, semibundle
from solnorm.arith import INF, ExtNat
from solnorm.curve_complex import PARITY_CLASSES, GL2Matrix
from solnorm.errors import DomainError
from solnorm.reports import KIND_PI, KIND_SUM, NormReport, SurfaceDescription


def spell_at_most(monkeypatch, pairs):
    """Make geodesic spell the vertices of its runs through a wrapper that
    fails the test once more than pairs vertices have been spelled; returns
    the list of coordinates spelled so far."""
    plain, spelled = curve_complex._progression, []

    def counting(start, step, count):
        for term in plain(start, step, count):
            if len(spelled) >= 2 * pairs:
                pytest.fail(f"geodesic spelled out more than {pairs} vertices")
            spelled.append(term)
            yield term

    monkeypatch.setattr(curve_complex, "_progression", counting)
    return spelled


def continued_fraction_pair(quotients: list[int]) -> tuple[int, int]:
    """The coprime pair (p, q) with p/q = [a0; a1, ..., an] for the given
    quotients."""
    p, q = 1, 0
    for a in reversed(quotients):
        p, q = a * p + q, p
    return p, q


def bredon_wood_flag_loop(p: int, q: int) -> ExtNat:
    """N(p, q) by the b-sequence loop one quotient at a time, with a flag
    for "the previous term was zeroed" and coprimality tested by math.gcd
    up front: the reference for arith.bredon_wood, with its errors."""
    if p == 0 and q == 0:
        raise DomainError("N(0, 0) is undefined")
    if math.gcd(p, q) != 1:
        raise DomainError(f"N({p}, {q}) needs coprime arguments")
    if p % 2 != 0:
        return INF
    P, Q = abs(p), abs(q)
    total = 0
    zeroed = True  # the first term is always kept
    while Q:
        if zeroed or total % 2 == 1:
            a, r = divmod(P, Q)
            total += a
            zeroed = False
        else:
            r = P % Q
            zeroed = True
        P, Q = Q, r
    if total % 2 != 0:
        raise AssertionError(f"odd b-sequence sum {total} for ({p}, {q})")
    return total // 2


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


def _surface_document(surface: SurfaceDescription, cap: int) -> dict:
    doc: dict = {"kind": surface.kind}
    if surface.genus is not None:
        doc["genus"] = surface.genus
    path = surface.certificate
    if path is not None:  # elided when it has more edges than the cap, or any at a negative cap
        doc["certificate"] = "elided" if len(path) - 1 > max(cap, 0) else [str(v) for v in path]
    if surface.pieces:
        doc["pieces"] = [_surface_document(piece, cap) for piece in surface.pieces]
    return doc


def _row_document(entry: NormReport, cap: int) -> dict:
    doc = {"class": dict(entry.coords), "norm": entry.norm, "realizer": _surface_document(entry.realizer, cap)}
    if entry.note:
        doc["note"] = entry.note
    return doc


def reference_document(kind: str, A: GL2Matrix, cap: int) -> dict:
    """The JSON report as a dict of plain JSON values, built from the
    records: json.dumps(reference_document(kind, A, cap), sort_keys=True,
    indent=2) + "\n" is the reference for cli.to_canonical_json.  Each
    certificate is the list of str of its vertices, so the reference
    reads the path one slope at a time and not through TreePath.text, or
    "elided" when it has more edges than the cap."""
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
    doc["norm_table"] = [_row_document(entry, cap) for entry in module.norm_table(A, s)]
    return doc
