"""Test-only helpers that read the report records."""

from solnorm.reports import KIND_PI, KIND_SUM, SurfaceDescription


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
