"""Test-only helpers that read the report records and certificate paths."""

import itertools

from solnorm.curve_complex import TreePath
from solnorm.reports import KIND_PI, KIND_SUM, SurfaceDescription


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
