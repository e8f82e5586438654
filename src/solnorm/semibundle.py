"""Torus semi-bundles: two twisted I-bundles over the Klein bottle glued
along their boundary tori by a matrix A.

Only the first column (a, b) of the gluing matrix matters.  H_2 with Z2
coefficients is generated by the two core Klein bottles K1, K2 (always) and,
when b is even, a third class F[b/a].  All norms vanish except on classes
containing F[b/a] with b a nonzero even integer, where the norm is N(b, a):
such a class is realized by two Moebius bands whose boundaries are joined
through the thickened torus along a geodesic from 1/0 to a/b (the image of
the second I-bundle's boundary fiber), a path of exactly N(b, a) edges.

The minimum even genus is always 2 (the Klein bottles); the minimum odd
genus is N(b, a) + 2 when b = 2 mod 4 -- the only case where N(b, a) is
odd -- and infinite otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import INF, ExtNat, bredon_wood
from .curve_complex import GL2Matrix, Slope, geodesic
from .errors import DomainError
from .reports import (
    DEFAULT_CERTIFICATE_CAP,
    EMPTY_SURFACE,
    KLEIN_BOTTLE,
    NormReport,
    SurfaceDescription,
    pi_surface,
    pi_surface_elided,
    sum_of,
)


@dataclass(frozen=True)
class SemiBundleClass:
    """Coefficients of [K1], [K2] and (when b is even) [F(b/a)]."""

    e1: int
    e2: int
    phi: int

    def __post_init__(self) -> None:
        if not all(bit in (0, 1) for bit in (self.e1, self.e2, self.phi)):
            raise DomainError(f"class coordinates must be bits: {(self.e1, self.e2, self.phi)}")


@dataclass(frozen=True)
class SemiBundleH2:
    order: int
    generators: tuple[str, ...]


def h2_structure_semi(A: GL2Matrix) -> SemiBundleH2:
    """Order 4 (generators K1, K2) for odd b; order 8 (plus F[b/a]) for even b."""
    if A.b % 2 == 1:
        return SemiBundleH2(order=4, generators=("K1", "K2"))
    return SemiBundleH2(order=8, generators=("K1", "K2", f"F[{A.b}/{A.a}]"))


def _validate(A: GL2Matrix, cls: SemiBundleClass) -> None:
    if cls.phi == 1 and A.b % 2 == 1:
        raise DomainError(
            f"class phi = 1 does not exist for {A}: b = {A.b} is odd, H2 has order 4"
        )


def z2_norm_semi(A: GL2Matrix, cls: SemiBundleClass) -> int:
    """0 unless the class contains F[b/a] with b a nonzero even integer, in
    which case the norm is N(b, a).  The K-coordinates never matter."""
    _validate(A, cls)
    if cls.phi == 0 or A.b == 0:
        # b = 0 forces the first column to be (+-1, 0); the realizer is a
        # Klein bottle, so the norm vanishes without evaluating N(0, +-1).
        if A.b == 0:
            assert A.a in (1, -1)
        return 0
    norm = bredon_wood(A.b, A.a)
    assert norm != INF  # b even and coprime to a, so a is odd
    return int(norm)


def _f_realizer(A: GL2Matrix, cap: int) -> SurfaceDescription:
    """The surface generating the third summand: a Klein bottle when b = 0,
    else two Moebius bands joined along a geodesic from 1/0 to a/b."""
    if A.b == 0:
        return KLEIN_BOTTLE
    norm = int(bredon_wood(A.b, A.a))
    if norm > max(cap, 0):
        return pi_surface_elided(norm + 2)
    return pi_surface(geodesic(Slope(1, 0), Slope.of(A.a, A.b)))


def norm_table_semi(
    A: GL2Matrix, certificate_cap: int = DEFAULT_CERTIFICATE_CAP
) -> list[NormReport]:
    """One entry per element of H_2, in (e1, e2, phi) order."""
    b_even = A.b % 2 == 0
    f_surface = _f_realizer(A, certificate_cap) if b_even else None
    table = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            for phi in (0, 1) if b_even else (0,):
                cls = SemiBundleClass(e1, e2, phi)
                pieces = []
                if e1:
                    pieces.append(KLEIN_BOTTLE)
                if e2:
                    pieces.append(KLEIN_BOTTLE)
                if phi:
                    pieces.append(f_surface)
                if not pieces:
                    surface = EMPTY_SURFACE
                elif len(pieces) == 1:
                    surface = pieces[0]
                else:
                    surface = sum_of(*pieces)
                table.append(
                    NormReport(
                        coords={"e1": e1, "e2": e2, "phi": phi},
                        norm=z2_norm_semi(A, cls),
                        realizer=surface,
                    )
                )
    table.sort(key=lambda entry: (entry.coords["e1"], entry.coords["e2"], entry.coords["phi"]))
    return table


def norm_multiset_semi(A: GL2Matrix) -> list[int]:
    """Sorted norms of all elements of H_2, without building realizers."""
    if A.b % 2 == 1:
        return [0, 0, 0, 0]
    value = 0 if A.b == 0 else int(bredon_wood(A.b, A.a))
    return sorted([0, 0, 0, 0, value, value, value, value])


def mog_semi(A: GL2Matrix) -> ExtNat:
    """N(b, a) + 2 when b = 2 mod 4, else infinity."""
    if A.b % 4 != 2:
        return INF
    return int(bredon_wood(A.b, A.a)) + 2


def meg_semi(A: GL2Matrix) -> int:
    """Always 2: each half contains an embedded Klein bottle."""
    return 2
