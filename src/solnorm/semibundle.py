"""Torus semi-bundles: two twisted I-bundles over the Klein bottle glued
along their boundary tori by a matrix A.

Only the first column (a, b) of the gluing matrix matters.  H_2 with Z2
coefficients is generated by the two core Klein bottles K1, K2 (always) and,
when b is even, a third class F[b/a].  All norms vanish except on classes
containing F[b/a] with b a nonzero even integer, where the norm is N(b, a):
such a class is realized by two Moebius bands whose boundaries are joined
through the thickened torus along a geodesic from 1/0 to a/b (the image of
the second I-bundle's boundary fiber), a path of exactly N(b, a) edges.

The minimum even genus is always 2: each half contains an embedded Klein
bottle.  The minimum odd genus is N(b, a) + 2 when b = 2 mod 4 -- the only
case where N(b, a) is odd -- and infinite otherwise.  summary(A) states
all of these, and norm_table(A, summary(A), cap) adds the realizers.
"""

from __future__ import annotations

from typing import NamedTuple

from .arith import INF, bredon_wood
from .curve_complex import GL2Matrix, Slope, Validated
from .errors import DomainError
from .reports import (
    KLEIN_BOTTLE,
    NormReport,
    Summary,
    SurfaceDescription,
    pi_surface,
    sum_of,
)


class _SemiBundleClassFields(NamedTuple):
    e1: int
    e2: int
    phi: int


class SemiBundleClass(Validated, _SemiBundleClassFields):
    """Coefficients of [K1], [K2] and (when b is even) [F(b/a)]."""

    __slots__ = ()

    def __new__(cls, e1: int, e2: int, phi: int) -> "SemiBundleClass":
        if not all(bit in (0, 1) for bit in (e1, e2, phi)):
            raise DomainError(f"class coordinates must be bits: {(e1, e2, phi)}")
        return tuple.__new__(cls, (e1, e2, phi))


class SemiBundleH2(NamedTuple):
    order: int
    generators: tuple[str, ...]


def z2_norm_semi(A: GL2Matrix, cls: SemiBundleClass) -> int:
    """0 unless the class contains F[b/a] with b a nonzero even integer, in
    which case the norm is N(b, a).  The K-coordinates never matter."""
    if cls.phi == 1 and A.b % 2 == 1:
        raise DomainError(
            f"class phi = 1 does not exist for {A}: b = {A.b} is odd, H2 has order 4"
        )
    return summary(A).f_norm if cls.phi else 0


def _f_realizer(A: GL2Matrix, norm: int, cap: int) -> SurfaceDescription:
    """The surface generating the third summand: a Klein bottle when b = 0,
    else two Moebius bands joined along pi_surface's certificate, the whole
    walk from 1/0 to A(1/0) = a/b of norm = N(b, a) = d(1/0, A(1/0)) edges.
    It must start at 1/0: with 1/0 off the axis, the translation length
    would pass pi_surface's checks on the middle of that walk."""
    if A.b == 0:
        return KLEIN_BOTTLE
    surface = pi_surface(A, Slope(1, 0), norm, cap)
    if surface.certificate is not None and surface.certificate[0] != (1, 0):
        raise AssertionError(f"certificate of {A} starts at {surface.certificate[0]}, not at 1/0")
    return surface


def summary(A: GL2Matrix) -> Summary:
    """Every invariant a report or census row states about the semi-bundle,
    from A mod 2 and N(b, a), the norm of every class containing F[b/a]:
    H2 of order 4 (generators K1, K2) for odd b, of order 8 (plus F[b/a])
    for even b."""
    if A.b % 2 == 1:  # there is no class F[b/a]
        norm = None
        h2 = SemiBundleH2(order=4, generators=("K1", "K2"))
        norms = (0,) * 4
    else:
        norm = bredon_wood(A.b, A.a)  # N(0, +-1) = 0
        if norm == INF:  # b even and coprime to a, so a is odd
            raise AssertionError(f"N({A.b}, {A.a}) is infinite for {A}")
        h2 = SemiBundleH2(order=8, generators=("K1", "K2", f"F[{A.b}/{A.a}]"))
        norms = (0,) * 4 + (norm,) * 4  # sorted, as norm >= 0
    return Summary(
        kind="semibundle", det=A.det(), trace=A.trace(), h2=h2, norms=norms,
        mog=norm + 2 if A.b % 4 == 2 else INF, meg=2, f_norm=norm,
    )


def norm_table(A: GL2Matrix, s: Summary, cap: int) -> list[NormReport]:
    """The norm table of summary s of A, with realizers; certificates longer
    than cap are elided."""
    norm = s.f_norm
    f_surface = None if norm is None else _f_realizer(A, norm, cap)
    table = []
    for e1 in (0, 1):
        for e2 in (0, 1):
            for phi in (0,) if norm is None else (0, 1):
                surface = sum_of(*([KLEIN_BOTTLE] * (e1 + e2) + ([f_surface] if phi else [])))
                table.append(
                    NormReport(
                        coords={"e1": e1, "e2": e2, "phi": phi},
                        norm=norm if phi else 0,
                        realizer=surface,
                    )
                )
    return table
