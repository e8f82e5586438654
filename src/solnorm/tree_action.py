"""Classification of a unimodular matrix acting on the three parity trees.

A matrix permutes the components of the curve complex through its mod-2
reduction.  On a preserved component the action is, per Serre's trichotomy,
a rotation (fixes a vertex), an inversion (flips an edge), or a translation
along an axis.  The translation length

    l = min over vertices v of d(v, A(v))

is computed two independent ways: from the orbit of a single base vertex
(l = d(v, A^2(v)) - d(v, A(v)) when A^2(v) != v, else the parity of
d(v, A(v))), and from closed forms in the matrix entries.  Their agreement
is part of the test suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .arith import INF, ExtNat, bredon_wood
from .curve_complex import GL2Matrix, ParityClass, Slope, distance, mat_act, parity_of
from .errors import DomainError


class ActionType(enum.Enum):
    ROTATION = "rotation"
    INVERSION = "inversion"
    TRANSLATION = "translation"
    NOT_FIXED = "not-fixed"


@dataclass(frozen=True)
class TranslationData:
    parity: ParityClass
    length: ExtNat
    action: ActionType

    def __post_init__(self) -> None:
        assert (self.length == INF) == (self.action is ActionType.NOT_FIXED)
        if self.action is ActionType.ROTATION:
            assert self.length == 0
        if self.action is ActionType.INVERSION:
            assert self.length == 1


def parity_permutation(A: GL2Matrix) -> dict[ParityClass, ParityClass]:
    """The permutation of {1/0, 0/1, 1/1} induced by A mod 2: the class
    j/k goes to the parity of (a*j + c*k, b*j + d*k)."""
    a, c, b, d = A.mod2()
    return {
        cls: ParityClass(((a * cls.j + c * cls.k) % 2, (b * cls.j + d * cls.k) % 2))
        for cls in ParityClass
    }


def fixes_class(A: GL2Matrix, cls: ParityClass) -> bool:
    return parity_permutation(A)[cls] is cls


def translation_length_orbit(
    A: GL2Matrix, cls: ParityClass, v: Slope | None = None
) -> TranslationData:
    """Translation length and action type on the tree of cls, from the
    orbit of one vertex.

    Any base vertex gives the same length: for a translation,
    d(v, A^2(v)) - d(v, A(v)) telescopes along the projection of v to the
    axis; for a rotation it is 0; and when A^2(v) = v the length is the
    parity of d(v, A(v)).
    """
    if not fixes_class(A, cls):
        return TranslationData(cls, INF, ActionType.NOT_FIXED)
    if v is None:
        v = cls.base_vertex
    elif parity_of(v) is not cls:
        raise DomainError(f"base vertex {v} is not in parity class {cls.label}")
    fv = mat_act(A, v)
    ffv = mat_act(A, fv)
    d1 = distance(v, fv)
    if ffv != v:
        length = distance(v, ffv) - d1
        action = ActionType.TRANSLATION if length > 0 else ActionType.ROTATION
    elif d1 % 2 == 1:
        length, action = 1, ActionType.INVERSION
    else:
        length, action = 0, ActionType.ROTATION
    return TranslationData(cls, length, action)


def translation_length_closed(A: GL2Matrix, cls: ParityClass) -> ExtNat:
    """Closed-form translation length on the tree of cls.

    Evaluates d(v, A^2(v)) - d(v, A(v)) symbolically at the base vertex of
    the class; when A^2 returns the base vertex to itself (the image pair is
    proportional to it), the length is the parity of half the displacement
    coefficient.  Infinite when A mod 2 moves the class.
    """
    a, c, b, d = A.a, A.c, A.b, A.d
    if cls is ParityClass.ONE_ZERO:
        if a % 2 == 1 and b % 2 == 0:
            u = b * (a + d)
            if u == 0:
                return (b // 2) % 2
            return bredon_wood(u, a * a + b * c) - bredon_wood(b, a)
        return INF
    if cls is ParityClass.ZERO_ONE:
        if c % 2 == 0 and d % 2 == 1:
            u = c * (a + d)
            if u == 0:
                return (c // 2) % 2
            return bredon_wood(u, b * c + d * d) - bredon_wood(c, d)
        return INF
    if (a + c) % 2 == 1 and (b + d) % 2 == 1:
        u = (b - a) * (a + c) + (d - c) * (b + d)
        if u == 0:
            return ((b + d - a - c) // 2) % 2
        return bredon_wood(u, a * (a + c) + c * (b + d)) - bredon_wood(b + d - a - c, a + c)
    return INF


def translation_lengths(A: GL2Matrix) -> dict[ParityClass, ExtNat]:
    """Closed-form lengths for all three parity classes."""
    return {cls: translation_length_closed(A, cls) for cls in ParityClass}
