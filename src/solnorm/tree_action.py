"""The action of a unimodular matrix on the three parity trees.

A matrix permutes the components of the curve complex through its mod-2
reduction (MOD2_PERMUTATIONS, parity_permutation).  On a preserved
component the action is, per Serre's trichotomy, a rotation (fixes a
vertex), an inversion (flips an edge), or a translation along an axis.  The
translation length

    l = min over vertices v of d(v, A(v))

has one closed form in the matrix entries, translation_length_closed: the
difference d(v, A^2(v)) - d(v, A(v)) evaluated on the integers of the
class's base vertex j/k, for all three trees.  It is the only length the
reports and the census compute; each bundle certificate then proves its own
length minimal (bundle._realizer).  translation_lengths reads A mod 2 once
and evaluates the closed form only on the classes it fixes: a moved class
has no axis, and its length is INF without a Bredon-Wood call.  The
independent reference the closed form is checked against, the same length
read off the orbit of one vertex with its action type, is
oracle.translation_length_orbit.
"""

from __future__ import annotations

import itertools

from .arith import INF, ExtNat, bredon_wood, ext_gcd
from .curve_complex import GL2Matrix, PARITY_BY_BITS, PARITY_CLASSES, ParityClass


# The permutation of {1/0, 0/1, 1/1} induced by each of the six invertible
# matrices mod 2, keyed as A.mod2() keys them: the 0/1 matrices (a, c, b, d)
# of odd determinant.  The class j/k goes to the parity of (a*j + c*k,
# b*j + d*k).  Callers read the table and never change it.
MOD2_PERMUTATIONS = {
    (a, c, b, d): {
        cls: PARITY_BY_BITS[(a * cls.j + c * cls.k) % 2, (b * cls.j + d * cls.k) % 2]
        for cls in PARITY_CLASSES
    }
    for a, c, b, d in itertools.product((0, 1), repeat=4)
    if (a * d - b * c) % 2
}


def parity_permutation(A: GL2Matrix) -> dict[ParityClass, ParityClass]:
    """The permutation of {1/0, 0/1, 1/1} induced by A mod 2, as a new dict."""
    return dict(MOD2_PERMUTATIONS[A.mod2()])


# Each class's base vertex j/k with the ext_gcd cofactors (x, y),
# j*x + k*y = 1, that distance uses: d(j/k, p/q) = N(j*q - k*p, p*x + q*y).
_BASE_FRAMES = {cls: (cls.j, cls.k, *ext_gcd(cls.j, cls.k)[1:]) for cls in PARITY_CLASSES}


def translation_length_closed(A: GL2Matrix, cls: ParityClass) -> ExtNat:
    """Closed-form translation length on the tree of cls.

    Evaluates d(v, A^2(v)) - d(v, A(v)) on the integers of the base vertex
    v = j/k, by the formula distance uses; when A^2 returns v to itself the
    length is the parity of d(v, A(v)) = N(u1, ...), which is u1/2 mod 2.
    Infinite when A mod 2 moves the class.
    """
    j, k, x, y = _BASE_FRAMES[cls]
    p1, q1 = A.a * j + A.c * k, A.b * j + A.d * k
    if (p1 % 2, q1 % 2) != (j, k):
        return INF
    p2, q2 = A.a * p1 + A.c * q1, A.b * p1 + A.d * q1
    u1, u2 = j * q1 - k * p1, j * q2 - k * p2
    if u2 == 0:
        return (u1 // 2) % 2
    return bredon_wood(u2, p2 * x + q2 * y) - bredon_wood(u1, p1 * x + q1 * y)


# The classes each invertible matrix mod 2 fixes, keyed as MOD2_PERMUTATIONS:
# the classes translation_lengths evaluates and bundle's H2 cases name.
_FIXED_BY_MOD2 = {
    bits: tuple(cls for cls in PARITY_CLASSES if perm[cls] is cls)
    for bits, perm in MOD2_PERMUTATIONS.items()
}


def translation_lengths(A: GL2Matrix) -> dict[ParityClass, ExtNat]:
    """Lengths for all three parity classes, in PARITY_CLASSES order: the
    closed form on each class A mod 2 fixes, INF on the others."""
    lengths = dict.fromkeys(PARITY_CLASSES, INF)
    for cls in _FIXED_BY_MOD2[A.mod2()]:
        lengths[cls] = translation_length_closed(A, cls)
    return lengths
