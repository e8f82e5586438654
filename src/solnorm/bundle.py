"""Torus bundles over the circle: Z2-homology, Z2-Thurston norms, minimum
odd/even non-orientable genus, and the geometry of the mapping torus.

For the mapping torus of a torus map with matrix A, H_2 with Z2 coefficients
is read off A mod 2.  It always contains the fiber class tau (norm 0); each
parity class j/k preserved by A mod 2 contributes a generator F[j/k] whose
norm is the translation length of A on the tree of that class, realized by
a torus or Klein bottle when the length is 0 and by a non-orientable surface
of genus length + 2 otherwise.  Adding tau never changes the norm.

There are five cases of A mod 2: the identity (all three classes preserved,
group of order 8), three transpositions (one class preserved, order 4), and
two 3-cycles (none preserved, order 2).  In the identity case the class
pairing with both basis curves is the sum F[0/1] + F[1/0]; its norm entries
are tagged "derived identification" since that sum is identified with
F[1/1] through the intersection pairing rather than by a stated equation.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .arith import INF, ExtNat, is_finite
from .curve_complex import (
    GL2Matrix,
    PARITY_BY_BITS,
    ParityClass,
    Validated,
    mat_act,
)
from .errors import DomainError, class_bits
from .reports import (
    KLEIN_BOTTLE,
    TORUS,
    TORUS_FIBER,
    NormReport,
    Summary,
    SurfaceDescription,
    pi_surface,
    sum_of,
)
from .tree_action import _FIXED_BY_MOD2, translation_lengths

DERIVED_IDENTIFICATION = "derived identification"


class _BundleClassFields(NamedTuple):
    t: int
    j: int
    k: int


class BundleClass(Validated, _BundleClassFields):
    """Coordinates of a Z2-homology class: t is the tau coefficient, and
    (j, k) are the pairings with the basis curves (j with gamma_mu, k with
    gamma_lambda)."""

    __slots__ = ()

    def __new__(cls, t: int, j: int, k: int) -> "BundleClass":
        return tuple.__new__(cls, class_bits(t, j, k))

    def parity(self) -> ParityClass | None:
        """The parity class (j, k) names; None for (0, 0), which names none."""
        return PARITY_BY_BITS.get((self.j, self.k))


class H2Structure(NamedTuple):
    """One case of the table: valid_jk holds (0, 0) and the (j, k) of each
    class A mod 2 fixes, and classes those fixed classes in (j, k) order."""

    case_label: str
    valid_jk: frozenset[tuple[int, int]]
    generators: tuple[str, ...]
    classes: tuple[ParityClass, ...]
    identification: str | None = None

    @property
    def order(self) -> int:
        return 2 * len(self.valid_jk)


def _h2_case(bits: tuple[int, int, int, int], fixed: tuple[ParityClass, ...]) -> H2Structure:
    """The H2 case of every matrix congruent to bits mod 2, which fixes
    the parity classes fixed, in PARITY_CLASSES order."""
    identification = None
    if len(fixed) == 3:
        case_label, generators = "identity", ("tau", "F[0/1]", "F[1/0]")
        identification = "F[1/1] = F[0/1] + F[1/0]"
    elif len(fixed) == 1:
        case_label, generators = f"fixes {fixed[0].label}", ("tau", f"F[{fixed[0].label}]")
    elif not fixed:
        case_label, generators = "3-cycle", ("tau",)
    else:  # a transposition always fixes exactly one class
        raise AssertionError(f"{GL2Matrix(*bits)} mod 2 fixes {len(fixed)} parity classes")
    classes = tuple(sorted(fixed, key=lambda cls: (cls.j, cls.k)))
    valid_jk = frozenset([(0, 0)] + [(cls.j, cls.k) for cls in classes])
    return H2Structure(case_label, valid_jk, generators, classes, identification)


# The case of each of the six invertible matrices mod 2, read off the
# classes it fixes.  H2Structure is a tuple, so every caller can share
# these.
_H2_BY_MOD2 = {bits: _h2_case(bits, fixed) for bits, fixed in _FIXED_BY_MOD2.items()}


def h2_structure(A: GL2Matrix) -> H2Structure:
    """The five-case table keyed on A mod 2."""
    return _H2_BY_MOD2[A.mod2()]


def z2_norm_bundle(A: GL2Matrix, cls: BundleClass) -> int:
    """Z2-Thurston norm of the class: 0 for 0 and tau, else the translation
    length on the tree of (j, k), which is finite on every valid class."""
    s = summary(A)
    if (cls.j, cls.k) not in s.h2.valid_jk:
        valid = sorted(s.h2.valid_jk)
        raise DomainError(
            f"class (j, k) = {(cls.j, cls.k)} does not exist in H2 for {A}; valid: {valid}"
        )
    parity = cls.parity()
    return 0 if parity is None else s.lengths[parity]


def _realizer(A: GL2Matrix, parity: ParityClass, length: int) -> SurfaceDescription:
    """Surface realizing F[j/k], whose norm is l = length: pi_surface's
    surface of genus l + 2 built along the certificate, or for l = 0 a torus
    or Klein bottle as A keeps or reverses the one slope of the certificate.

    The certificate is the geodesic from a vertex w on the axis, the
    flipped edge or the fixed set of A to A(w).  In a tree the path from
    the class's base vertex v to A(v) runs v -> w -> A(w) -> A(v), and its
    two outer legs have the same length (Serre, Trees, I.6.4).  So the
    certificate is the middle l edges of the one walk from v to A(v):
    geodesic_path(v, A(v), middle=l) skips the first (d - l)/2 moves by
    whole runs, without building a vertex, and checks the l edges after
    them run by run.  It raises when l is negative, above d = d(v, A(v))
    or of the parity of d + 1.  The checks index the path's first two and
    last two vertices, so no vertex list is built.  The certificate
    proves itself minimal, so neither l nor the way w was found is
    trusted:

    - pi_surface's check of a geodesic of l + 1 vertices from w to A(w)
      proves d(w, A(w)) = l, an upper bound on the translation length.
    - For l >= 2, A(certificate[1]) != certificate[-2] means that the path
      w -> A(w) -> A^2(w) does not backtrack at A(w).  In a tree it is then
      the geodesic, so d(w, A^2(w)) = 2l > 0, and A is a translation of
      length d(w, A^2(w)) - d(w, A(w)) = l (Serre, Trees, I.6.4;
      Culler-Morgan, Proc. LMS 55 (1987), section 1).
    - For l = 1 the distance is odd, so A fixes no vertex: in a tree an
      automorphism that fixes a vertex moves every vertex an even distance.
    - For l = 0 there is nothing to prove.

    A vertex w off the axis, the flipped edge or the fixed set moves
    l + 2*d(w, that set) > l, so its certificate is too long.  A length
    that is 2k too large puts w k moves off the axis, where the path
    backtracks or d - l is negative; one that is too small ends the
    stretch from w before A(w) is reached in l moves."""
    surface = pi_surface(A, parity.base_vertex, length)
    certificate = surface.certificate
    if length >= 2 and mat_act(A, certificate[1]) == certificate[-2]:
        raise AssertionError(
            f"certificate of {A} on {parity.label} starts at a vertex not on the axis: "
            "A of its second vertex is its last but one"
        )
    if length == 0:
        w = certificate[0]
        image = (A.a * w.p + A.c * w.q, A.b * w.p + A.d * w.q)
        return TORUS if image == (w.p, w.q) else KLEIN_BOTTLE
    return surface


def summary(A: GL2Matrix) -> Summary:
    """Every invariant a report or census row states about the bundle, from
    (det, trace), A mod 2 and the translation lengths on the classes A
    mod 2 fixes."""
    det, t = A.det(), A.trace()
    _, meg, geometry = _by_det_trace(A, det, t)
    structure = h2_structure(A)
    lengths = translation_lengths(A)
    norms = [0, 0]  # the zero class and tau
    # mog: 2 + the smallest odd translation length, or infinity if none is
    # odd; a class A mod 2 moves has none
    mog = INF
    for parity in structure.classes:
        length = lengths[parity]
        if not is_finite(length):
            raise AssertionError(
                f"infinite translation length of {A} on fixed class {parity.label}"
            )
        norms += (length,) * 2  # the class and its tau-translate
        if length & 1 and length + 2 < mog:
            mog = length + 2
    norms.sort()
    return Summary("bundle", det, t, structure, tuple(norms), mog, meg, geometry.value, lengths)


def norm_table(A: GL2Matrix, s: Summary) -> list[NormReport]:
    """The norm table of summary s of A, with realizers."""
    norms = {(0, 0): 0}
    class_realizer = {(0, 0): []}  # the zero class needs no surface
    for parity in s.h2.classes:
        jk = (parity.j, parity.k)
        norms[jk] = s.lengths[parity]  # finite: summary checked it
        class_realizer[jk] = [_realizer(A, parity, norms[jk])]
    table = []
    derived = s.h2.identification is not None
    for t in (0, 1):
        for j, k in sorted(s.h2.valid_jk):
            surface = sum_of(*class_realizer[(j, k)] + [TORUS_FIBER] * t)
            note = DERIVED_IDENTIFICATION if derived and (j, k) == (1, 1) else None
            table.append(
                NormReport(
                    coords={"t": t, "j": j, "k": k}, norm=norms[(j, k)], realizer=surface, note=note
                )
            )
    return table


def meg_bundle(A: GL2Matrix) -> int:
    """Minimum even genus: 2 when the bundle is non-orientable (det -1) or
    the monodromy is conjugate to (-1,0; n,-1) -- equivalently det 1 and
    trace -2 -- else 4."""
    return _by_det_trace(A, A.det(), A.trace())[1]


class GeometryClass(enum.Enum):
    EUCLIDEAN_PERIODIC = "Euclidean-periodic"
    NIL = "Nil"
    SOL_ANOSOV = "Sol-Anosov"


def order(A: GL2Matrix) -> ExtNat:
    """Multiplicative order, read off (det, trace) with no matrix products.

    By Cayley-Hamilton A^2 = t*A - det*I.  For det -1 that gives A^2 = I
    when t = 0, and otherwise real eigenvalues other than +-1, so infinite
    order.  For det 1: t = 0, -1, 1 give A^2 = -I, A^3 = I, A^3 = -I (orders
    4, 3, 6); at |t| = 2, (A - (t/2)I)^2 = 0, so A has finite order only
    when it is +-I; and |t| >= 3 gives real eigenvalues off the unit circle.
    """
    return _by_det_trace(A, A.det(), A.trace())[0]


def classify_geometry(A: GL2Matrix) -> GeometryClass:
    """Euclidean-periodic at finite order, else Nil at det 1 and |trace| 2
    (a nontrivial shear, up to sign), else Sol-Anosov."""
    return _by_det_trace(A, A.det(), A.trace())[2]


# The order of a det 1 matrix of trace 0, -1 or 1
_ORDER_BY_TRACE = {0: 4, -1: 3, 1: 6}


def _by_det_trace(A: GL2Matrix, det: int, t: int) -> tuple[ExtNat, int, GeometryClass]:
    """(order, meg, geometry) of A from det = A.det() and t = A.trace(),
    by the rules of order, meg_bundle and classify_geometry; A's entries
    are read only at |t| = 2, to tell +-I from a shear."""
    if det == -1:
        if t == 0:
            return 2, 2, GeometryClass.EUCLIDEAN_PERIODIC
        return INF, 2, GeometryClass.SOL_ANOSOV
    k = _ORDER_BY_TRACE.get(t)
    if k:
        return k, 4, GeometryClass.EUCLIDEAN_PERIODIC
    meg = 2 if t == -2 else 4
    if abs(t) != 2:
        return INF, meg, GeometryClass.SOL_ANOSOV
    if A.b == 0 and A.c == 0:
        return 1 if t == 2 else 2, meg, GeometryClass.EUCLIDEAN_PERIODIC
    return INF, meg, GeometryClass.NIL
