"""Independent brute-force oracles and the randomized verification suites.

Everything here deliberately avoids the closed-form machinery it is checking:
distances are re-derived as tree distances over the neighbors solnorm.graph
enumerates (distance_bfs for one pair), geodesics are checked edge by edge
against what a tree path is, translation lengths are read off the orbit of
one vertex (translation_length_orbit, with Serre's action type), orders by
matrix powers, the seven periodic classes (periodic_class) by order and det,
the mod-2 permutation by acting on slopes, conjugacy is decided by searching
the unimodular matrices in a box, and random matrices come from a seeded
generator so every run is reproducible.  The same checks back both the pytest
suite and the ``solnorm verify`` subcommand.  None of it runs on a report
path.

Each piece of oracle work is done once: the conjugator search solves the
linear equation its first row must satisfy instead of testing every row,
the grid check walks each component once and reads every source's
distance row off its parent's, the invariance checks build one summary per
distinct matrix and compare its fields, and the random draws work on plain
integers, with the streams of random.Random's own methods.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import random
import signal
import sys
from typing import NamedTuple

from .arith import INF, ExtNat, bredon_wood, ext_gcd, is_finite
from .bundle import GeometryClass, classify_geometry, h2_structure, order, summary
from .curve_complex import (
    GL2Matrix, IDENTITY, PARITY_CLASSES, ParityClass, Slope, Validated,
    distance, distances_from, geodesic, intersection_number, mat_act, parity_of,
)
from .errors import DomainError
from .graph import _family_range, breadth_first, neighbors_bounded
from .semibundle import summary as semi_summary
from .tree_action import parity_permutation, translation_length_closed

# Elementary shears, their inverses, and the orientation-reversing flip.
GENERATORS = (
    GL2Matrix(1, 1, 0, 1),
    GL2Matrix(1, -1, 0, 1),
    GL2Matrix(1, 0, 1, 1),
    GL2Matrix(1, 0, -1, 1),
    GL2Matrix(1, 0, 0, -1),
)


def random_glz(seed: int, word_length: int) -> GL2Matrix:
    """Product of word_length generators chosen by an RNG seeded with seed.
    The product is taken on the entries, each generator being the tuple
    (a, c, b, d), and checked once, by the GL2Matrix built from it."""
    choose = random.Random(seed).choice
    a, c, b, d = 1, 0, 0, 1
    for _ in range(word_length):
        ga, gc, gb, gd = choose(GENERATORS)
        a, c, b, d = a * ga + c * gb, a * gc + c * gd, b * ga + d * gb, b * gc + d * gd
    return GL2Matrix(a, c, b, d)


def random_matrix(rng: random.Random, max_word: int) -> GL2Matrix:
    return random_glz(rng.getrandbits(48), rng.randint(0, max_word))


# Pairs random_slope draws before it gives up.  For every bound >= 1 a pair
# is a slope of the requested class with probability at least 4/27 (bound 4,
# class 1/1), so a sound generator runs out with probability below 10**-69.
SLOPE_DRAWS = 1000


def random_slope(rng: random.Random, bound: int, parity: ParityClass | None = None) -> Slope:
    """A uniform coprime pair with entries in [-bound, bound], of the given
    parity if any, as a slope.  Each entry is randint's draw: getrandbits
    over the bits of the width 2*bound + 1 until below it, minus bound.
    Raises AssertionError when SLOPE_DRAWS pairs hold no such slope, as for
    bound 0, rather than drawing forever."""
    width = 2 * bound + 1
    bits, getrandbits = width.bit_length(), rng.getrandbits
    for _ in range(SLOPE_DRAWS):
        p = q = width
        while p >= width:
            p = getrandbits(bits)
        while q >= width:
            q = getrandbits(bits)
        p, q = p - bound, q - bound
        if parity is not None and (p % 2, q % 2) != (parity.j, parity.k):
            continue
        if math.gcd(p, q) == 1:  # gcd(0, 0) = 0 rejects 0/0 too
            return Slope.of(p, q)
    wanted = "slope" if parity is None else f"slope of class {parity.label}"
    raise AssertionError(f"{SLOPE_DRAWS} pairs in [-{bound}, {bound}] held no {wanted}")


def _second_rows(w: int, x: int, bound: int):
    """Rows (y, z) in [-bound, bound] with w*z - x*y = +-1, for coprime (w, x).

    They form the families (y0 + t*w, z0 + t*x) with w*z0 - x*y0 = eps,
    walked for eps = 1 and then eps = -1, each in increasing t.
    """
    _, alpha, beta = ext_gcd(w, x)  # alpha*w + beta*x == 1
    for eps in (1, -1):
        z0, y0 = alpha * eps, -beta * eps  # w*z0 - x*y0 == eps
        for t in _family_range(((z0, x), (y0, w)), bound):
            yield y0 + t * w, z0 + t * x


def iter_unimodular(bound: int):
    """All integer matrices (w, x; y, z) with |det| = 1 and entries in [-bound, bound].

    Rows are enumerated as coprime pairs (w, x); the second row then runs
    over the solution family of w*z - x*y = +-1.  Each matrix appears once.
    This is the reference order of the conjugator scan below.
    """
    for w in range(-bound, bound + 1):
        for x in range(-bound, bound + 1):
            if math.gcd(w, x) == 1:
                for y, z in _second_rows(w, x, bound):
                    yield w, x, y, z


def _conjugated(A: GL2Matrix, w: int, x: int, y: int, z: int) -> tuple[int, int, int, int]:
    """Entries of P*A*P^-1 in row-major order, P = (w, x; y, z)."""
    eps = w * z - x * y  # +-1, and P^-1 = eps * (z, -x; -y, w)
    r00 = w * A.a + x * A.b
    r01 = w * A.c + x * A.d
    r10 = y * A.a + z * A.b
    r11 = y * A.c + z * A.d
    return (
        eps * (r00 * z - r01 * y),
        eps * (r01 * w - r00 * x),
        eps * (r10 * z - r11 * y),
        eps * (r11 * w - r10 * x),
    )


def brute_conjugate_to_meg_form(A: GL2Matrix, bound: int) -> GL2Matrix | None:
    """The first P in iter_unimodular order with P A P^-1 of the form
    (-1, 0; n, -1), if any; None is inconclusive, not a disproof.

    For such a conjugate the first row of P A = B P reads (w, x)(A + I) = 0:
    w(a + 1) + x b = 0 and w c + x(d + 1) = 0.  For each w the first
    equation is solved rather than tested row by row: when b != 0 its one
    solution is x = -w(a + 1)/b, kept if it is an integer in the box; when
    b = 0 every x solves it if w(a + 1) = 0 and none does otherwise.  The
    rows (w, x) that remain are the ones a test of every row would pass, in
    the same order; each then meets the second equation and the gcd before
    its second rows are walked, and every candidate gets the full
    comparison.
    """
    if bound < 1:
        raise DomainError("conjugator bound must be >= 1")
    a1, b, c, d1 = A.a + 1, A.b, A.c, A.d + 1
    box = range(-bound, bound + 1)
    for w in box:
        if b:
            x, rem = divmod(-w * a1, b)
            rows = () if rem or abs(x) > bound else (x,)
        else:
            rows = () if w * a1 else box
        for x in rows:
            if w * c + x * d1 or math.gcd(w, x) != 1:
                continue
            for y, z in _second_rows(w, x, bound):
                m = _conjugated(A, w, x, y, z)
                if m[0] == -1 and m[1] == 0 and m[3] == -1:
                    return GL2Matrix(w, x, y, z)
    return None


def order_by_powers(A: GL2Matrix) -> ExtNat:
    """Multiplicative order by matrix powers: the reference for bundle.order.
    Finite orders in GL(2, Z) are 1, 2, 3, 4, 6; the powers A, A^2, ..., A^6
    come from one running product, and A^5 is not tested."""
    power = A
    for k in range(1, 7):
        if k != 5 and power == IDENTITY:
            return k
        if k < 6:
            power = power @ A
    return INF


def parity_permutation_by_action(A: GL2Matrix) -> dict[ParityClass, ParityClass]:
    """The permutation of the parity classes read off the images of their
    base vertices: the reference for tree_action.parity_permutation."""
    perm = {}
    for cls in PARITY_CLASSES:
        image = mat_act(A, cls.base_vertex)
        perm[cls] = parity_of(image)
    return perm


class ActionType(enum.Enum):
    ROTATION = "rotation"
    INVERSION = "inversion"
    TRANSLATION = "translation"
    NOT_FIXED = "not-fixed"


class _TranslationFields(NamedTuple):
    parity: ParityClass
    length: ExtNat
    action: ActionType


class TranslationData(Validated, _TranslationFields):
    """The translation length of a matrix on one parity tree, with its
    action type; a length that contradicts the type raises."""

    __slots__ = ()

    def __new__(cls, parity: ParityClass, length: ExtNat, action: ActionType) -> "TranslationData":
        # explicit raises, so the checks also run under python -O
        if (length == INF) != (action is ActionType.NOT_FIXED):
            raise AssertionError(f"{parity.label}: length {length} with action {action.value}")
        if action is ActionType.ROTATION and length != 0:
            raise AssertionError(f"{parity.label}: rotation with length {length}")
        if action is ActionType.INVERSION and length != 1:
            raise AssertionError(f"{parity.label}: inversion with length {length}")
        return tuple.__new__(cls, (parity, length, action))


def translation_length_orbit(
    A: GL2Matrix, cls: ParityClass, v: Slope | None = None
) -> TranslationData:
    """Translation length and action type on the tree of cls, from the
    orbit of one vertex v of that tree (its base vertex by default): the
    reference for tree_action.translation_length_closed.

    A moves the class when A(v) leaves it.  Otherwise any v gives the same
    length: for a translation, d(v, A^2(v)) - d(v, A(v)) telescopes along
    the projection of v to the axis; for a rotation it is 0; and when
    A^2(v) = v the length is the parity of d(v, A(v)).
    """
    if v is None:
        v = cls.base_vertex
    elif parity_of(v) is not cls:
        raise DomainError(f"base vertex {v} is not in parity class {cls.label}")
    fv = mat_act(A, v)
    if parity_of(fv) is not cls:
        return TranslationData(cls, INF, ActionType.NOT_FIXED)
    ffv = mat_act(A, fv)
    d1, d2 = distances_from(v, (fv, ffv))
    if ffv != v:
        length = d2 - d1
        action = ActionType.TRANSLATION if length > 0 else ActionType.ROTATION
    elif d1 % 2 == 1:
        length, action = 1, ActionType.INVERSION
    else:
        length, action = 0, ActionType.ROTATION
    return TranslationData(cls, length, action)


def check_four_point(slopes: tuple[Slope, Slope, Slope, Slope]) -> bool:
    """Tree (0-hyperbolic) four-point condition: among the three pairings of
    distance sums, the two largest coincide."""
    w, x, y, z = slopes
    cls = parity_of(w)
    if any(parity_of(s) is not cls for s in (x, y, z)):
        raise DomainError("four-point condition needs four slopes in one parity class")
    sums = sorted(
        (
            distance(w, x) + distance(y, z),
            distance(w, y) + distance(x, z),
            distance(w, z) + distance(x, y),
        )
    )
    return sums[1] == sums[2]


def slopes_within(bound: int) -> list[Slope]:
    """All canonical slopes with |p| <= bound and |q| <= bound."""
    out = [Slope(1, 0)]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if math.gcd(p, q) == 1:
                out.append(Slope(p, q))
    return out


def distance_bfs(s1: Slope, s2: Slope, bound: int) -> ExtNat | str:
    """Breadth-first search over the subgraph with coefficients <= bound.

    Returns the exact distance when a path is found (any path in a tree
    contains the geodesic, so the shortest path in any subgraph is the
    geodesic), infinity on a parity mismatch, and the string "unknown" when
    the bounded search exhausts without reaching s2 -- absence within a
    bound proves nothing.
    """
    if parity_of(s1) != parity_of(s2):
        return INF
    for v, level, _ in breadth_first(s1, lambda u: neighbors_bounded(u, bound)):
        if v == s2:
            return level
    return "unknown"


# ----------------------------------------------------------------------
# Verification checks.  Each returns a CheckResult; the acceptance tests
# and the `verify` subcommand run them at their own scales.
# ----------------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    detail: str
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _preorder(root: Slope, adjacency: dict[Slope, list[Slope]]):
    """The component of root in depth-first preorder, each vertex's depth,
    and one past the end of its subtree's slice of that order.  The ends
    are None unless the component is a tree: the walk meets no discovered
    vertex but the parent, that once, and the lists hold 2(n - 1) entries,
    so they list each discovery edge from both ends and nothing else."""
    up = {root: 0}  # each discovered vertex's parent, by its index in order
    order, depths, parents = [], [], []
    stack, entries, tree = [root], 0, True
    while stack:
        v = stack.pop()
        i, j = len(order), up[v]
        parent = order[j] if i else None
        order.append(v)
        parents.append(j)
        depths.append(depths[j] + 1 if i else 0)
        entries += len(adjacency[v])
        for u in adjacency[v]:
            if u not in up:
                up[u] = i
                stack.append(u)
            elif u == parent:
                parent = None  # a second entry of the parent is refused
            else:
                tree = False
    ends = list(range(1, len(order) + 1))
    for i in range(len(order) - 1, 0, -1):  # a subtree ends where its last child's does
        ends[parents[i]] = max(ends[parents[i]], ends[i])
    return order, depths, ends if tree and entries == 2 * len(order) - 2 else None


def check_grid_agreement(bound: int) -> CheckResult:
    """Formula distance vs tree distance, all pairs connected in the box.
    Each component is walked once and must be a tree.  The root's row of
    distances is the depths; a child's row is its parent's with -1 on the
    child's subtree, a slice of the preorder, and +1 elsewhere.  On a tree
    these are the breadth-first levels.  Each row is compared in one list
    comparison with one distances_from call, the function distance is
    built on; only a mismatch is read pair by pair."""
    slopes = slopes_within(bound)
    adjacency = {s: neighbors_bounded(s, bound) for s in slopes}
    pairs = 0
    failures: list[str] = []
    seen: set[Slope] = set()
    for root in slopes:
        if root in seen:
            continue
        order, depths, ends = _preorder(root, adjacency)
        seen.update(order)
        pairs += len(order) ** 2
        if ends is None:
            failures.append(f"component of {root}: not a tree")
            continue
        ancestors: list[tuple[int, list[int]]] = []  # (end of subtree, row)
        for i, source in enumerate(order):
            while ancestors and ancestors[-1][0] <= i:
                ancestors.pop()
            end, row = ends[i], depths
            if ancestors:
                up = ancestors[-1][1]
                row = [d + 1 for d in up[:i]] + [d - 1 for d in up[i:end]] + [d + 1 for d in up[end:]]
            ancestors.append((end, row))
            formulas = distances_from(source, order)
            if formulas != row:
                failures += (f"d({source},{target}) formula {formula} != bfs {level}"
                             for target, formula, level in zip(order, formulas, row) if formula != level)
    return CheckResult(
        "grid agreement",
        f"{pairs} BFS-reachable pairs within |p|,|q| <= {bound}, {len(failures)} mismatches",
        failures,
    )


def check_bw_parity(max_p: int, per_p: int, seed: int) -> CheckResult:
    """N(p, q) = p/2 mod 2 for even p."""
    rng = random.Random(seed)
    checked = 0
    failures: list[str] = []
    for p in range(-max_p, max_p + 1, 2):
        if p == 0:
            continue
        for _ in range(per_p):
            q = rng.randint(1, 4 * max_p) * 2 - 1  # odd, hence coprime candidates
            while math.gcd(p, q) != 1:
                q += 2
            checked += 1
            value = bredon_wood(p, q)
            if value % 2 != (abs(p) // 2) % 2:
                failures.append(f"N({p},{q}) = {value}")
    return CheckResult(
        "Bredon-Wood parity",
        f"{checked} pairs with |p| <= {max_p}, {len(failures)} parity violations",
        failures,
    )


def check_lens_invariance(max_p: int) -> CheckResult:
    """N(p, q) is unchanged by q -> q + p, q -> -q, and q -> q^-1 mod p."""
    checked = 0
    failures: list[str] = []
    for p in range(2, max_p + 1, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            checked += 1
            base = bredon_wood(p, q)
            qinv = pow(q, -1, p)
            for other in (bredon_wood(p, q + p), bredon_wood(p, -q), bredon_wood(p, qinv)):
                if other != base:
                    failures.append(f"N({p},{q}) = {base} but a lens-equivalent q gave {other}")
    return CheckResult(
        "lens invariance",
        f"{checked} (p, q) with even p <= {max_p}, {len(failures)} violations",
        failures,
    )


def check_closed_vs_orbit(n_matrices: int, max_word: int, alt_vertices: int, seed: int) -> CheckResult:
    """Closed-form translation lengths against the orbit computation, at the
    default base vertex and at random alternative vertices."""
    rng = random.Random(seed)
    failures: list[str] = []
    comparisons = 0
    for i in range(n_matrices):
        A = random_glz(seed + i, i % (max_word + 1))
        for cls in PARITY_CLASSES:
            closed = translation_length_closed(A, cls)
            data = translation_length_orbit(A, cls)
            comparisons += 1
            if closed != data.length:
                failures.append(f"{A} on {cls.label}: closed {closed} != orbit {data.length}")
                continue
            if not is_finite(closed):
                continue
            for _ in range(alt_vertices):
                v = random_slope(rng, 30, parity=cls)
                alt = translation_length_orbit(A, cls, v)
                comparisons += 1
                if alt.length != closed:
                    failures.append(f"{A} on {cls.label} at {v}: orbit {alt.length} != {closed}")
    return CheckResult(
        "closed form vs orbit",
        f"{comparisons} comparisons over {n_matrices} matrices, {len(failures)} mismatches",
        failures,
    )


PERIODIC_REPRESENTATIVES = {
    "A1": GL2Matrix(1, 0, 0, 1),
    "A2": GL2Matrix(-1, 0, 0, -1),
    "A3": GL2Matrix(1, 0, 0, -1),
    "A4": GL2Matrix(1, 0, 1, -1),
    "A5": GL2Matrix(0, 1, -1, -1),
    "A6": GL2Matrix(0, -1, 1, 0),
    "A7": GL2Matrix(0, 1, -1, 1),
}


def periodic_class(A: GL2Matrix) -> str | None:
    """Conjugacy class among the seven periodic matrices, or None.

    (order, det) separates everything except A3 from A4, which share order
    2, det -1 and trace 0; those differ by whether A is the identity mod 2.
    """
    k = order(A)
    if not is_finite(k):
        return None
    if k == 1:
        return "A1"
    if k == 2:
        if A.det() == 1:
            return "A2"
        return "A3" if A.mod2() == (1, 0, 0, 1) else "A4"
    return {3: "A5", 4: "A6", 6: "A7"}[k]


def check_periodic_table() -> CheckResult:
    """The seven periodic conjugacy classes: self-classification, order
    against matrix powers, meg, mog."""
    meg_two = {"A2", "A3", "A4"}
    mog_three = {"A3", "A6"}
    failures: list[str] = []
    for name, A in PERIODIC_REPRESENTATIVES.items():
        if periodic_class(A) != name:
            failures.append(f"{name} classified as {periodic_class(A)}")
        if order(A) != order_by_powers(A):
            failures.append(f"order({name}) = {order(A)}, powers give {order_by_powers(A)}")
        s = summary(A)
        expect_meg = 2 if name in meg_two else 4
        if s.meg != expect_meg:
            failures.append(f"meg({name}) = {s.meg}, expected {expect_meg}")
        expect_mog = 3 if name in mog_three else INF
        if s.mog != expect_mog:
            failures.append(f"mog({name}) = {s.mog}, expected {expect_mog}")
        if classify_geometry(A) is not GeometryClass.EUCLIDEAN_PERIODIC:
            failures.append(f"{name} not classified periodic")
    return CheckResult("periodic table", f"7 classes checked, {len(failures)} errors", failures)


def check_nil_family(max_n: int) -> CheckResult:
    """Shear bundles (1,0; n,1) and (-1,0; n,-1): meg 4 resp. 2; mog is
    n/2 + 2 when n = 2 mod 4 and infinite otherwise."""
    failures: list[str] = []
    for n in range(1, max_n + 1):
        expect_mog = n // 2 + 2 if n % 4 == 2 else INF
        for A, expect_meg in ((GL2Matrix(1, 0, n, 1), 4), (GL2Matrix(-1, 0, n, -1), 2)):
            s = summary(A)
            if s.meg != expect_meg:
                failures.append(f"meg({A}) = {s.meg}")
            if s.mog != expect_mog:
                failures.append(f"mog({A}) = {s.mog}, expected {expect_mog}")
    return CheckResult("Nil family", f"n = 1..{max_n}, {len(failures)} errors", failures)


def check_semibundle(samples: int, seed: int) -> CheckResult:
    """Semi-bundle theorems on random gluings: meg always 2, all norms zero
    for odd or zero b, odd norm N(b, a) and mog = N(b, a) + 2 for b = 2 mod 4."""
    failures: list[str] = []
    summary_of = functools.cache(semi_summary)  # one summary per distinct matrix
    for i in range(samples):
        A = random_glz(seed + i, i % 13)
        s = summary_of(A)
        if s.meg != 2:
            failures.append(f"meg({A}) != 2")
        norms = list(s.norms)
        if A.b % 2 == 1 or A.b == 0:
            if any(norms):
                failures.append(f"{A}: b = {A.b} but norms {norms}")
            if A.b % 2 == 1 and len(norms) != 4:
                failures.append(f"{A}: b odd but {len(norms)} classes")
            continue
        value = bredon_wood(A.b, A.a)
        if norms != sorted([0, 0, 0, 0, value, value, value, value]):
            failures.append(f"{A}: norms {norms}")
        if A.b % 4 == 2:
            if value % 2 != 1:
                failures.append(f"{A}: N({A.b},{A.a}) = {value} not odd")
            if s.mog != value + 2:
                failures.append(f"mog({A}) = {s.mog} != {value + 2}")
        else:
            if value % 2 != 0:
                failures.append(f"{A}: N({A.b},{A.a}) = {value} not even")
            if s.mog != INF:
                failures.append(f"mog({A}) = {s.mog} != inf")
    return CheckResult(
        "semi-bundle theorems", f"{samples} gluings, {len(failures)} errors", failures
    )


def iter_trace_minus_two(entry_bound: int):
    """All matrices with det 1, trace -2 and entries in [-entry_bound, entry_bound]."""
    for a in range(-entry_bound, entry_bound + 1):
        d = -2 - a
        if abs(d) > entry_bound:
            continue
        target = a * d - 1  # b*c for det 1
        for b in range(-entry_bound, entry_bound + 1):
            if b == 0:
                if target == 0:
                    for c in range(-entry_bound, entry_bound + 1):
                        yield GL2Matrix(a, c, 0, d)
                continue
            if target % b == 0 and abs(target // b) <= entry_bound:
                yield GL2Matrix(a, target // b, b, d)


def check_conjugacy_criterion(
    entry_bound: int, conj_bound: int, negatives: int, seed: int
) -> CheckResult:
    """The algebraic meg test (det 1, trace -2) against brute-force search:
    every such matrix is conjugated into the form (-1, 0; n, -1) by a bounded
    P, and no matrix of a different trace ever is."""
    failures: list[str] = []
    positives = 0
    for A in iter_trace_minus_two(entry_bound):
        positives += 1
        P = brute_conjugate_to_meg_form(A, conj_bound)
        if P is None:
            failures.append(f"no conjugator (bound {conj_bound}) for {A}")
            continue
        M = P @ A @ P.inverse()
        if not (M.a == -1 and M.c == 0 and M.d == -1):
            failures.append(f"conjugator for {A} gave {M}")
    rng = random.Random(seed)
    tested = 0
    while tested < negatives:
        A = random_matrix(rng, 12)
        if A.det() != 1 or A.trace() == -2:
            continue
        tested += 1
        P = brute_conjugate_to_meg_form(A, conj_bound)
        if P is not None:
            failures.append(f"trace {A.trace()} matrix {A} reached the form via {P}")
    return CheckResult(
        "conjugacy criterion",
        f"{positives} trace -2 matrices (entries <= {entry_bound}) conjugated, "
        f"{tested} other-trace matrices never reached the form; {len(failures)} errors",
        failures,
    )


def check_geodesics(samples: int, coeff_bound: int, seed: int) -> CheckResult:
    """Geodesic soundness: right endpoints, length = distance, successive
    intersection numbers all equal to 2, every vertex in the class of s1,
    and no vertex equal to the one two before it.  A path of edges that
    never turns back is the unique geodesic between its ends in a tree
    (Serre, Trees, I.2), so a path that passes is the tree path."""
    rng = random.Random(seed)
    failures: list[str] = []
    for _ in range(samples):
        cls = rng.choice(PARITY_CLASSES)
        s1 = random_slope(rng, coeff_bound, parity=cls)
        s2 = random_slope(rng, coeff_bound, parity=cls)
        path = geodesic(s1, s2)
        if path[0] != s1 or path[-1] != s2:
            failures.append(f"{s1}->{s2}: endpoints {path[0]}, {path[-1]}")
        if len(path) - 1 != distance(s1, s2):
            failures.append(f"{s1}->{s2}: length {len(path) - 1} != {distance(s1, s2)}")
        if any(intersection_number(path[i], path[i + 1]) != 2 for i in range(len(path) - 1)):
            failures.append(f"{s1}->{s2}: non-edge step")
        if any(parity_of(v) is not cls for v in path):
            failures.append(f"{s1}->{s2}: a vertex left the class {cls.label}")
        if any(path[i] == path[i + 2] for i in range(len(path) - 2)):
            failures.append(f"{s1}->{s2}: the path turns back")
    return CheckResult(
        "geodesic soundness",
        f"{samples} same-parity pairs with |p|,|q| <= {coeff_bound}, {len(failures)} errors",
        failures,
    )


def check_invariance(matrix_pairs: int, slope_tuples: int, seed: int) -> CheckResult:
    """Conjugation and inverse invariance of the norm data, the closed-form
    order and mod-2 permutation against their references, isometry of the
    action, and the four-point condition."""
    rng = random.Random(seed)
    failures: list[str] = []
    # one summary per distinct matrix: A, its conjugate and its inverse often coincide
    summary_of, semi_summary_of = functools.cache(summary), functools.cache(semi_summary)
    for _ in range(matrix_pairs):
        A = random_matrix(rng, 10)
        P = random_matrix(rng, 8)
        conj = P @ A @ P.inverse()
        inv = A.inverse()
        base = summary_of(A)
        for other, label in ((conj, "conjugate"), (inv, "inverse")):
            s = summary_of(other)
            if base.norms != s.norms:
                failures.append(f"{label} norm multiset differs for {A}")
            if base.mog != s.mog or base.meg != s.meg:
                failures.append(f"{label} mog/meg differs for {A}")
            if base.geometry != s.geometry or order(A) != order(other):
                failures.append(f"{label} geometry/order differs for {A}")
        for M in (A, P, conj):
            if order(M) != order_by_powers(M):
                failures.append(f"order({M}) = {order(M)}, powers give {order_by_powers(M)}")
            if parity_permutation(M) != parity_permutation_by_action(M):
                failures.append(f"mod-2 permutation of {M} differs from its action")
        # semi-bundle data sees only the first column, so conjugation can
        # change it; inversion cannot (d = +-1/a mod b, a lens equivalence)
        semi, semi_inv = semi_summary_of(A), semi_summary_of(inv)
        if semi.norms != semi_inv.norms or semi.mog != semi_inv.mog:
            failures.append(f"inverse semi data differs for {A}")
        perm = parity_permutation(P)
        for cls in PARITY_CLASSES:
            if translation_length_closed(A, cls) != translation_length_closed(conj, perm[cls]):
                failures.append(f"conjugation does not permute lengths for {A} on {cls.label}")
    for _ in range(slope_tuples):
        cls = rng.choice(PARITY_CLASSES)
        quad = tuple(random_slope(rng, 25, parity=cls) for _ in range(4))
        if not check_four_point(quad):
            failures.append(f"four-point fails on {quad}")
        A = random_matrix(rng, 10)
        u, v = quad[0], quad[1]
        if distance(mat_act(A, u), mat_act(A, v)) != distance(u, v):
            failures.append(f"{A} is not an isometry on ({u}, {v})")
        if intersection_number(mat_act(A, u), mat_act(A, v)) != intersection_number(u, v):
            failures.append(f"{A} changes intersection number on ({u}, {v})")
    return CheckResult(
        "invariance suite",
        f"{matrix_pairs} matrix pairs and {slope_tuples} slope tuples, {len(failures)} errors",
        failures,
    )


def check_h2_kernel(samples: int, seed: int) -> CheckResult:
    """The case table for H_2 against the kernel of the mod-2 relations
    k = a*k + b*j, j = c*k + d*j."""
    failures: list[str] = []
    for i in range(samples):
        A = random_glz(seed + i, i % 11)
        expected = {
            (j, k)
            for j in (0, 1)
            for k in (0, 1)
            if k == (A.a * k + A.b * j) % 2 and j == (A.c * k + A.d * j) % 2
        }
        if h2_structure(A).valid_jk != expected:
            failures.append(f"{A}: table {sorted(h2_structure(A).valid_jk)} != kernel {sorted(expected)}")
    return CheckResult("H2 kernel cross-check", f"{samples} matrices, {len(failures)} errors", failures)


QUICK_CHECKS = [
    lambda: check_grid_agreement(10),
    lambda: check_bw_parity(200, 4, seed=101),
    lambda: check_lens_invariance(60),
    lambda: check_closed_vs_orbit(150, 12, 2, seed=102),
    check_periodic_table,
    lambda: check_nil_family(16),
    lambda: check_semibundle(120, seed=103),
    lambda: check_conjugacy_criterion(8, 14, 60, seed=104),
    lambda: check_geodesics(100, 25, seed=105),
    lambda: check_invariance(100, 200, seed=106),
    lambda: check_h2_kernel(200, seed=107),
]

FULL_CHECKS = [
    lambda: check_grid_agreement(25),
    lambda: check_bw_parity(1000, 10, seed=101),
    lambda: check_lens_invariance(200),
    lambda: check_closed_vs_orbit(1000, 12, 5, seed=102),
    check_periodic_table,
    lambda: check_nil_family(48),
    lambda: check_semibundle(500, seed=103),
    lambda: check_conjugacy_criterion(20, 30, 500, seed=104),
    lambda: check_geodesics(500, 40, seed=105),
    lambda: check_invariance(500, 1000, seed=106),
    lambda: check_h2_kernel(500, seed=107),
]


def _processes(count: int) -> int:
    """How many processes run count checks: one per CPU this process may
    use, at most one per check, and one alone where it cannot fork or
    another thread is alive (a forked copy of a threaded process holds only
    the forking thread)."""
    threading = sys.modules.get("threading")  # looked up, never imported
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or (
        threading is not None and threading.active_count() > 1
    ):
        return 1
    return min(len(os.sched_getaffinity(0)), count)


def _pull(checks: list, tokens: int, results: dict[int, CheckResult]) -> None:
    """Read one check index at a time from the token pipe and run that
    check, until the pipe is empty.  A check that raises stops the loop
    and leaves its index out of results."""
    while token := os.read(tokens, 1):
        try:
            results[token[0]] = checks[token[0]]()
        except Exception:
            return


def run_checks(level: str) -> list[CheckResult]:
    """Run the level's checks and return their results in schedule order.

    The checks are independent and seeded, so they run side by side: the
    check indices go into one token pipe, _processes(n) - 1 forked
    children and this process each run _pull on it, and each child pickles
    the results it has to its own pipe and leaves through os._exit, with
    status 0 only once they are all sent.  This process reads every result
    pipe before it reaps, and kills and reaps the children when anything
    raises.  It then runs, in order, every check whose result did not come
    back (none came back from a child that failed, and none from a check
    that raised), so a check that raises or ends its process raises here,
    as it would serially, and the results and output are the same bytes
    with one CPU or many.
    """
    import pickle

    checks = {"quick": QUICK_CHECKS, "full": FULL_CHECKS}[level]
    results: dict[int, CheckResult] = {}
    tokens, feed = os.pipe()
    os.write(feed, bytes(range(len(checks))))
    os.close(feed)
    streams = {}  # each child's pid -> the read end of its result pipe
    try:
        for _ in range(_processes(len(checks)) - 1):
            source, sink = os.pipe()
            pid = os.fork()
            if pid == 0:  # a child, whose results are still empty
                status = 1
                try:
                    _pull(checks, tokens, results)
                    with open(sink, "wb") as stream:
                        pickle.dump(results, stream)
                    status = 0
                finally:
                    os._exit(status)
            os.close(sink)
            streams[pid] = open(source, "rb")
        _pull(checks, tokens, results)
        for pid, stream in list(streams.items()):
            sent = stream.read()
            stream.close()
            status = os.waitpid(pid, 0)[1]
            del streams[pid]
            if status == 0:
                results.update(pickle.loads(sent))
    finally:
        os.close(tokens)
        for pid, stream in streams.items():
            stream.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [results[i] if i in results else check() for i, check in enumerate(checks)]
