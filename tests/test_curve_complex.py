"""Slopes, the matrix action, distances, geodesics, and DOT export."""

import copy
import itertools
import math
import pickle
import re
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import continued_fraction_pair, spell_at_most
from solnorm import (
    INF,
    GL2Matrix,
    ParityClass,
    Slope,
    bredon_wood,
    distance,
    distance_bfs,
    export_dot,
    ext_gcd,
    geodesic,
    intersection_number,
    mat_act,
    neighbors_bounded,
    parity_of,
    parse_matrix,
    parse_slope,
    translation_length_closed,
)
from solnorm import curve_complex, graph, oracle
from solnorm.curve_complex import IDENTITY, PARITY_BY_BITS, PARITY_CLASSES, TreePath, geodesic_path
from solnorm.errors import DomainError, ParseError
from solnorm.graph import breadth_first


def _shear_word(exponents: list[int], flip: bool) -> GL2Matrix:
    """Product of shears (1,0;n,1) and (1,n;0,1) taken alternately, then the
    flip (1,0;0,-1) when asked: a det +-1 matrix with entries as large as
    the exponents make them."""
    A = IDENTITY
    for i, n in enumerate(exponents):
        A = A @ (GL2Matrix(1, n, 0, 1) if i % 2 else GL2Matrix(1, 0, n, 1))
    return A @ GL2Matrix(1, 0, 0, -1) if flip else A


# entries up to about 4 * 300 bits
unimodular = st.builds(
    _shear_word, st.lists(st.integers(-(2**300), 2**300), max_size=4), st.booleans()
)

coprime_pairs = st.tuples(st.integers(-200, 200), st.integers(-200, 200)).filter(
    lambda pq: pq != (0, 0) and math.gcd(*pq) == 1
)

# slopes at finite distance from 0/1, at most about 100 steps away
even_slopes = coprime_pairs.filter(lambda pq: pq[0] % 2 == 0).map(lambda pq: Slope.of(*pq))

W = GL2Matrix(5, 2, 2, 1)

_ASCII_INTEGER = re.compile(r"[+-]?[0-9]+")


def split_loop_parse(text: str) -> GL2Matrix:
    """The reference parse_matrix is held to, written out without
    parse_int: split on ";" and ",", then strip and check each cell, so the
    first thing wrong raises its own message."""
    rows = text.strip().split(";")
    if len(rows) != 2:
        raise ParseError(f"expected 'a,c;b,d', got {text!r}")
    entries = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != 2:
            raise ParseError(f"expected two entries per row, got {row!r}")
        for cell in cells:
            message = f"expected integer entry, got {cell!r}"
            cell = cell.strip()
            if not _ASCII_INTEGER.fullmatch(cell):
                raise ParseError(message)
            try:
                entries.append(int(cell))
            except ValueError as err:
                raise ParseError(f"integer entry over Python's int-digit limit: {err}") from None
    return GL2Matrix(*entries)


def outcome(parse, text):
    """The matrix parse returns, or the class and message of what it raises."""
    try:
        return parse(text)
    except (ParseError, DomainError) as err:
        return type(err), str(err)


# Digits, the separators and signs, ASCII and other whitespace (NBSP, em
# space), a non-ASCII digit and the underscore int() accepts, and integers
# just over the int-digit limit.
_OVER_LIMIT = sys.get_int_max_str_digits() + 1
_PIECES = st.sampled_from(list("0123456789+-,; \t\u00a0\u2003\u0668_")) | st.sampled_from(
    ["9" * _OVER_LIMIT, "1" + "0" * _OVER_LIMIT, "-" + "7" * _OVER_LIMIT]
)
_SPACE = st.text(alphabet=" \t\u00a0\u2003", max_size=2)
_BODY = st.text(alphabet="0123456789", min_size=1, max_size=3) | st.lists(_PIECES, max_size=3).map(
    "".join
)
_CELL = st.tuples(_SPACE, st.sampled_from(["", "+", "-", "+-"]), _BODY, _SPACE).map("".join)
# free text; four cells in the format; four cells with drawn separators
matrix_texts = (
    st.lists(_PIECES, max_size=12).map("".join)
    | st.tuples(_CELL, _CELL, _CELL, _CELL).map(lambda c: f"{c[0]},{c[1]};{c[2]},{c[3]}")
    | st.tuples(
        _CELL, st.sampled_from(",;"), _CELL, st.sampled_from(";,"), _CELL, st.sampled_from(",;"), _CELL
    ).map("".join)
)


class TestSlope:
    def test_canonical_sign(self):
        assert Slope.of(-1, 0) == Slope(1, 0)
        assert Slope.of(2, -3) == Slope(-2, 3)
        assert Slope.of(0, -1) == Slope(0, 1)

    def test_non_coprime_rejected(self):
        with pytest.raises(DomainError):
            Slope.of(4, 2)
        with pytest.raises(DomainError):
            Slope.of(0, 0)
        # the pair is named as given, before the sign is canonicalized
        with pytest.raises(DomainError, match=r"^slope -2/-4 is not reduced$"):
            Slope.of(-2, -4)

    @pytest.mark.parametrize("make", [
        lambda: Slope(2 * 10**4400, 2),  # not reduced
        lambda: Slope.of(2 * 10**4400, -2),  # not reduced, named as given
        lambda: Slope(3**9100, -2),  # not in canonical form
    ], ids=["Slope", "Slope.of", "canonical form"])
    def test_an_entry_over_the_digit_limit_is_a_domain_error(self, make):
        with pytest.raises(DomainError, match="^slope entry over Python's int-digit limit: "):
            make()

    def test_parse(self):
        assert parse_slope("1/0") == Slope(1, 0)
        assert parse_slope(" -2/3 ") == Slope(-2, 3)
        assert parse_slope("2/-3") == Slope(-2, 3)
        assert parse_slope("+2/ 3") == Slope(2, 3)

    def test_parse_rejects_garbage(self):
        for text in ("", "1", "1/2/3", "a/b", "\u0661/\u0662", "1_0/3", "0x1/2", "1/" + "3" * 5000):
            with pytest.raises(ParseError):
                parse_slope(text)

    def test_parse_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            parse_slope("4/2")
        with pytest.raises(DomainError, match=r"^slope 4/-2 is not reduced$"):
            parse_slope("4/-2")

    def test_constructor_rejects_with_the_messages_of_of(self):
        # Slope(p, q) itself checks, not only Slope.of
        for (p, q), message in [
            ((4, 2), r"^slope 4/2 is not reduced$"),
            ((0, 0), r"^slope 0/0 is not reduced$"),
            ((2, -3), r"^slope 2/-3 is not in canonical form$"),
            ((-1, 0), r"^slope -1/0 is not in canonical form$"),
        ]:
            with pytest.raises(DomainError, match=message):
                Slope(p, q)

    def test_a_slope_is_its_pair(self):
        s = Slope(-2, 3)
        assert (s.p, s.q) == (-2, 3)
        assert s == (-2, 3) and hash(s) == hash((-2, 3))
        assert Slope(1, 0) > Slope(0, 1) > Slope(-1, 2)

    def test_repr(self):
        assert repr(Slope(1, 2)) == "Slope(p=1, q=2)"
        assert str(Slope(1, 2)) == "1/2"

    def test_repr_in_verify_failure_lines(self, monkeypatch):
        monkeypatch.setattr(oracle, "check_four_point", lambda quad: False)
        failures = oracle.check_invariance(0, 1, seed=106).failures
        assert len(failures) == 1
        slope = r"Slope\(p=-?\d+, q=\d+\)"
        assert re.fullmatch(rf"four-point fails on \({slope}(, {slope}){{3}}\)", failures[0])

    def test_fields_are_read_only(self):
        s = Slope(1, 2)
        with pytest.raises(AttributeError):
            s.p = 3
        with pytest.raises(AttributeError):
            s.extra = 0
        assert s == Slope(1, 2)

    def test_hash_and_equality_are_the_tuple_slots(self):
        # a Python-level __hash__/__eq__ costs a call per set or dict lookup
        # in the breadth-first walks
        assert Slope.__hash__ is tuple.__hash__
        assert Slope.__eq__ is tuple.__eq__
        assert Slope.__lt__ is tuple.__lt__

    @given(coprime_pairs)
    def test_normalization_idempotent(self, pq):
        s = Slope.of(*pq)
        assert s == Slope.of(s.p, s.q) == Slope.of(-s.p, -s.q)
        assert s.q > 0 or (s.q == 0 and s.p == 1)
        assert parse_slope(str(s)) == s


class TestMatrix:
    def test_parse_roundtrip(self):
        A = parse_matrix("1,0;2,1")
        assert (A.a, A.c, A.b, A.d) == (1, 0, 2, 1)
        assert A.to_text() == "1,0;2,1"
        assert parse_matrix(" 1 , 0 ; -2 ,1 ") == GL2Matrix(1, 0, -2, 1)

    @given(unimodular)
    def test_parse_inverts_to_text(self, A):
        assert parse_matrix(A.to_text()) == A

    def test_determinant_rejected(self):
        with pytest.raises(DomainError, match="determinant 2"):
            parse_matrix("2,0;0,1")
        # entries within the int-digit limit, a determinant over it
        with pytest.raises(DomainError, match="^determinant over Python's int-digit limit: "):
            GL2Matrix(10**4000, 0, 0, 10**4000)

    def test_parse_rejects_garbage(self):
        for text in ("1,0,2,1", "1;2", "x,0;0,1", "\u0661,0;0,1", "1,0;1_0,1", "1,0;2,1.0",
                     "1,0;" + "2" * 5000 + ",1"):
            with pytest.raises(ParseError):
                parse_matrix(text)

    @given(matrix_texts)
    @example("1,0;0,1")
    @example(" +1 ,\t-0; 0 ,1\u2003")
    @example("2,1;1,1")  # determinant 1
    @example("2,0;0,1")  # DomainError, not a ParseError
    @example("1,0;\u0668,1")
    @example("1,0;1_0,1")
    @example("1,0;0,1" + "\u00a0")
    @example("1,0;0," + "9" * _OVER_LIMIT)
    @example("9" * _OVER_LIMIT + ",0;x,1")  # the malformed cell comes later
    def test_parse_agrees_with_the_split_loop(self, text):
        assert outcome(parse_matrix, text) == outcome(split_loop_parse, text)

    def test_inverse_and_product(self):
        A = parse_matrix("2,1;1,1")
        assert A @ A.inverse() == IDENTITY
        assert A.inverse() @ A == IDENTITY
        assert A.power(3) == A @ A @ A


class TestIntersectionAndAction:
    def test_basis_pair(self):
        assert intersection_number(Slope(1, 0), Slope(0, 1)) == 1

    def test_edge(self):
        assert intersection_number(Slope(0, 1), Slope(2, 1)) == 2

    def test_one_one_pair(self):
        assert intersection_number(Slope(1, 1), Slope.of(-1, 1)) == 2

    def test_identity_action(self):
        for s in (Slope(1, 0), Slope(0, 1), Slope(-3, 5)):
            assert mat_act(IDENTITY, s) == s

    def test_moves_any_slope_to_zero_one(self):
        # the inverse of (r, p; s, q) with p*s - q*r = 1 sends p/q to 0/1
        for p, q in [(8, 3), (5, 2), (-7, 4), (1, 0)]:
            g, x, y = ext_gcd(p, q)
            s0, r0 = x, -y  # p*s0 - q*r0 == 1
            A = GL2Matrix(-q, p, s0, -r0)
            assert mat_act(A, Slope.of(p, q)) == Slope(0, 1)

    def test_first_column(self):
        A = parse_matrix("2,1;1,1")
        assert mat_act(A, Slope(1, 0)) == Slope.of(A.a, A.b)

    def test_parity_of(self):
        assert parity_of(Slope(2, 1)) is ParityClass.ZERO_ONE
        assert parity_of(Slope(1, 0)) is ParityClass.ONE_ZERO
        assert parity_of(Slope(3, 5)) is ParityClass.ONE_ONE

    def test_parity_tables(self):
        # the tables hold the enum's members, in its order
        assert PARITY_CLASSES == tuple(ParityClass)
        assert PARITY_BY_BITS == {cls.value: cls for cls in ParityClass}

    @given(coprime_pairs, coprime_pairs)
    def test_action_preserves_intersection(self, pq1, pq2):
        A = GL2Matrix(3, 1, 2, 1)
        u, v = Slope.of(*pq1), Slope.of(*pq2)
        assert intersection_number(mat_act(A, u), mat_act(A, v)) == intersection_number(u, v)


class TestDistance:
    def test_from_zero_one_is_bredon_wood(self):
        for p, q in [(8, 3), (2, 1), (4, 3), (0, 1), (3, 5), (1, 0)]:
            assert distance(Slope(0, 1), Slope.of(p, q)) == bredon_wood(p, q)

    def test_self_distance(self):
        for s in (Slope(1, 0), Slope(7, 2), Slope(-3, 8)):
            assert distance(s, s) == 0

    def test_parity_mismatch(self):
        # 1/0 and 2/1 intersect once and lie in different components
        assert distance(Slope(1, 0), Slope(2, 1)) == INF

    def test_edge_from_infinity(self):
        assert distance(Slope(1, 0), Slope(1, 2)) == 1

    def test_example(self):
        assert distance(Slope(0, 1), Slope(4, 3)) == 2

    def test_symmetry_sample(self):
        slopes = [Slope(0, 1), Slope(2, 1), Slope(4, 3), Slope(-8, 5), Slope(12, 7)]
        for u in slopes:
            for v in slopes:
                assert distance(u, v) == distance(v, u)

    def test_mat_act_invariance_sample(self):
        A = parse_matrix("3,2;4,3")
        pairs = [(Slope(0, 1), Slope(8, 3)), (Slope(1, 0), Slope(3, 2)), (Slope(1, 1), Slope(5, 7))]
        for u, v in pairs:
            assert distance(mat_act(A, u), mat_act(A, v)) == distance(u, v)

    def test_distances_from_one_source(self):
        slopes = oracle.slopes_within(6)
        for source in slopes[::3]:
            same = [t for t in slopes if parity_of(t) is parity_of(source)]
            # geodesic builds its own frame, so its length checks the shared one
            assert curve_complex.distances_from(source, same) == [len(geodesic(source, t)) - 1 for t in same]
            assert curve_complex.distances_from(source, iter(slopes)) == [distance(source, t) for t in slopes]
        assert curve_complex.distances_from(Slope(1, 0), ()) == []

    def test_triangle_inequality_sample(self):
        slopes = [Slope.of(p, q) for p in range(-9, 10) for q in range(0, 10)
                  if (p, q) != (0, 0) and math.gcd(p, q) == 1 and (q > 0 or p == 1)]
        by_class = {}
        for s in slopes:
            by_class.setdefault(parity_of(s), []).append(s)
        for members in by_class.values():
            sample = members[::5]
            for u in sample:
                for v in sample:
                    for w in sample:
                        assert distance(u, w) <= distance(u, v) + distance(v, w)


class TestNeighbors:
    def test_bound_zero(self):
        assert neighbors_bounded(Slope(0, 1), 0) == []

    def test_zero_one_examples(self):
        assert neighbors_bounded(Slope(0, 1), 1) == []
        assert neighbors_bounded(Slope(0, 1), 2) == [Slope(-2, 1), Slope(2, 1)]

    def test_infinity_slope(self):
        got = neighbors_bounded(Slope(1, 0), 3)
        assert got == [Slope(-3, 2), Slope(-1, 2), Slope(1, 2), Slope(3, 2)]

    def test_exactly_the_bounded_intersection_two_slopes(self):
        bound = 12
        for s in (Slope(0, 1), Slope(1, 0), Slope(3, 5), Slope(-7, 2)):
            got = neighbors_bounded(s, bound)
            assert len(set(got)) == len(got)
            brute = [
                Slope.of(p, q)
                for p in range(-bound, bound + 1)
                for q in range(0, bound + 1)
                if math.gcd(p, q) == 1 and (q > 0 or p == 1)
                and intersection_number(s, Slope.of(p, q)) == 2
            ]
            assert sorted(got) == sorted(brute)


def shifted_ext_gcd(k: int):
    """ext_gcd returning another Bezout pair: its cofactors plus k*(q/g, -p/g)."""
    def shifted(p, q):
        g, x, y = ext_gcd(p, q)
        return g, x + k * (q // g), y - k * (p // g)
    return shifted


class TestAnyBezoutPair:
    @settings(max_examples=40)
    @given(unimodular, even_slopes)
    @example(IDENTITY, Slope(0, 1))
    @example(GL2Matrix(0, -1, 1, 0), Slope(8, 3))
    def test_no_output_reads_which_pair(self, A, t):
        # a frame's cofactors are fixed only up to k*(q, -p): distances are
        # N up to lens invariance, a neighbour family shifts its t by 2k,
        # and a tree path is unique, so no output may change with k
        s1, s2 = mat_act(A, Slope(0, 1)), mat_act(A, t)
        d = distance(s1, s2)
        targets = [s2, *(cls.base_vertex for cls in PARITY_CLASSES)]

        def outputs():
            return (
                curve_complex.distances_from(s1, targets),
                [neighbors_bounded(s, bound) for s in (s1, s2) for bound in (30, 5 * max(abs(s.p), s.q))],
                [geodesic_path(s1, s2, middle).text(" -> ") for middle in (None, *range(d % 2, d + 1, 2))],
            )

        expected = outputs()
        for k in (-3, 5):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(curve_complex, "ext_gcd", shifted_ext_gcd(k))
                mp.setattr(graph, "ext_gcd", shifted_ext_gcd(k))
                assert outputs() == expected


def moves(*pairs):
    """A walk of single moves, as _walk yields them: runs of one, increments 0."""
    return [(c, d, 0, 0, 1) for c, d in pairs]


# Walks _walk could be forged to return from 0/1 toward 4/3, d(0/1, 4/3) = 2.
FORGED_WALKS = [
    moves((2, 2), (4, 3)),  # intersection numbers 2, but 2/2 is not a slope
    moves((2, 3), (4, 3)),  # reduced, right parity, but 2/3 and 4/3 meet 6 times
    moves((2, 1), (4, 3), (2, 1)),  # one step too many
    moves((2, 1)),  # stops short of 4/3
    moves((2, 1), (-4, 3)),  # ends at the wrong vertex
    [(2, 1, 2, 2, 3)],  # one run 2/1, 4/3, 6/5: a step past 4/3
    [(2, 1, 2, 2, 10**12)],  # the same run claiming 10**12 moves: refused unlisted
    [(2, 1, 2, 2, 0), (2, 1, 2, 2, 2)],  # the path, after a run of no vertices
]

# Walks from 0/1 to 4/3 of N + 2 = 4 edges that turn back once: every edge
# has intersection number 2 and every vertex the parity of 0/1, so with N
# forged 2 too large only the step-back check refuses them.
STEP_BACK_WALKS = [
    moves((2, 1), (0, 1), (2, 1), (4, 3)),
    [(2, 1, -2, 0, 2), (2, 1, 2, 2, 2)],  # the turn inside a run
    [(2, 1, 2, 0, 2), *moves((2, 1), (4, 3))],  # 2/1, 4/1, then back to 2/1 where the run ends
]


# Walks from 0/1 that a run check alone refuses, as (target, runs): with N
# forged 2 too large each has the length and the end a geodesic needs, and
# the first vertex of each run passes the per-edge check.
RUN_FORGERIES = {
    # 2/1, 2/2, 2/3: an odd step leaves the class; 2/2 is not a slope
    "odd step": (Slope(2, 3), [(2, 1, 0, 1, 3)]),
    # 2/1, 2/3, 2/5: slopes of the class, but det(v_0, s) = 4
    "determinant 4": (Slope(2, 5), [(2, 1, 0, 2, 3)]),
    # 2/1 three times: det(v_0, s) = 0
    "zero step": (Slope(2, 1), [(2, 1, 0, 0, 3)]),
    # 2/1, 0/1, -2/1: the run's second vertex is the vertex before it
    "turns back at its start": (Slope(-2, 1), [(2, 1, -2, 0, 3)]),
    # 2/1, 0/-1, -2/-3: the same, with the second vertex negated
    "turns back, negated": (Slope(2, 3), [(2, 1, -2, -2, 3)]),
}


def progression(start, step, count):
    return range(start, start + step * count, step) if step else itertools.repeat(start, count)


def geodesic_by_vertices(s1, s2, middle=None):
    """geodesic as it was written with one check per vertex: the reference
    for the run checks.  The runs of _walk are spelled out pair by pair;
    each pair after the first must have intersection number 2 with the one
    before it, the parity of s1, and differ from the one two before it."""
    _, x, y = ext_gcd(s1.p, s1.q)
    tp, tq = s1.q * s2.p - s1.p * s2.q, x * s2.p + y * s2.q
    dist = bredon_wood(tp, tq)
    edges = dist if middle is None else middle
    assert 0 <= edges <= dist and (dist - edges) % 2 == 0
    skip = (dist - edges) // 2
    parity = (s1.p & 1, s1.q & 1)
    runs = iter(curve_complex._walk(y, s1.p, -x, s1.q, tp, tq, dist - skip))
    first, pieces = s1, []
    if skip:
        left = skip  # vertex k is the run's vertex left - 1
        for c, d, dc, dd, r in runs:
            if left <= r:
                break
            left -= r
        else:
            raise AssertionError("left the tree path")
        first = Slope.of(c + (left - 1) * dc, d + (left - 1) * dd)
        if (first.p & 1, first.q & 1) != parity:
            raise AssertionError("left the tree path")
        pieces.append(zip(progression(c + left * dc, dc, r - left), progression(d + left * dd, dd, r - left)))
    for c, d, dc, dd, r in runs:
        pieces.append(zip(progression(c, dc, r), progression(d, dd, r)))
    path = [first]
    for cp, cq in itertools.islice(itertools.chain.from_iterable(pieces), edges + 1):
        if cq < 0 or (cq == 0 and cp < 0):
            cp, cq = -cp, -cq
        if (abs(path[-1].p * cq - cp * path[-1].q) != 2 or (cp & 1, cq & 1) != parity
                or (len(path) > 1 and path[-2] == (cp, cq))):
            raise AssertionError("left the tree path")
        path.append(Slope(cp, cq))
    if len(path) != edges + 1 or (not skip and path[-1] != s2):
        raise AssertionError("left the tree path")
    return path


def assert_canonical(path):
    for v in path:
        assert type(v) is Slope and (v.q > 0 or (v.p, v.q) == (1, 0)), v
        assert math.gcd(v.p, v.q) == 1


class TestBfsAndGeodesic:
    def test_direct_edge(self):
        assert distance_bfs(Slope(0, 1), Slope(2, 1), 5) == 1

    def test_bfs_example(self):
        assert distance_bfs(Slope(0, 1), Slope(8, 3), 10) == 2

    def test_parity_mismatch(self):
        assert distance_bfs(Slope(0, 1), Slope(1, 0), 50) == INF

    def test_unknown_on_tight_bound(self):
        assert distance_bfs(Slope(0, 1), Slope(8, 3), 3) == "unknown"

    def test_same_slope(self):
        s = Slope(5, 3)
        assert distance_bfs(s, s, 1) == 0

    def test_trivial_geodesic(self):
        assert geodesic(Slope(5, 2), Slope(5, 2)) == [Slope(5, 2)]

    def test_geodesic_example(self):
        assert geodesic(Slope(0, 1), Slope(4, 3)) == [Slope(0, 1), Slope(2, 1), Slope(4, 3)]

    def test_geodesic_middle_vertex(self):
        path = geodesic(Slope(0, 1), Slope(8, 3))
        assert len(path) == 3
        assert distance(path[1], path[0]) == 1
        assert distance(path[1], path[2]) == 1

    def test_geodesic_parity_mismatch(self):
        with pytest.raises(DomainError, match="infinite distance"):
            geodesic(Slope(0, 1), Slope(1, 0))

    def test_geodesic_equivariance(self):
        A = parse_matrix("1,2;2,5")
        s1, s2 = Slope(0, 1), Slope(8, 3)
        moved = geodesic(mat_act(A, s1), mat_act(A, s2))
        assert moved == [mat_act(A, v) for v in geodesic(s1, s2)]

    def test_geodesic_huge_partial_quotient(self):
        # one edge whose neighbor parameter is about 1e12
        target = Slope(2, 2 * 10**12 + 1)
        assert geodesic(Slope(0, 1), target) == [Slope(0, 1), target]

    def test_geodesic_between_3000_bit_slopes(self):
        s1 = mat_act(W.power(1200), Slope(0, 1))
        s2 = mat_act(W.power(-1200), Slope(0, 1))
        assert min(s1.q.bit_length(), s2.q.bit_length()) >= 3000
        path = geodesic(s1, s2)
        assert path[0] == s1 and path[-1] == s2
        assert len(path) - 1 == distance(s1, s2) >= 1000
        assert all(intersection_number(u, v) == 2 for u, v in zip(path, path[1:]))
        assert_canonical(path)

    @given(unimodular, even_slopes)
    @example(W.power(1200), mat_act(W.power(-2400), Slope(0, 1)))  # about 3,000-bit vertices
    def test_walk_vertices_are_reduced_slopes(self, A, t):
        # the walk builds its vertices without the checks of Slope.__new__;
        # each must be the slope the checked constructor would have made
        s1, s2 = mat_act(A, Slope(0, 1)), mat_act(A, t)
        for v in geodesic(s1, s2):
            assert type(v) is Slope
            assert Slope.of(v.p, v.q) == v and math.gcd(v.p, v.q) == 1
            assert hash(v) == hash(Slope(v.p, v.q))

    @given(unimodular, even_slopes)
    @example(IDENTITY, Slope(0, 1))  # no step to take
    @example(W.power(300), mat_act(W.power(-600), Slope(0, 1)))
    def test_walk_returns_the_path_and_stops_at_the_target(self, A, t):
        # _walk gets five steps more than the distance and must stop after
        # exactly d, one vertex per step past s1, in path order
        s1, s2 = mat_act(A, Slope(0, 1)), mat_act(A, t)
        _, x, y = ext_gcd(s1.p, s1.q)
        tp, tq = s1.q * s2.p - s1.p * s2.q, x * s2.p + y * s2.q
        d = bredon_wood(tp, tq)
        runs = curve_complex._walk(y, s1.p, -x, s1.q, tp, tq, d + 5)
        assert type(runs) is list
        pairs = [(c + j * dc, e + j * de) for c, e, dc, de, r in runs for j in range(r)]
        assert len(pairs) == d == distance(s1, s2)
        assert [Slope.of(p, q) for p, q in pairs] == geodesic(s1, s2)[1:]

    @given(unimodular, even_slopes, st.integers(0, 10**6))
    @example(IDENTITY, Slope(2000, 1), 123)  # one run of 1,000 moves, cut at vertex 123
    @example(W.power(300), mat_act(W.power(-600), Slope(0, 1)), 5)
    @example(GL2Matrix(1, 0, 0, -1), Slope(2, 10**12 + 1), 1)
    def test_middle_is_the_middle_of_the_path(self, A, t, seed):
        # the runs before vertex k are skipped whole and the run that holds
        # it is cut there; the stretch is vertices k .. d - k of the path
        s1, s2 = mat_act(A, Slope(0, 1)), mat_act(A, t)
        path = geodesic(s1, s2)
        d = len(path) - 1
        k = seed % (d // 2 + 1)
        assert geodesic(s1, s2, middle=d - 2 * k) == path[k:d - k + 1]
        assert geodesic(s1, s2, middle=d) == path

    def test_middle_of_a_run_of_a_trillion_moves(self):
        # 1/0 to 1/(2 * 10**12): one run, d = 10**12; vertex j is 1/(2j)
        s1, s2 = Slope(1, 0), Slope(1, 2 * 10**12)
        half = 5 * 10**11
        assert geodesic(s1, s2, middle=0) == [Slope(1, 2 * half)]
        assert geodesic(s1, s2, middle=4) == [Slope(1, 2 * j) for j in range(half - 2, half + 3)]

    @pytest.mark.parametrize("middle", [-2, -1, 1, 3, 5, 6])
    def test_a_middle_that_does_not_fit_is_refused(self, middle):
        # d(1/0, 1/8) = 4: the middle stretches have 0, 2 or 4 edges
        with pytest.raises(AssertionError, match=f"from 1/0 to 1/8 has 4 edges: no middle stretch of {middle}$"):
            geodesic(Slope(1, 0), Slope(1, 8), middle=middle)

    @pytest.mark.parametrize("target", [Slope(1, 0), Slope(1, 2), Slope(1, 8), Slope(33, 8), Slope(-23, 10)])
    @pytest.mark.parametrize("extra", [-1, 1, 2])
    def test_a_forged_length_with_a_middle_is_refused_or_a_stretch(self, monkeypatch, target, extra):
        # with N forged, each middle the forged length allows is refused or
        # is a true stretch of the path, never an IndexError or a
        # StopIteration; the whole path is always refused, and 1/0 to
        # itself with N forged to 2 runs out of moves before vertex k = 1
        path = geodesic(Slope(1, 0), target)
        forged = len(path) - 1 + extra
        monkeypatch.setattr(curve_complex, "bredon_wood", lambda p, q: bredon_wood(p, q) + extra)
        refused = []
        for middle in range(forged % 2, forged + 1, 2):
            try:
                stretch = geodesic(Slope(1, 0), target, middle=middle)
            except AssertionError as err:
                assert "left the tree path" in str(err)
                refused.append(middle)
            else:
                assert len(stretch) == middle + 1
                assert any(path[i:i + middle + 1] == stretch for i in range(len(path)))
        assert (forged in refused) == (forged >= 0)

    @pytest.mark.parametrize("middle", [0, 2])
    def test_a_cut_run_of_the_wrong_parity_is_refused(self, monkeypatch, middle):
        # the path from 1/0 to 1/8 runs through 1/2, 1/4, 1/6; the forged
        # run 1/1, 1/3, 1/5 of as many moves as asked for has edges of
        # intersection number 2, so with middle 0 (the stretch [1/3]) only
        # the parity check on vertex k refuses it
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: [(1, 1, 0, 2, args[-1])])
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(1, 0), Slope(1, 8), middle=middle)

    @pytest.mark.parametrize("extra", [-1, 1, 2])
    def test_walk_of_the_wrong_length_raises(self, monkeypatch, extra):
        # the walk stops where T = 0/1, so a longer one cannot reach N(T) + 1 vertices
        monkeypatch.setattr(curve_complex, "bredon_wood", lambda p, q: bredon_wood(p, q) + extra)
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(1, 0), Slope(1, 8))

    def test_a_path_too_long_to_list_is_refused_unspelled(self, monkeypatch):
        # d(1/0, 1/(2k)) = k: a path of k edges at the limit is listed, and
        # one of k + 1 or 10**12 edges is walked and checked whole, but
        # refused before one vertex is spelled, in text, iteration, a
        # slice, reversed and index, while a short slice of it is listed;
        # the limit is on the edges listed, not on the path: the middle 4
        # edges of 10**12 are listed too, and the middle 6, named by their
        # ends, refused
        monkeypatch.setattr(curve_complex, "MAX_PATH_EDGES", 5)
        assert geodesic(Slope(1, 0), Slope(1, 10))[-2:] == [Slope(1, 8), Slope(1, 10)]
        assert len(geodesic(Slope(1, 0), Slope(1, 2 * 10**12), middle=4)) == 5
        spell_at_most(monkeypatch, 0)
        for target in (Slope(1, 12), Slope(1, 2 * 10**12)):
            path = geodesic_path(Slope(1, 0), target)
            assert (len(path), path[-1]) == (target.q // 2 + 1, target)
            assert path[:3] == (Slope(1, 0), Slope(1, 2), Slope(1, 4)) and path[-1:] == (target,)
            message = f"^geodesic from 1/0 to {target} is longer than 5 edges, too long to list$"
            for spell in (list, lambda path: path.text(" -> "), hash, lambda path: path == tuple(path),
                          lambda path: path[:], lambda path: list(reversed(path)),
                          lambda path: path.index(target)):
                with pytest.raises(DomainError, match=message):
                    spell(path)
        k = (10**12 - 6) // 2  # the stretch runs from vertex k to vertex k + 6
        with pytest.raises(DomainError, match=f"^geodesic from 1/{2 * k} to 1/{2 * k + 12} is longer than 5"):
            geodesic(Slope(1, 0), Slope(1, 2 * 10**12), middle=6)

    @pytest.mark.parametrize("vertices", FORGED_WALKS)
    def test_forged_walks_are_refused(self, monkeypatch, vertices):
        # geodesic checks every vertex _walk proposes, also when the runs
        # come as an iterator; d(0/1, 4/3) = 2, and no walk is spelled out
        # past m + 2 = 4 vertices
        spell_at_most(monkeypatch, 4)
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: iter(vertices))
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(0, 1), Slope(4, 3))

    @pytest.mark.parametrize("vertices", FORGED_WALKS)
    def test_forged_walk_lists_are_refused(self, monkeypatch, vertices):
        # the same runs returned as a list, as _walk returns them
        spell_at_most(monkeypatch, 4)
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: list(vertices))
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(0, 1), Slope(4, 3))

    @pytest.mark.parametrize("middle", [None, 0, 2])
    def test_a_run_claiming_a_trillion_moves_is_cut(self, monkeypatch, middle):
        # a forged run of 10**12 moves from 0/1, through 2/1, 4/3, 6/5, ...,
        # where d(0/1, 4/3) = 2: geodesic refuses the walk, whole or cut at
        # vertex k, without listing it; the spelling wrapper turns a missing
        # length check into a failure after m + 2 vertices, not a full memory
        spell_at_most(monkeypatch, (2 if middle is None else middle) + 2)
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: [(2, 1, 2, 2, 10**12)])
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(0, 1), Slope(4, 3), middle=middle)

    @pytest.mark.parametrize("middle", [None, 2, 0])
    def test_a_run_longer_than_the_stretch_left_is_refused_unbuilt(self, monkeypatch, middle):
        # d(1/0, 1/8) = 4 along the run 1/2, 1/4, 1/6, 1/8; the forged run
        # has one vertex more.  Whole, or cut at vertex k = 1 or 2, it is
        # longer than the edges left and refused before a vertex is spelled
        spelled = spell_at_most(monkeypatch, 10)
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: [(1, 2, 0, 2, 5)])
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(1, 0), Slope(1, 8), middle=middle)
        assert spelled == []

    @pytest.mark.parametrize("name", RUN_FORGERIES)
    def test_a_run_check_refuses_its_forgery(self, monkeypatch, name):
        target, runs = RUN_FORGERIES[name]
        assert distance(Slope(0, 1), target) == 1
        monkeypatch.setattr(curve_complex, "bredon_wood", lambda p, q: bredon_wood(p, q) + 2)
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: iter(runs))
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(0, 1), target)

    @pytest.mark.parametrize("runs", STEP_BACK_WALKS)
    def test_a_walk_that_turns_back_is_refused(self, monkeypatch, runs):
        # with N forged 2 too large, the turned-back walk has the length and
        # the end a geodesic needs; only the step-back check refuses it
        monkeypatch.setattr(curve_complex, "bredon_wood", lambda p, q: bredon_wood(p, q) + 2)
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: iter(runs))
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(0, 1), Slope(4, 3))

    def test_walk_signs_are_canonicalized(self, monkeypatch):
        walk = moves((-2, -1), (4, 3))
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: iter(walk))
        assert geodesic(Slope(0, 1), Slope(4, 3)) == [Slope(0, 1), Slope(2, 1), Slope(4, 3)]
        walk = moves((-1, 0))
        assert geodesic(Slope(1, 2), Slope(1, 0)) == [Slope(1, 2), Slope(1, 0)]


# entries up to about 10**30
huge = st.integers(-(10**30), 10**30)


class TestCertificateOfAPower:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**48), st.integers(8, 30), st.sampled_from((2, 5, 40, 300)))
    def test_the_certificate_of_a_power_repeats(self, seed, letters, k):
        # for l >= 2 the certificate of A on a class runs from a vertex w
        # of A's axis to A(w), and A^k translates the same axis by k*l: the
        # certificate of A^k starts at the same w and passes A^i(w) at
        # index i*l, which checks a long walk on large entries against
        # mat_act alone
        A = oracle.random_glz(seed, letters)
        Ak = A.power(k)
        for cls in PARITY_CLASSES:
            length = translation_length_closed(A, cls)
            if length == INF or length < 2:
                continue
            v = cls.base_vertex
            w = geodesic_path(v, mat_act(A, v), middle=length)[0]
            path = geodesic_path(v, mat_act(Ak, v), middle=k * length)
            assert len(path) == k * length + 1 and path[0] == w
            for i in range(1, k + 1):
                w = mat_act(A, w)
                assert path[i * length] == w, (A, k, cls, i)


def largest_middle(d: int, cap: int) -> int:
    """The longest middle stretch of a path of d edges with at most about
    cap edges: the whole path when it is short enough."""
    return d if d <= cap else cap + (d - cap) % 2


def clipped(runs, steps):
    """runs cut after steps moves, as _walk cuts its walk."""
    out = []
    for c, d, dc, dd, r in runs:
        if steps <= 0:
            break
        out.append((c, d, dc, dd, min(r, steps)))
        steps -= r
    return out


@st.composite
def walks_around_a_slope(draw):
    """(s1, s2, runs, path): a tree path of r edges, v_{-1} .. v_{r-1} with
    v_j = u + (j - j0)*s, around a slope w: u meets w once and s = +-2w,
    so every vertex meets w once and the next one twice.  u is the vertex
    with |q| < |b| for w = a/b, so q changes sign next to u, inside the
    run for most j0.  The runs spell v_0 .. v_{r-1} in pieces cut at
    random, each with a random sign; path is the canonical vertices."""
    a, b = draw(
        st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (3, 2), (-5, 2)])
        | st.tuples(huge, huge).filter(lambda ab: math.gcd(*ab) == 1)
    )
    _, x, y = ext_gcd(a, b)
    up, uq = -y, x  # a*uq - b*up = 1
    if b:
        t = -(uq // b)
        up, uq = up + t * a, uq + t * b
    r = draw(st.integers(2, 40))
    j0 = draw(st.integers(0, r - 1))
    e = draw(st.sampled_from([1, -1]))
    sp, sq = 2 * e * a, 2 * e * b
    vertices = [(up + (j - j0) * sp, uq + (j - j0) * sq) for j in range(-1, r)]
    cuts = sorted(draw(st.sets(st.integers(1, r - 1), max_size=4)))
    runs = []
    for start, stop in zip([0, *cuts], [*cuts, r]):
        sign = draw(st.sampled_from([1, -1]))
        p, q = vertices[start + 1]
        runs.append((sign * p, sign * q, sign * sp, sign * sq, stop - start))
    path = [Slope.of(p, q) for p, q in vertices]
    return path[0], path[-1], runs, path


class TestRunChecksAgainstVertexChecks:
    """geodesic checks each run as a whole; geodesic_by_vertices checks
    every vertex.  They return the same canonical slopes."""

    @given(huge, huge, huge, huge)
    @example(10**30, 1, 3, 10**29)
    @example(1, 0, 0, 10**30 // 2)  # one run of 5 * 10**29 moves: a middle of 300
    def test_same_class_pairs_up_to_10_to_the_30(self, p, q, a, b):
        assume(math.gcd(p, q) == 1)
        s1 = Slope.of(p, q)
        p2, q2 = 2 * a + s1.p % 2, 2 * b + s1.q % 2
        assume(math.gcd(p2, q2) == 1)
        s2 = Slope.of(p2, q2)
        middle = largest_middle(distance(s1, s2), 300)
        path = geodesic(s1, s2, middle=middle)
        assert path == geodesic_by_vertices(s1, s2, middle=middle)
        assert_canonical(path)

    @pytest.mark.parametrize("A", [
        GL2Matrix(1, 0, 16002, 1),  # the semibundle 1,0;16002,1 certificate's one run
        GL2Matrix(-1, 0, 8002, -1),
        GL2Matrix(1, 0, 4 * 10**12, -1),  # base slopes 2 * 10**12 steps from the fixed set
        GL2Matrix(-3999999999999, 2, -8000000000007999999999998, 4000000000005),
        GL2Matrix(150001, 75000, 2, 1),
        W.power(60),
    ])
    def test_shears_and_semibundle_targets_far_from_the_axis(self, A):
        pairs = [(Slope(1, 0), Slope.of(A.a, A.b))]  # a semibundle certificate
        pairs += [(v, mat_act(A, v)) for v in (Slope(1, 0), Slope(0, 1), Slope(1, 1))]
        for s1, s2 in pairs:
            d = distance(s1, s2)
            if d == INF:
                continue
            for middle in {largest_middle(d, 9000), d % 2, min(d % 2 + 2, d)}:
                path = geodesic(s1, s2, middle=middle)
                assert path == geodesic_by_vertices(s1, s2, middle=middle)
                assert_canonical(path)


# separators for TreePath.text: the text report's, the JSON writer's, none,
# and one that is itself a % template
SEPARATORS = (" -> ", '",\n      "', "", "%d%%")


def assert_record_is(path, vertices):
    """The TreePath path holds exactly vertices: its length first, the sum
    of its stored pieces, so a record that holds more vertices than it
    should fails before any is built; then its list, every index,
    negative ones too, where index finds its ends and middle vertex (a
    path's vertices are distinct), and its text with each separator."""
    assert type(path) is TreePath
    n = len(vertices)
    assert len(path) == n
    assert list(path) == vertices
    assert_canonical(list(path))
    for i in range(-n, n):
        assert path[i] == vertices[i] and type(path[i]) is Slope, i
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            path[i]
    for i in {0, n // 2, n - 1}:
        assert path.index(vertices[i]) == path.index(vertices[i], i, i + 1) == i
    with pytest.raises(ValueError):
        path.index(vertices[-1], 0, n - 1)
    for separator in SEPARATORS:
        assert path.text(separator) == separator.join("%d/%d" % v for v in vertices)
    assert path == tuple(vertices) and hash(path) == hash(tuple(vertices))


class TestTreePath:
    """geodesic_path returns the checked runs as a TreePath; read back, it is
    the path the per-vertex reference builds."""

    @given(unimodular, even_slopes)
    @example(IDENTITY, Slope(40, 1))  # one run of 20 moves, cut at every vertex k
    @example(GL2Matrix(1, 0, 0, -1), Slope(2, 41))
    @example(W.power(40), mat_act(W.power(-80), Slope(0, 1)))  # runs of one only
    def test_every_middle_is_the_reference_path(self, A, t):
        s1, s2 = mat_act(A, Slope(0, 1)), mat_act(A, t)
        d = distance(s1, s2)
        for middle in range(d % 2, d + 1, 2):
            assert_record_is(geodesic_path(s1, s2, middle), geodesic_by_vertices(s1, s2, middle=middle))

    @given(walks_around_a_slope())
    # q crosses 0 inside the run: -1/6, -1/4, -1/2, 1/0, 1/2, 1/4 as one run
    @example((Slope(-1, 6), Slope(1, 4), [(1, -4, 0, 2, 5)], [Slope(-1, 6), Slope(-1, 4), Slope(-1, 2),
                                                              Slope(1, 0), Slope(1, 2), Slope(1, 4)]))
    # the same run negated
    @example((Slope(-1, 6), Slope(1, 4), [(-1, 4, 0, -2, 5)], [Slope(-1, 6), Slope(-1, 4), Slope(-1, 2),
                                                               Slope(1, 0), Slope(1, 2), Slope(1, 4)]))
    # q crosses 0 between two vertices: 4/3, 2/1, 0/1, 2/3 as one run
    @example((Slope(4, 3), Slope(2, 3), [(-2, -1, 2, 2, 3)], [Slope(4, 3), Slope(2, 1), Slope(0, 1), Slope(2, 3)]))
    # the run starts at (-1, 0): 1/0, -1/2, -1/4 after 1/2
    @example((Slope(1, 2), Slope(-1, 4), [(-1, 0, 0, 2, 3)], [Slope(1, 2), Slope(1, 0), Slope(-1, 2), Slope(-1, 4)]))
    # the run ends at (-1, 0): 1/4, 1/2, 1/0 after 1/6
    @example((Slope(1, 6), Slope(1, 0), [(-1, -4, 0, 2, 3)], [Slope(1, 6), Slope(1, 4), Slope(1, 2), Slope(1, 0)]))
    # q < 0 throughout, and it would reach 0 one vertex past the run's end:
    # -1/8, -1/6, -1/4 after -1/10
    @example((Slope(-1, 10), Slope(-1, 4), [(1, -8, 0, 2, 3)],
              [Slope(-1, 10), Slope(-1, 8), Slope(-1, 6), Slope(-1, 4)]))
    # q < 0 throughout with a zero step in q: -3/1, -5/1, -7/1 after -1/1
    @example((Slope(-1, 1), Slope(-7, 1), [(3, -1, 2, 0, 3)], [Slope(-1, 1), Slope(-3, 1), Slope(-5, 1), Slope(-7, 1)]))
    def test_runs_whose_q_changes_sign(self, walk):
        # the forged runs spell the true path with signs and cuts _walk
        # would not choose, 1/0 inside a run among them; every middle,
        # cut inside a run or between two, reads back as its slice of the
        # true path, and the true walk gives the same path
        s1, s2, runs, path = walk
        assert distance(s1, s2) == len(path) - 1
        assert geodesic(s1, s2) == path
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curve_complex, "_walk", lambda *args: clipped(runs, args[-1]))
            for middle in range(len(path) % 2 ^ 1, len(path), 2):
                k = (len(path) - 1 - middle) // 2
                record = geodesic_path(s1, s2, middle)
                assert_record_is(record, path[k:k + middle + 1])

    def test_a_path_past_sys_maxsize_vertices_is_a_value(self, monkeypatch):
        # 10**20 edges in one run: len is refused by CPython past
        # sys.maxsize, but edges, repr, indexing and equality read the
        # record, and spelling it out is refused as too long to list
        spell_at_most(monkeypatch, 0)
        n = 10**20
        path = geodesic_path(Slope(1, 0), Slope(1, 2 * n))
        assert path.edges == n and path[-2:] == (Slope(1, 2 * n - 2), Slope(1, 2 * n))
        assert repr(path) == f"<TreePath of {n + 1} vertices from 1/0 to 1/{2 * n}>"
        with pytest.raises(OverflowError):
            len(path)
        assert path == path and path != (Slope(1, 0),)
        assert path != geodesic_path(Slope(1, 0), Slope(1, 2 * n - 2))
        with pytest.raises(DomainError, match=f"^geodesic from 1/0 to 1/{2 * n} is longer than"):
            path == geodesic_path(Slope(1, 0), Slope(1, 2 * n))

    def test_a_run_is_read_without_spelling_it(self, monkeypatch):
        # the middle 10**6 edges of the one run from 1/0 to 1/(2 * 10**12):
        # vertex i of the stretch is 1/(2(k + i)), k = (10**12 - 10**6)/2;
        # length and indexing build only the vertices they return
        spell_at_most(monkeypatch, 0)
        m = curve_complex.MAX_PATH_EDGES
        k = (10**12 - m) // 2
        path = geodesic_path(Slope(1, 0), Slope(1, 2 * 10**12), middle=m)
        assert len(path) == m + 1
        for i in (0, 1, 2, m // 2, -2, -1):
            assert path[i] == Slope(1, 2 * (k + i % (m + 1)))
        assert path[1:3] == (Slope(1, 2 * k + 2), Slope(1, 2 * k + 4))

    @pytest.mark.parametrize("index", [1.0, 1.5, -1.0, "1", (1,)])
    def test_a_non_integer_index_is_refused(self, index):
        # a float would pass the range check and spell a slope of the run
        # that is not on the path: 1.5 would read 1.0/3.0 here
        path = geodesic_path(Slope(1, 0), Slope(1, 8))
        with pytest.raises(TypeError):
            path[index]

    # no piece, and only empty lists of vertices (a walk leaves one after
    # each run): no vertex, so no repr; runs of 0 and -3 slopes after a
    # vertex, where -3 would give edges == -4
    @pytest.mark.parametrize("pieces, message", [
        ([], "a path holds one vertex or more"),
        ([[], []], "a path holds one vertex or more"),
        ([[Slope(1, 0)], (1, 2, 0, 2, 0)], "a run of a path holds one slope or more"),
        ([(1, 0, 0, 2, -3)], "a run of a path holds one slope or more"),
    ], ids=["no-piece", "empty-lists", "run-of-0", "run-of-minus-3"])
    def test_pieces_without_a_vertex_are_refused(self, pieces, message):
        with pytest.raises(DomainError, match=message):
            TreePath(pieces)
        assert TreePath([[Slope(1, 0)], (1, 2, 0, 2, 1), []]).edges == 1  # a walk's empty list is read

    def test_is_read_only(self):
        path = geodesic_path(Slope(0, 1), Slope(4, 3))
        for name in ("_path", "anything"):
            with pytest.raises(AttributeError, match="TreePath is read-only"):
                setattr(path, name, None)
        with pytest.raises(AttributeError, match="TreePath is read-only"):
            del path._path
        assert list(path) == [Slope(0, 1), Slope(2, 1), Slope(4, 3)]

    def test_is_a_value(self):
        # a path equals, orders and hashes as the tuple of its vertices,
        # whatever runs hold them, and its copies and pickles are equal
        s1, s2 = Slope(1, 0), Slope(1, 40)
        path, again = geodesic_path(s1, s2), geodesic_path(s1, s2)
        vertices = tuple(geodesic_by_vertices(s1, s2))
        assert path is not again and path == again and hash(path) == hash(again) == hash(vertices)
        assert path == vertices and vertices == path and not path != vertices
        assert path != list(vertices) and path != vertices[:-1] + (Slope(3, 40),) and path != None  # noqa: E711
        cut = geodesic_path(s1, s2, middle=18)
        assert cut != path and cut == geodesic_path(Slope(1, 2), Slope(1, 38)) == vertices[1:-1]
        assert cut > path and path < cut and cut >= vertices[1:-1] and vertices < cut[:-1] and path <= again
        assert sorted([cut, path]) == [path, cut]
        with pytest.raises(TypeError):
            path < list(vertices)
        assert {path: 1}[vertices] == 1
        for copied in (copy.copy(path), copy.deepcopy(path), pickle.loads(pickle.dumps(path))):
            assert type(copied) is TreePath and copied == path and copied.text(" -> ") == path.text(" -> ")

    def test_run_text_over_the_digit_limit_is_a_domain_error(self, monkeypatch):
        # the true path 1/0, (2X+1)/2, (4X+1)/4, (6X+1)/6 around X/1, forged
        # as one run after 1/0: under a lowered limit 1/0 formats and the
        # run's 701-digit entries raise the slope-entry DomainError.  A run
        # whose step has a zero entry puts that entry into the template
        # once; three forged records cover it: the stepping entry over the
        # limit with p constant, the same with q constant, and a constant p
        # itself over the limit, which the template's f-string refuses.  A
        # fourth, the same path's first two vertices as one list, takes the
        # one-piece branch
        X = 10**700
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: [(2 * X + 1, 2, 2 * X, 2, 3)])
        path = geodesic_path(Slope(1, 0), Slope(6 * X + 1, 6))
        assert len(path) == 4 and path[-2] == Slope(4 * X + 1, 4)
        records = [path] + [TreePath([[Slope(1, 0)], run]) for run in (
            (1, 2 * X, 0, 2, 3),  # 1/2X, 1/(2X+2), 1/(2X+4): a zero step in p
            (2 * X + 1, 1, 2, 0, 3),  # (2X+1)/1, (2X+3)/1, (2X+5)/1: a zero step in q
            (2 * X + 1, 2, 0, 2, 3),  # (2X+1)/2, (2X+1)/4, (2X+1)/6: p constant and over the limit
        )]
        records.append(TreePath([[Slope(1, 0), Slope(2 * X + 1, 2)]]))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for record in records:
                for separator in SEPARATORS:
                    with pytest.raises(DomainError, match="^slope entry over Python's int-digit limit: "):
                        record.text(separator)
        finally:
            sys.set_int_max_str_digits(limit)
        for record in records:
            vertices = list(record)
            for separator in SEPARATORS:
                assert record.text(separator) == separator.join("%d/%d" % v for v in vertices)
        assert path.text(" -> ") == f"1/0 -> {2 * X + 1}/2 -> {4 * X + 1}/4 -> {6 * X + 1}/6"


# continued fractions of up to 400 terms, with quotients near 10**12
# mixed in: operands of up to about 5,000 digits
_QUOTIENTS = st.lists(
    st.one_of(st.integers(1, 30), st.integers(10**12 - 50, 10**12 + 50)), min_size=1, max_size=400
)


class TestRuns:
    @given(_QUOTIENTS, st.booleans(), st.booleans())
    @example([10**12] * 400, False, False)
    def test_run_lengths_sum_to_bredon_wood(self, quotients, negate_p, negate_q):
        # the walk from 0/1 to T counts d(0/1, T) = N(T) as a sum of run
        # lengths, with none of bredon_wood's code
        p, q = continued_fraction_pair(quotients)
        if p % 2:  # make p even, keeping the pair coprime
            p, q = (q, p) if q % 2 == 0 else (p + q, q)
        p, q = -p if negate_p else p, -q if negate_q else q
        bound = abs(p) + abs(q)  # more steps than any walk of the pair takes
        runs = list(curve_complex._walk(1, 0, 0, 1, p, q, bound))
        assert sum(r for *_, r in runs) == bredon_wood(p, q)
        assert len(runs) <= 2 * len(quotients) + 2

    def test_a_run_is_one_iteration(self):
        # 1/0 to 1/(2 * 10**12) is one run of 10**12 moves with n = 1
        # the frame and target geodesic starts from
        s1, s2 = Slope(1, 0), Slope(1, 2 * 10**12)
        _, x, y = ext_gcd(s1.p, s1.q)
        tp, tq = s1.q * s2.p - s1.p * s2.q, x * s2.p + y * s2.q
        (run,) = curve_complex._walk(y, s1.p, -x, s1.q, tp, tq, 10**12)
        assert run[-1] == 10**12


DOT_LINE = re.compile(r'^(graph \{|\}|  "-?\d+/\d+";|  "-?\d+/\d+" -- "-?\d+/\d+";)$')


class TestDotExport:
    @staticmethod
    def two_pass_dot(center: Slope, radius: int, bound: int) -> str:
        """The ball from breadth_first, then every neighbors_bounded pair
        inside it as an edge."""
        ball = set()
        for v, level, _ in breadth_first(center, lambda u: neighbors_bounded(u, bound)):
            if level > radius:
                break
            ball.add(v)
        edges = {
            (min(v, u), max(v, u)) for v in ball for u in neighbors_bounded(v, bound) if u in ball
        }
        lines = ["graph {", *(f'  "{v}";' for v in sorted(ball))]
        lines += [f'  "{v}" -- "{u}";' for v, u in sorted(edges)]
        return "\n".join(lines + ["}"]) + "\n"

    def test_matches_the_two_pass_definition(self):
        for center in ("0/1", "1/0", "1/1", "3/2", "-5/7"):
            for radius in (-1, *range(9), 50):
                for bound in range(16):
                    args = (parse_slope(center), radius, bound)
                    assert export_dot(*args) == self.two_pass_dot(*args), args

    def test_radius_zero(self):
        text = export_dot(Slope(0, 1), 0, 5)
        assert text == 'graph {\n  "0/1";\n}\n'

    def test_only_vertices_below_the_radius_list_their_neighbors(self, monkeypatch):
        # the ball's last level is written without listing its neighbors
        center, bound = Slope(0, 1), 9
        listed = []

        def counting(s, b):
            listed.append(s)
            return neighbors_bounded(s, b)

        monkeypatch.setattr(graph, "neighbors_bounded", counting)
        for radius in range(5):
            listed.clear()
            assert export_dot(center, radius, bound) == self.two_pass_dot(center, radius, bound)
            ball = breadth_first(center, lambda u: neighbors_bounded(u, bound))
            assert listed == [v for v, level, _ in ball if level < radius], radius
            if radius < 2:
                assert listed == [center][:radius]

    def test_a_ball_of_the_listing_limit_prints_and_one_edge_more_is_refused(self, monkeypatch):
        # the limit is the certificates' MAX_PATH_EDGES: lowered to a
        # ball's own edge count the ball still prints, one below it refuses
        refused, limit = 0, curve_complex.MAX_PATH_EDGES
        for center in ("0/1", "1/0", "1/1", "3/2", "-5/7"):
            for radius in range(5):
                for bound in (2, 5, 6, 9, 15):
                    args = (parse_slope(center), radius, bound)
                    monkeypatch.setattr(curve_complex, "MAX_PATH_EDGES", limit)
                    text = export_dot(*args)
                    edges = text.count(" -- ")
                    monkeypatch.setattr(curve_complex, "MAX_PATH_EDGES", edges)
                    assert export_dot(*args) == text, args
                    if edges:
                        monkeypatch.setattr(curve_complex, "MAX_PATH_EDGES", edges - 1)
                        message = (f"^ball of radius {radius} around {center} within \\|p\\|, \\|q\\| <= {bound} "
                                   f"has more than {edges - 1} edges, too many to list$")
                        with pytest.raises(DomainError, match=message):
                            export_dot(*args)
                        refused += 1
        assert refused > 50

    def test_a_family_past_the_limit_is_refused_before_it_is_listed(self, monkeypatch):
        # 0/1 has the 10**12 neighbors (-2, q), q odd, |q| <= 10**12: the
        # range of their q alone refuses them
        def unlisted(s, b):
            pytest.fail(f"the neighbors of {s} within {b} were listed")

        monkeypatch.setattr(graph, "neighbors_bounded", unlisted)
        with pytest.raises(DomainError, match="^ball of radius 1 around 0/1 .* too many to list$"):
            export_dot(Slope(0, 1), 1, 10**12)
        # within |p|, |q| <= 8 0/1 has the 8 neighbors (-2, q), q odd, all
        # new: past a limit of 6 before one is listed
        monkeypatch.setattr(curve_complex, "MAX_PATH_EDGES", 6)
        with pytest.raises(DomainError, match="^ball of radius 1 around 0/1 .* more than 6 edges"):
            export_dot(Slope(0, 1), 1, 8)

    def test_star(self):
        text = export_dot(Slope(0, 1), 1, 3)
        assert '"0/1" -- "2/1";' in text
        assert '"-2/3" -- "0/1";' in text
        assert text.count("--") == 4

    def test_radius_past_the_bounded_component(self):
        # within |p|, |q| <= 2 the component of 0/1 is -2/1 -- 0/1 -- 2/1
        assert export_dot(Slope(0, 1), 50, 2) == export_dot(Slope(0, 1), 2, 2)

    def test_shape_is_valid_dot(self):
        text = export_dot(Slope(1, 0), 2, 8)
        lines = text.strip().split("\n")
        assert lines[0] == "graph {"
        assert lines[-1] == "}"
        for line in lines:
            assert DOT_LINE.match(line), line
        edges = [line for line in lines if "--" in line]
        assert len(edges) == len(set(edges))
