"""Slopes, the matrix action, distances, geodesics, and DOT export."""

import math
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

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
)
from solnorm import curve_complex, oracle
from solnorm.curve_complex import IDENTITY, PARITY_BY_BITS, PARITY_CLASSES, breadth_first
from solnorm.errors import DomainError, ParseError


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
    """parse_matrix as it was before its one-pattern fast path: split on
    ";" and ",", then strip and check each cell."""
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


# Walks _walk could be forged to return from 0/1 toward 4/3, d(0/1, 4/3) = 2.
FORGED_WALKS = [
    [(2, 2), (4, 3)],  # intersection numbers 2, but 2/2 is not a slope
    [(2, 3), (4, 3)],  # reduced, right parity, but 2/3 and 4/3 meet 6 times
    [(2, 1), (4, 3), (2, 1)],  # one step too many
    [(2, 1)],  # stops short of 4/3
    [(2, 1), (-4, 3)],  # ends at the wrong vertex
]


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
        # exactly d, one pair per vertex past s1, in path order
        s1, s2 = mat_act(A, Slope(0, 1)), mat_act(A, t)
        _, x, y = ext_gcd(s1.p, s1.q)
        tp, tq = s1.q * s2.p - s1.p * s2.q, x * s2.p + y * s2.q
        d = bredon_wood(tp, tq)
        pairs = curve_complex._walk(y, s1.p, -x, s1.q, tp, tq, d + 5)
        assert type(pairs) is list and len(pairs) == d == distance(s1, s2)
        assert [Slope.of(p, q) for p, q in pairs] == geodesic(s1, s2)[1:]

    @pytest.mark.parametrize("extra", [-1, 1, 2])
    def test_walk_of_the_wrong_length_raises(self, monkeypatch, extra):
        # the walk stops where T = 0/1, so a longer one cannot reach N(T) + 1 vertices
        monkeypatch.setattr(curve_complex, "bredon_wood", lambda p, q: bredon_wood(p, q) + extra)
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(1, 0), Slope(1, 8))

    @pytest.mark.parametrize("vertices", FORGED_WALKS)
    def test_forged_walks_are_refused(self, monkeypatch, vertices):
        # geodesic checks every vertex _walk proposes; d(0/1, 4/3) = 2
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: iter(vertices))
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(0, 1), Slope(4, 3))

    @pytest.mark.parametrize("vertices", FORGED_WALKS)
    def test_forged_walk_lists_are_refused(self, monkeypatch, vertices):
        # the same walks returned as lists, as _walk returns them
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: list(vertices))
        with pytest.raises(AssertionError, match="left the tree path"):
            geodesic(Slope(0, 1), Slope(4, 3))

    def test_walk_signs_are_canonicalized(self, monkeypatch):
        walk = [(-2, -1), (4, 3)]
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: iter(walk))
        assert geodesic(Slope(0, 1), Slope(4, 3)) == [Slope(0, 1), Slope(2, 1), Slope(4, 3)]
        walk = [(-1, 0)]
        assert geodesic(Slope(1, 2), Slope(1, 0)) == [Slope(1, 2), Slope(1, 0)]


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
            for radius in (*range(9), 50):
                for bound in range(16):
                    args = (parse_slope(center), radius, bound)
                    assert export_dot(*args) == self.two_pass_dot(*args), args

    def test_radius_zero(self):
        text = export_dot(Slope(0, 1), 0, 5)
        assert text == 'graph {\n  "0/1";\n}\n'

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
