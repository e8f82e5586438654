"""Tree actions: the parity permutation, orbit vs closed-form lengths."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from solnorm import (
    INF,
    GL2Matrix,
    ParityClass,
    Slope,
    distance,
    mat_act,
    parity_of,
    parity_permutation,
    parse_matrix,
    translation_length_closed,
    translation_lengths,
)
from solnorm import tree_action
from solnorm.curve_complex import IDENTITY, PARITY_CLASSES
from solnorm.errors import DomainError
from solnorm.oracle import (
    ActionType,
    parity_permutation_by_action,
    random_glz,
    random_slope,
    translation_length_orbit,
)
from solnorm.tree_action import MOD2_PERMUTATIONS

P10 = ParityClass.ONE_ZERO
P01 = ParityClass.ZERO_ONE
P11 = ParityClass.ONE_ONE


class TestParityPermutation:
    def test_identity(self):
        perm = parity_permutation(IDENTITY)
        assert all(perm[cls] is cls for cls in ParityClass)

    def test_transposition(self):
        perm = parity_permutation(parse_matrix("1,1;0,1"))
        assert perm[P10] is P10
        assert perm[P01] is P11
        assert perm[P11] is P01

    def test_three_cycle(self):
        perm = parity_permutation(parse_matrix("1,1;1,0"))
        assert perm[P10] is not P10
        assert perm[perm[perm[P10]]] is P10
        assert len({perm[c] for c in ParityClass}) == 3

    def test_returns_a_fresh_dict(self):
        perm = parity_permutation(IDENTITY)
        perm[P10] = P01
        assert parity_permutation(IDENTITY)[P10] is P10

    def test_table_covers_the_invertible_matrices_mod_two(self):
        assert set(MOD2_PERMUTATIONS) == {
            (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 0), (0, 1, 1, 1),
        }
        for bits, perm in MOD2_PERMUTATIONS.items():
            assert perm == parity_permutation_by_action(GL2Matrix(*bits)), bits

    def test_members_hold_their_fields(self):
        for cls in ParityClass:
            j, k = cls.value
            assert (cls.j, cls.k) == (j, k)
            assert cls.label == f"{j}/{k}"
            assert cls.base_vertex == Slope(j, k)
            assert parity_of(cls.base_vertex) is cls
        for a in ParityClass:
            for b in ParityClass:
                assert (a == b) == (a is b)
                if a == b:
                    assert hash(a) == hash(b) == hash(ParityClass(b.value))


class TestOrbitMethod:
    def test_identity_rotation(self):
        for cls in ParityClass:
            data = translation_length_orbit(IDENTITY, cls)
            assert data.length == 0
            assert data.action is ActionType.ROTATION

    def test_shear_translation(self):
        data = translation_length_orbit(parse_matrix("1,0;2,1"), P10)
        assert data.length == 1
        assert data.action is ActionType.TRANSLATION

    def test_swap_fixes_diagonal(self):
        data = translation_length_orbit(parse_matrix("0,1;1,0"), P11)
        assert data.length == 0
        assert data.action is ActionType.ROTATION

    def test_quarter_turn_inverts_an_edge(self):
        # rows (0,-1) and (1,0): order 4, and an inversion on the 1/1 tree
        data = translation_length_orbit(GL2Matrix(0, -1, 1, 0), P11)
        assert data.length == 1
        assert data.action is ActionType.INVERSION

    def test_moved_class(self):
        data = translation_length_orbit(parse_matrix("1,1;1,0"), P10)
        assert data.length == INF
        assert data.action is ActionType.NOT_FIXED

    def test_wrong_base_vertex_rejected(self):
        with pytest.raises(DomainError):
            translation_length_orbit(IDENTITY, P10, Slope(0, 1))


class TestClosedForm:
    def test_even_shears(self):
        for n in (2, 4, 6, 10, 48):
            A = GL2Matrix(1, 0, n, 1)
            assert translation_length_closed(A, P10) == n // 2

    def test_identity_all_zero(self):
        for cls in ParityClass:
            assert translation_length_closed(IDENTITY, cls) == 0

    def test_swap(self):
        A = parse_matrix("0,1;1,0")
        assert translation_length_closed(A, P11) == 0
        assert translation_length_closed(A, P10) == INF
        assert translation_length_closed(A, P01) == INF

    def test_odd_shear_moves_one_zero(self):
        assert translation_length_closed(GL2Matrix(1, 0, 3, 1), P10) == INF

    def test_lengths_skip_exactly_the_moved_classes(self, monkeypatch):
        # translation_lengths reads the fixed classes off A mod 2 and runs
        # the closed form only on them; the closed form's own parity test
        # must give INF on every class it skips
        evaluated = []

        def recorded(A, cls):
            evaluated.append(cls)
            return translation_length_closed(A, cls)

        monkeypatch.setattr(tree_action, "translation_length_closed", recorded)
        seen = set()
        for i in range(300):
            A = random_glz(1300 + i, i % 19)
            expected = {cls: translation_length_closed(A, cls) for cls in PARITY_CLASSES}
            evaluated.clear()
            assert translation_lengths(A) == expected, A
            perm = MOD2_PERMUTATIONS[A.mod2()]
            assert evaluated == [cls for cls in PARITY_CLASSES if perm[cls] is cls], A
            seen.add((A.det(), A.mod2()))
        assert seen == {(det, bits) for det in (1, -1) for bits in MOD2_PERMUTATIONS}


class TestAgreement:
    def test_closed_equals_orbit_random(self):
        for i in range(250):
            A = random_glz(900 + i, i % 13)
            for cls in ParityClass:
                closed = translation_length_closed(A, cls)
                assert closed == translation_length_orbit(A, cls).length

    def test_base_point_independence(self):
        rng = random.Random(7)
        A = parse_matrix("3,2;4,3")
        for cls in ParityClass:
            expected = translation_length_closed(A, cls)
            for _ in range(10):
                v = random_slope(rng, 40, parity=cls)
                assert translation_length_orbit(A, cls, v).length == expected

    def test_minimality_at_random_vertices(self):
        rng = random.Random(8)
        A = parse_matrix("1,2;2,5")
        for cls in ParityClass:
            data = translation_length_orbit(A, cls)
            if data.length == INF:
                continue
            for _ in range(20):
                v = random_slope(rng, 30, parity=cls)
                assert distance(v, mat_act(A, v)) >= data.length

    def test_length_parity_matches_halved_column_data(self):
        # finite lengths inherit the parity of N-values of the orbit data,
        # N(p, q) = p/2 mod 2: l[1/0] = (b(a+d) - b)/2 mod 2, and so on
        for i in range(300):
            A = random_glz(1300 + i, i % 13)
            a, c, b, d = A.a, A.c, A.b, A.d
            data = {
                P10: (b * (a + d), b),
                P01: (c * (a + d), c),
                P11: ((b - a) * (a + c) + (d - c) * (b + d), b + d - a - c),
            }
            for cls, (u, v) in data.items():
                length = translation_length_closed(A, cls)
                if length == INF:
                    continue
                assert length % 2 == (abs(u) // 2 - abs(v) // 2) % 2

    def test_conjugation_covariance(self):
        for i in range(60):
            A = random_glz(500 + i, i % 11)
            P = random_glz(800 + i, i % 7)
            conj = P @ A @ P.inverse()
            perm = parity_permutation(P)
            for cls in ParityClass:
                assert translation_length_closed(A, cls) == translation_length_closed(
                    conj, perm[cls]
                )


class TestPowerLaw:
    """l(A^k) = k * l(A) for k >= 1 when A translates the tree of a class or
    fixes one of its vertices, and k mod 2 when A inverts an edge (Serre,
    Trees, I.6.4; Culler-Morgan, Proc. LMS 55 (1987), section 1).  The
    action type and l(A) come from the orbit reference on A's small
    entries, l(A^k) from the closed form on entries of up to thousands of
    digits, so N is checked at every size against the group action."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**48), st.integers(0, 12))
    def test_translation_length_of_a_power(self, seed, letters):
        A = random_glz(seed, letters)
        fixed = [translation_length_orbit(A, cls) for cls in ParityClass]
        fixed = [data for data in fixed if data.action is not ActionType.NOT_FIXED]
        # for a hyperbolic A, some k up to 64 takes the entries of A^k and
        # A^2k across 64 bits, and 400 and 3000 take distances past 1,000
        ks = [*range(1, 65), 400, 3000]
        powers = {k: A.power(k) for k in ks}
        for data in fixed:
            for k in ks:
                expected = k % 2 if data.action is ActionType.INVERSION else k * data.length
                assert translation_length_closed(powers[k], data.parity) == expected, (A, k, data)
