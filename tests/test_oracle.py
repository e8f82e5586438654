"""The brute-force oracles themselves: generators, conjugator search,
four-point condition, geodesic search."""

import pytest

from solnorm import Slope, geodesic, parity_of, parse_matrix
from solnorm.curve_complex import IDENTITY
from solnorm.errors import DomainError
from solnorm.oracle import (
    brute_conjugate_to_meg_form,
    check_four_point,
    geodesic_by_search,
    iter_trace_minus_two,
    random_glz,
    slopes_within,
)


class TestRandomMatrices:
    def test_word_zero_is_identity(self):
        assert random_glz(1, 0) == IDENTITY

    def test_deterministic(self):
        assert random_glz(12345, 5) == random_glz(12345, 5)

    def test_all_unimodular(self):
        for i in range(1000):
            A = random_glz(i, 8)
            assert A.det() in (1, -1)


class TestBruteConjugate:
    def test_bad_bound(self):
        with pytest.raises(DomainError):
            brute_conjugate_to_meg_form(IDENTITY, 0)

    def test_meg_form_search(self):
        found = brute_conjugate_to_meg_form(parse_matrix("-1,0;7,-1"), 2)
        assert found is not None
        A = parse_matrix("1,4;-1,-3")  # trace -2, det 1
        P = brute_conjugate_to_meg_form(A, 10)
        assert P is not None
        M = P @ A @ P.inverse()
        assert (M.a, M.c, M.d) == (-1, 0, -1)

    def test_meg_form_never_for_other_trace(self):
        assert brute_conjugate_to_meg_form(parse_matrix("2,1;1,1"), 6) is None


def test_trace_minus_two_enumeration():
    seen = set()
    for A in iter_trace_minus_two(6):
        assert A.det() == 1 and A.trace() == -2
        assert max(abs(e) for e in (A.a, A.c, A.b, A.d)) <= 6
        seen.add((A.a, A.c, A.b, A.d))
    # brute-force the same set directly
    brute = {
        (a, c, b, d)
        for a in range(-6, 7)
        for b in range(-6, 7)
        for c in range(-6, 7)
        for d in range(-6, 7)
        if a + d == -2 and a * d - b * c == 1
    }
    assert seen == brute


class TestFourPoint:
    def test_degenerate(self):
        s = Slope(2, 1)
        assert check_four_point((s, s, s, s))

    def test_example(self):
        quad = (Slope(0, 1), Slope(2, 1), Slope(4, 1), Slope(4, 3))
        assert check_four_point(quad)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(DomainError):
            check_four_point((Slope(0, 1), Slope(0, 1), Slope(0, 1), Slope(1, 0)))


def test_slopes_within():
    slopes = slopes_within(3)
    assert Slope(1, 0) in slopes
    assert len(slopes) == len(set(slopes))
    for s in slopes:
        assert abs(s.p) <= 3 and abs(s.q) <= 3
    # canonical coprime count for the 3-box, frozen: 1/0, then q = 1, 2, 3
    assert len(slopes) == 1 + 7 + 4 + 4


def test_geodesic_matches_search_on_grid():
    slopes = slopes_within(12)
    for s1 in slopes:
        for s2 in slopes:
            if parity_of(s1) is parity_of(s2):
                assert geodesic(s1, s2) == geodesic_by_search(s1, s2), (s1, s2)
