"""Integer primitives: extended gcd, Bredon-Wood N."""

import math

import pytest
from hypothesis import given, strategies as st

from solnorm import INF, arith, bredon_wood, ext_gcd
from solnorm.arith import fmt_extnat
from solnorm.errors import DomainError


class TestExtGcd:
    def test_identity_case(self):
        assert ext_gcd(1, 0) == (1, 1, 0)

    def test_example(self):
        g, x, y = ext_gcd(8, 3)
        assert g == 1
        assert 8 * x + 3 * y == 1

    def test_both_zero(self):
        with pytest.raises(DomainError, match="undefined gcd"):
            ext_gcd(0, 0)

    @given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
    def test_bezout(self, p, q):
        if p == 0 and q == 0:
            return
        g, x, y = ext_gcd(p, q)
        assert g == math.gcd(p, q) > 0
        assert p * x + q * y == g


class TestBredonWood:
    def test_zero_case(self):
        assert bredon_wood(0, 1) == 0
        assert bredon_wood(0, -1) == 0

    def test_odd_p_is_infinite(self):
        assert bredon_wood(3, 5) == INF
        assert bredon_wood(1, 0) == INF
        assert bredon_wood(-1, 0) == INF

    def test_examples(self):
        assert bredon_wood(8, 3) == 2  # b-sequence (2, 0, 2)
        assert bredon_wood(2, 1) == 1
        assert bredon_wood(4, 3) == 2  # b-sequence (1, 3)

    def test_sign_insensitive(self):
        for p, q in [(8, 3), (2, 1), (10, 7), (26, 15)]:
            assert bredon_wood(p, q) == bredon_wood(-p, q) == bredon_wood(p, -q) == bredon_wood(-p, -q)

    def test_errors(self):
        with pytest.raises(DomainError):
            bredon_wood(0, 0)
        with pytest.raises(DomainError):
            bredon_wood(4, 2)
        with pytest.raises(DomainError):
            bredon_wood(6, 0)  # gcd(6, 0) = 6

    def test_parity_law_sample(self):
        # N(p, q) = p/2 mod 2 for even p
        for p in range(2, 120, 2):
            for q in (1, 3, 7, p - 1, p + 1):
                if math.gcd(p, q) != 1:
                    continue
                assert bredon_wood(p, q) % 2 == (p // 2) % 2

    def test_lens_invariance_sample(self):
        for p in range(2, 60, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                n = bredon_wood(p, q)
                assert bredon_wood(p, q + p) == n
                assert bredon_wood(p, -q) == n
                assert bredon_wood(p, pow(q, -1, p)) == n

    def test_an_odd_b_sequence_sum_is_refused(self, monkeypatch):
        # with every quotient one too large, the b-sequence of (2, 1) is
        # (3): its sum is odd, which the closed form refuses
        monkeypatch.setattr(arith, "divmod", lambda a, b: (a // b + 1, a % b), raising=False)
        with pytest.raises(AssertionError, match=r"^odd b-sequence sum 3 for \(2, 1\)$"):
            bredon_wood(2, 1)

    def test_big_integer_inputs(self):
        # exactness must survive past 64 bits
        p = 2 * 3 ** 50
        q = 3 ** 50 + 2  # gcd 1
        assert math.gcd(p, q) == 1
        value = bredon_wood(p, q)
        assert value % 2 == (p // 2) % 2


def test_extnat_rendering():
    assert fmt_extnat(INF) == "inf"
    assert fmt_extnat(7) == "7"
