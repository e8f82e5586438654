"""Integer primitives: extended gcd, Bredon-Wood N."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import bredon_wood_flag_loop, continued_fraction_pair
from solnorm import INF, arith, bredon_wood, ext_gcd
from solnorm.arith import fmt_extnat
from solnorm.errors import DomainError


# operands up to 10**12, or up to about 14,300 bits, the size of the
# largest reports' N arguments
_OPERANDS = st.integers(-10**12, 10**12) | st.integers(-(2**14300), 2**14300)


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

    @given(_OPERANDS, _OPERANDS)
    # a zero entry (the modulus 1 case of the inverse), units of each sign,
    # a pair with gcd 2 and a negative first entry
    @example(0, 5)
    @example(0, -5)
    @example(4, 0)
    @example(-4, 0)
    @example(1, 1)
    @example(1, -1)
    @example(-1, 1)
    @example(-1, -1)
    @example(6, 4)
    @example(-8, 3)
    def test_bezout(self, p, q):
        if p == 0 and q == 0:
            return
        g, x, y = ext_gcd(p, q)
        assert g == math.gcd(p, q) > 0
        assert p * x + q * y == g


def _outcome(f, p: int, q: int):
    """f(p, q), or the type and message of what it raised."""
    try:
        return f(p, q)
    except (DomainError, AssertionError) as err:
        return type(err), str(err)


def _even_coprime(p: int, q: int) -> tuple[int, int]:
    """A coprime pair with an even first entry, made from the coprime pair
    (p, q): itself, (q, p), or (p + q, q) when p and q are both odd."""
    if p % 2 == 0:
        return p, q
    if q % 2 == 0:
        return q, p
    return p + q, q


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

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (0, 0, r"N\(0, 0\) is undefined"),
            (6, 0, r"N\(6, 0\) needs coprime arguments"),
            (3, 9, r"N\(3, 9\) needs coprime arguments"),
            # quotients 1, 2: an odd sum, refused as non-coprime first
            (6, 4, r"N\(6, 4\) needs coprime arguments"),
        ],
    )
    def test_error_messages(self, p, q, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            bredon_wood(p, q)
        with pytest.raises(DomainError, match=f"^{message}$"):
            bredon_wood_flag_loop(p, q)

    # a non-coprime pair whose message would print an argument over the
    # int-to-str digit limit: the odd branch, and the loop's gcd of 2
    @pytest.mark.parametrize("p, q", [(3 * 10**4400, 3), (2 * 10**4400, 4), (4, 2 * 10**4400)],
                             ids=["odd p", "even p", "even q"])
    def test_an_argument_over_the_digit_limit_is_a_domain_error(self, p, q):
        with pytest.raises(DomainError, match="^N argument over Python's int-digit limit: "):
            bredon_wood(p, q)

    @given(st.integers(-300, 300), st.integers(-300, 300))
    def test_matches_the_flag_loop_on_small_pairs(self, p, q):
        assert _outcome(bredon_wood, p, q) == _outcome(bredon_wood_flag_loop, p, q)

    @given(
        st.lists(
            st.one_of(st.integers(1, 9), st.integers(10**12 - 2**10, 10**12 + 2**10)),
            min_size=1,
            max_size=30,
        ),
        st.integers(0, 1),
        st.booleans(),
        st.booleans(),
    )
    def test_matches_the_flag_loop_on_huge_partial_quotients(self, terms, head, negate_p, negate_q):
        # the leading term may be 0 (|p| < |q|); every later one is >= 1
        p, q = _even_coprime(*continued_fraction_pair([head * terms[0]] + terms[1:]))
        if negate_p:
            p = -p
        if negate_q:
            q = -q
        assert bredon_wood(p, q) == bredon_wood_flag_loop(p, q) != INF

    # 10**4300 - 1, about 14,280 bits, is the largest int an error message
    # can print under the default int-to-str digit limit
    @settings(max_examples=20)
    @given(st.integers(1, 10**4300 - 1), st.integers(1, 10**4300 - 1))
    def test_matches_the_flag_loop_on_large_pairs(self, p, q):
        assert _outcome(bredon_wood, p, q) == _outcome(bredon_wood_flag_loop, p, q)
        g = math.gcd(p, q)
        p, q = _even_coprime(p // g, q // g)
        assert bredon_wood(p, q) == bredon_wood_flag_loop(p, q) != INF

    def test_big_integer_inputs(self):
        # exactness must survive past 64 bits
        p = 2 * 3 ** 50
        q = 3 ** 50 + 2  # gcd 1
        assert math.gcd(p, q) == 1
        value = bredon_wood(p, q)
        assert value % 2 == (p // 2) % 2


def test_bredon_wood_big_inputs_parity_and_lens():
    half = 7**80
    p = 2 * half
    for q in (half + 2, 3**150 + 4, 1):
        assert math.gcd(p, q) == 1
        n = bredon_wood(p, q)
        assert n % 2 == (p // 2) % 2
        assert bredon_wood(p, q + p) == n
        assert bredon_wood(p, -q) == n


def test_extnat_rendering():
    assert fmt_extnat(INF) == "inf"
    assert fmt_extnat(7) == "7"
