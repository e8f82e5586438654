"""The two hot loops against plain references: the solved conjugator scan
to the meg form against a walk over every unimodular matrix in the box, and
the Bredon-Wood half-sum against the b-sequence loop it replaced, on inputs
far past 64 bits."""

import math
import random

from hypothesis import given, strategies as st

from solnorm import oracle
from solnorm.arith import INF, bredon_wood
from solnorm.curve_complex import GL2Matrix

SMALL = [GL2Matrix(*m) for m in oracle.iter_unimodular(4)]  # the 360 with entries <= 4


def first_hit(A, accept, bound):
    """The first P = (w, x; y, z) of iter_unimodular(bound) with accept(M),
    where M = P A P^-1 as the tuple (a, c, b, d), on plain integers."""
    a, c, b, d = A.a, A.c, A.b, A.d
    for w, x, y, z in oracle.iter_unimodular(bound):
        e = w * z - x * y  # +-1, so P^-1 = e * (z, -x; -y, w)
        M = (
            e * (z * (w * a + x * b) - y * (w * c + x * d)),
            e * (w * (w * c + x * d) - x * (w * a + x * b)),
            e * (z * (y * a + z * b) - y * (y * c + z * d)),
            e * (w * (y * c + z * d) - x * (y * a + z * b)),
        )
        if accept(M):
            return GL2Matrix(w, x, y, z)
    return None


def test_unimodular_enumeration_is_complete():
    bound = 3
    enumerated = set(oracle.iter_unimodular(bound))
    brute = {
        (w, x, y, z)
        for w in range(-bound, bound + 1)
        for x in range(-bound, bound + 1)
        for y in range(-bound, bound + 1)
        for z in range(-bound, bound + 1)
        if w * z - x * y in (1, -1)
    }
    assert enumerated == brute
    assert len(enumerated) == len(list(oracle.iter_unimodular(bound)))


def meg_form(M):
    a, c, _, d = M
    return a == -1 and c == 0 and d == -1


def test_meg_scan_returns_the_first_hit():
    assert len(SMALL) == 360
    hits = 0
    for bound, matrices in ((1, SMALL), (3, SMALL), (6, SMALL[::4])):
        for A in matrices:
            expected = first_hit(A, meg_form, bound)
            assert oracle.brute_conjugate_to_meg_form(A, bound) == expected, (A, bound)
            hits += expected is not None
    assert hits > 0


def test_meg_scan_with_b_zero():
    """b = 0 leaves the first equation w(a + 1) = 0 without an x to solve
    for: every x when a = -1 (with -I every row passes both equations),
    none for w != 0 otherwise."""
    cases = [GL2Matrix(-1, 0, 0, -1), GL2Matrix(1, 0, 0, 1), GL2Matrix(1, 0, 0, -1), GL2Matrix(-1, 0, 0, 1)]
    for k in (-7, -2, -1, 1, 4):
        cases += [GL2Matrix(-1, k, 0, -1), GL2Matrix(1, k, 0, 1)]
    hits = 0
    for bound in range(1, 9):
        for A in cases:
            expected = first_hit(A, meg_form, bound)
            assert oracle.brute_conjugate_to_meg_form(A, bound) == expected, (A, bound)
            hits += expected is not None
    assert hits >= 8 * 6  # -I and the five (-1, k; 0, -1) at every bound


def test_meg_scan_on_seeded_matrices():
    rng = random.Random(1301)
    others = []
    while len(others) < 8:
        A = oracle.random_matrix(rng, 10)
        if max(abs(A.a), abs(A.b), abs(A.c), abs(A.d)) <= 12:
            others.append(A)
    trace_minus_two = rng.sample(list(oracle.iter_trace_minus_two(12)), 8)
    hits = 0
    for A in others + trace_minus_two:
        expected = first_hit(A, meg_form, 10)
        assert oracle.brute_conjugate_to_meg_form(A, 10) == expected, A
        hits += expected is not None
    assert hits >= 4


def bredon_wood_reference(p, q):
    """N(p, q) by the b-sequence loop with the previous term and its b-value
    as state, for coprime (p, q)."""
    if p % 2:
        return INF
    if p == 0:
        return 0
    P, Q = abs(p), abs(q)
    total = 0
    prev_a = prev_b = None
    while Q:
        a, r = divmod(P, Q)
        if prev_a is None or prev_b != prev_a or total % 2 == 1:
            b = a
        else:
            b = 0
        total += b
        prev_a, prev_b = a, b
        P, Q = Q, r
    assert total % 2 == 0
    return total // 2


def from_quotients(quotients):
    """(p, q) with p/q = [a0; a1, ..., an], a coprime pair."""
    p, q = 1, 0
    for a in reversed(quotients):
        p, q = a * p + q, p
    return p, q


@st.composite
def coprime_pairs(draw):
    """Coprime pairs with a first quotient of 0 (|p| < |q|), partial
    quotients near 10**12, or entries up to 5,000 bits, of either sign."""
    kind = draw(st.sampled_from(("quotients", "huge quotients", "bits")))
    if kind == "bits":
        p = draw(st.integers(0, 2**5000))
        q = draw(st.integers(1, 2**5000))
        g = math.gcd(p, q)
        p, q = p // g, q // g
    else:
        big = 10**12
        term = st.integers(1, 50) if kind == "quotients" else st.integers(big - 50, big + 50)
        first = draw(st.integers(0, 3) | term)
        p, q = from_quotients([first] + draw(st.lists(term | st.integers(1, 3), max_size=40)))
    if draw(st.booleans()):
        p *= 2 // math.gcd(2, q)  # even p, still coprime to q
    return draw(st.sampled_from((1, -1))) * p, draw(st.sampled_from((1, -1))) * q


@given(coprime_pairs())
def test_bredon_wood_matches_the_reference_loop(pair):
    p, q = pair
    if (p, q) == (0, 0):
        return
    assert bredon_wood(p, q) == bredon_wood_reference(p, q)


def test_bredon_wood_big_inputs_parity_and_lens():
    half = 7**80
    p = 2 * half
    for q in (half + 2, 3**150 + 4, 1):
        assert math.gcd(p, q) == 1
        n = bredon_wood(p, q)
        assert n % 2 == (p // 2) % 2
        assert bredon_wood(p, q + p) == n
        assert bredon_wood(p, -q) == n
