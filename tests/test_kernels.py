"""The two hot loops against plain references: the filtered conjugator scan
to the meg form against a walk over every unimodular matrix in the box, and
the Bredon-Wood half-sum on inputs far past 64 bits."""

import math

from solnorm import oracle
from solnorm.arith import bredon_wood
from solnorm.curve_complex import GL2Matrix

SMALL = [GL2Matrix(*m) for m in oracle.iter_unimodular(4)]  # the 360 with entries <= 4


def first_hit(A, accept, bound):
    """The first P of iter_unimodular(bound) with accept(P A P^-1)."""
    for w, x, y, z in oracle.iter_unimodular(bound):
        P = GL2Matrix(w, x, y, z)
        if accept(P @ A @ P.inverse()):
            return P
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


def test_meg_scan_returns_the_first_hit():
    def meg_form(M):
        return (M.a, M.c, M.d) == (-1, 0, -1)

    assert len(SMALL) == 360
    hits = 0
    for bound, matrices in ((1, SMALL), (3, SMALL), (6, SMALL[::4])):
        for A in matrices:
            expected = first_hit(A, meg_form, bound)
            assert oracle.brute_conjugate_to_meg_form(A, bound) == expected, (A, bound)
            hits += expected is not None
    assert hits > 0


def test_bredon_wood_big_inputs_parity_and_lens():
    half = 7**80
    p = 2 * half
    for q in (half + 2, 3**150 + 4, 1):
        assert math.gcd(p, q) == 1
        n = bredon_wood(p, q)
        assert n % 2 == (p // 2) % 2
        assert bredon_wood(p, q + p) == n
        assert bredon_wood(p, -q) == n
