"""Exact integer primitives: extended gcd and the Bredon-Wood invariant
N(p, q).

N(p, q) is the minimal genus of a non-orientable closed surface embeddable
in the lens space L(p, q) (Bredon & Wood, 1969).  It is infinite when p is
odd, zero when p = 0, and otherwise half the sum of a "b-sequence" derived
from the canonical continued fraction of |p|/|q|.  The same number is the
distance from 0/1 to p/q in the intersection-number-2 curve complex of the
torus, which is what the rest of the package uses it for.  Its one Euclid
loop takes each kept continued-fraction term together with the zeroed term
that may follow it, and its last nonzero remainder is the gcd that the
coprimality test needs.

All arithmetic is exact.  Distances, genera and translation lengths may be
infinite; infinity is represented by math.inf, which compares correctly
against Python ints.  Only comparisons and min() are ever applied to
possibly-infinite values.
"""

from __future__ import annotations

import math

from .errors import DomainError, int_text

INF = math.inf

# A natural number, or INF.
ExtNat = int | float


def is_finite(value: ExtNat) -> bool:
    return value != INF


def fmt_extnat(value: ExtNat) -> str:
    """Render an ExtNat for text output; infinity prints as "inf"."""
    return "inf" if value == INF else str(value)


def ext_gcd(p: int, q: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(|p|, |q|) > 0 and p*x + q*y = g.

    Raises DomainError on (0, 0), where the gcd is undefined.
    """
    if p == 0 and q == 0:
        raise DomainError("undefined gcd: both inputs are zero")
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = p, q
    while next_g:
        quot = g // next_g
        x, next_x = next_x, x - quot * next_x
        y, next_y = next_y, y - quot * next_y
        g, next_g = next_g, g - quot * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def _not_coprime(p: int, q: int) -> DomainError:
    """The error "N(p, q) needs coprime arguments".  An argument over
    Python's int-digit limit raises DomainError naming it instead."""
    return DomainError(f"N({int_text(p, 'N argument')}, {int_text(q, 'N argument')}) needs coprime arguments")


def bredon_wood(p: int, q: int) -> ExtNat:
    """The Bredon-Wood invariant N(p, q).

    Conventions: N is infinite when p is odd, N(0, +-1) = 0, and N is
    insensitive to the signs of p and q.  Requires gcd(|p|, |q|) = 1 with
    gcd(k, 0) = |k|, so (+-1, 0) is legal (and gives infinity) while any
    even p with q = 0 is rejected.

    For even p the Euclid loop below is also the coprimality test: its
    last nonzero remainder, left in P, is gcd(|p|, |q|), and P = 0 only
    for (0, 0).  Only odd p, whose N needs no loop, calls math.gcd.
    """
    if p & 1:
        if math.gcd(p, q) != 1:
            raise _not_coprime(p, q)
        return INF
    # Half-sum of the b-sequence: it keeps a continued-fraction term when
    # the previous term was zeroed or the running sum is odd, and zeroes it
    # otherwise; the total is always even.  So each pass takes one kept
    # quotient and, when the sum is then even, steps over the zeroed
    # quotient after it with a bare remainder.  The first quotient (0 when
    # |p| < |q|, as for p = 0) is always kept.
    P, Q = abs(p), abs(q)
    total = 0
    while Q:
        a, r = divmod(P, Q)
        total += a
        if r and not total & 1:
            P, Q = r, Q % r
        else:
            P, Q = Q, r
    if P != 1:
        if P == 0:
            raise DomainError("N(0, 0) is undefined")
        raise _not_coprime(p, q)
    if total & 1:
        raise AssertionError(f"odd b-sequence sum {total} for ({p}, {q})")
    return total >> 1
