"""Seeded inputs for the three workloads, built without solnorm.

Matrices are tuples (a, c, b, d) for [[a, c], [b, d]], written "a,c;b,d"
as on solnorm's command line.  Everything here uses Python integers and
random.Random(seed) only, so a change to the program cannot change its
inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Matrix = tuple[int, int, int, int]

IDENTITY: Matrix = (1, 0, 0, 1)
# The shears, their inverses and the orientation-reversing flip.
GENERATORS: tuple[Matrix, ...] = (
    (1, 1, 0, 1),
    (1, -1, 0, 1),
    (1, 0, 1, 1),
    (1, 0, -1, 1),
    (1, 0, 0, -1),
)
# Generators of the level-2 congruence subgroup: every word in them is the
# identity mod 2, so it fixes all three parity classes and its report
# builds all three certificates.
LEVEL2: tuple[Matrix, ...] = ((1, 2, 0, 1), (1, -2, 0, 1), (1, 0, 2, 1), (1, 0, -2, 1))
# Q = (1,2;0,1)(1,0;2,1) translates along an axis in every parity tree,
# with lengths l[1/0] = l[0/1] = 1 and l[1/1] = 2, so Q^k has k, k, 2k.
Q: Matrix = (5, 2, 2, 1)


def mul(x: Matrix, y: Matrix) -> Matrix:
    a, c, b, d = x
    e, g, f, h = y
    return (a * e + c * f, a * g + c * h, b * e + d * f, b * g + d * h)


def det(m: Matrix) -> int:
    return m[0] * m[3] - m[1] * m[2]


def inverse(m: Matrix) -> Matrix:
    a, c, b, d = m
    e = det(m)
    return (e * d, -e * c, -e * b, e * a)


def power(m: Matrix, n: int) -> Matrix:
    result, base = IDENTITY, m
    while n:
        if n & 1:
            result = mul(result, base)
        base = mul(base, base)
        n >>= 1
    return result


def act(m: Matrix, p: int, q: int) -> tuple[int, int]:
    """Image of the slope p/q, as a canonical pair (q > 0, or (1, 0))."""
    a, c, b, d = m
    return canonical(a * p + c * q, b * p + d * q)


def canonical(p: int, q: int) -> tuple[int, int]:
    if q < 0 or (q == 0 and p < 0):
        return -p, -q
    return p, q


def text(m: Matrix) -> str:
    return f"{m[0]},{m[1]};{m[2]},{m[3]}"


def random_word(rng: random.Random, length: int, letters: tuple[Matrix, ...] = GENERATORS) -> Matrix:
    result = IDENTITY
    for _ in range(length):
        result = mul(result, rng.choice(letters))
    return result


def random_sol(rng: random.Random, lo: int, hi: int, letters: tuple[Matrix, ...] = GENERATORS) -> Matrix:
    """A random word of length lo..hi acting as an Anosov map: det 1 and
    |trace| > 2, or det -1 and trace != 0."""
    while True:
        m = random_word(rng, rng.randint(lo, hi), letters)
        t = m[0] + m[3]
        if (det(m) == 1 and abs(t) > 2) or (det(m) == -1 and t != 0):
            return m


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------

# Groups of 4 lines per file: 200 to 1000 rows, 4700 per round.  The sizes
# form a ladder, so the median command is the middle file, 12% from its
# neighbours, and the tail falls among the samples of the largest file,
# 39% above the next.  With files of equal size both percentiles would fall
# where files overlap, and pick up single noisy commands.
CENSUS_GROUPS = (50, 70, 90, 110, 125, 140, 160, 180, 250)
CENSUS_MAX_WORD = 40
CENSUS_MAX_CONJUGATOR = 8


@dataclass(frozen=True)
class CensusFile:
    lines: tuple[tuple[str, Matrix], ...]  # (kind, matrix) in file order
    groups: tuple[tuple[int, int, int], ...]  # row indices of A, P A P^-1, A^-1

    def text(self) -> str:
        return "".join(f"{kind} {text(m)}\n" for kind, m in self.lines)


def census_files(seed: int) -> list[CensusFile]:
    """Each group is a bundle A, a seeded conjugate P A P^-1, the inverse
    A^-1, and one semibundle line; word lengths are uniform in 0..40."""
    rng = random.Random(f"census:{seed}")
    files = []
    for size in CENSUS_GROUPS:
        lines: list[tuple[str, Matrix]] = []
        groups = []
        for _ in range(size):
            a = random_word(rng, rng.randint(0, CENSUS_MAX_WORD))
            p = random_word(rng, rng.randint(1, CENSUS_MAX_CONJUGATOR))
            base = len(lines)
            lines.append(("bundle", a))
            lines.append(("bundle", mul(mul(p, a), inverse(p))))
            lines.append(("bundle", inverse(a)))
            lines.append(("semibundle", random_word(rng, rng.randint(0, CENSUS_MAX_WORD))))
            groups.append((base, base + 1, base + 2))
        files.append(CensusFile(tuple(lines), tuple(groups)))
    return files


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReportInput:
    family: str
    kind: str  # "bundle" or "semibundle"
    matrix: Matrix
    cap: int | None = None  # --certificate-cap, when not the default
    related: int | None = None  # index of the input this one is checked against
    power: int | None = None  # k for Q^k


def _jitter(rng: random.Random, centre: int, spread: float = 0.02) -> int:
    return max(1, round(centre * (1 + rng.uniform(-spread, spread))))


# Cost ladders: each costly family has a few size levels with +-2% jitter,
# and the shape that sets a report's cost (signs, kind, the parity classes
# a matrix fixes) is the same on every seed.  So a round costs about the
# same on every seed, and the order of the levels, which decides where the
# latency percentiles fall, does not change with the seed.
SHEAR_LEVELS = ((600, 1, "bundle"), (3000, -1, "semibundle"), (8000, -1, "bundle"),
                (16000, 1, "semibundle"))
CONJUGATOR_POWERS = (15, 30, 60, 120)  # Q^k R: about 75, 150, 300, 609 bits
# The two top semibundle levels cost about what Q^180 costs: with the
# 609-bit conjugate above them they form the block of about 20 reports per
# run in which latency_tail_ms falls, so the tail is a quantile of many
# similar reports rather than the extreme of a few.
SEMIBUNDLE_LEVELS = (2000, 20000, 75000, 75000)
POWER_LEVELS = (20, 60, 120, 180)
ELIDED_POWERS = (30, 45)
ORDINARY = 80


def report_inputs(seed: int) -> list[ReportInput]:
    """The seeded mix of one round; each input is reported as text and as JSON."""
    rng = random.Random(f"reports:{seed}")
    out: list[ReportInput] = []
    for n, sign, kind in SHEAR_LEVELS:
        n = 4 * (_jitter(rng, n) // 4) + 2  # identity mod 2, and odd norm n/2
        out.append(ReportInput("shear", kind, (sign, 0, n, sign)))
    for k in CONJUGATOR_POWERS:
        while True:
            s = random_sol(rng, 2, 4, LEVEL2)
            p = mul(power(Q, k + rng.randint(-1, 1)), random_word(rng, rng.randint(1, 3), LEVEL2))
            conj = mul(mul(p, s), inverse(p))
            # Q^k moves each entry by about 2.5 bits per power on either
            # side; a smaller result means s nearly commutes with Q
            if max(abs(x) for x in conj).bit_length() >= 4 * k:
                break
        out.append(ReportInput("conjugated", "bundle", s))
        out.append(ReportInput("conjugate", "bundle", conj, related=len(out) - 1))
    for k in SEMIBUNDLE_LEVELS:
        k = _jitter(rng, k)
        out.append(ReportInput("semibundle", "semibundle", (2 * k + 1, k, 2, 1)))
    out.append(ReportInput("power", "bundle", Q, power=1))
    base = len(out) - 1
    for k in POWER_LEVELS:
        k = _jitter(rng, k)
        out.append(ReportInput("power", "bundle", power(Q, k), related=base, power=k))
    for k in ELIDED_POWERS:
        k = _jitter(rng, k)
        # l[1/1] = 2k exceeds the cap and is elided; l[1/0] = l[0/1] = k are not
        out.append(ReportInput("elided", "bundle", power(Q, k), cap=k, related=base, power=k))
    for i in range(ORDINARY):
        kind = ("bundle", "semibundle")[i % 2]
        out.append(ReportInput("ordinary", kind, random_sol(rng, 15, 25)))
    return out


def report_argv(item: ReportInput, as_json: bool) -> list[str]:
    argv = [item.kind, f"--matrix={text(item.matrix)}"]
    if item.cap is not None:
        argv.append(f"--certificate-cap={item.cap}")
    if as_json:
        argv.append("--json")
    return argv


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


def count_trace_minus_two(bound: int) -> int:
    """Number of det-1, trace -2 matrices with all entries in [-bound, bound]."""
    count = 0
    for a in range(-bound, bound + 1):
        d = -2 - a
        if abs(d) > bound:
            continue
        bc = a * d - 1
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if b * c == bc:
                    count += 1
    return count
