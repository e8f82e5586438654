"""Acceptance suite: one test per criterion, each at its stated scale.

Criterion n runs the nth row of verify's own schedule, oracle.SCHEDULE,
with the arguments of its full column, as `solnorm verify --level full`
does.  Every criterion is exact (zero tolerance); each test prints a
single PASS/FAIL line, and the check's line must be the one verify prints,
so a change to what a check covers or to the arguments verify gives it
fails here as well as in verify's output.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete, or `solnorm verify --level full` for the same checks outside
pytest.
"""

import random
import time

import pytest

from solnorm import distance, distance_bfs
from solnorm.oracle import SCHEDULE, CheckResult, slopes_within


# The lines of `solnorm verify --level full`, one per criterion, in order.
FULL_LINES = [
    "PASS  grid agreement: 213414 BFS-reachable pairs within |p|,|q| <= 25, 0 mismatches",
    "PASS  Bredon-Wood parity: 10000 pairs with |p| <= 1000, 0 parity violations",
    "PASS  lens invariance: 4081 (p, q) with even p <= 200, 0 violations",
    "PASS  closed form vs orbit: 9335 comparisons over 1000 matrices, 0 mismatches",
    "PASS  periodic table: 7 classes checked, 0 errors",
    "PASS  Nil family: n = 1..48, 0 errors",
    "PASS  semi-bundle theorems: 500 gluings, 0 errors",
    "PASS  conjugacy criterion: 245 trace -2 matrices (entries <= 20) conjugated, "
    "500 other-trace matrices never reached the form; 0 errors",
    "PASS  geodesic soundness: 500 same-parity pairs with |p|,|q| <= 40, 0 errors",
    "PASS  invariance suite: 500 matrix pairs and 1000 slope tuples, 0 errors",
    "PASS  H2 kernel cross-check: 500 matrices, 0 errors",
]


def full_check(number: int) -> CheckResult:
    """The result of criterion number's check at the full level."""
    check, _, full, *_ = SCHEDULE[number - 1]
    return check(*full)


def report(number: int, result: CheckResult, extra: str = "") -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {result.name}: {result.detail}{extra}")
    assert result.passed, result.failures
    assert result.line() == FULL_LINES[number - 1]


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    result = full_check(1)
    # also exercise the per-pair oracle entry point on a seeded sample
    rng = random.Random(1)
    slopes = slopes_within(25)
    for _ in range(200):
        s1, s2 = rng.choice(slopes), rng.choice(slopes)
        bfs = distance_bfs(s1, s2, 25)
        if bfs != "unknown":
            assert distance(s1, s2) == bfs, (s1, s2)
    elapsed = time.perf_counter() - start
    report(1, result, f" [{elapsed:.1f}s]")
    assert elapsed < 300


# criteria 2 to 11 are verify's own schedule, SCHEDULE[1:], as it runs them
@pytest.mark.parametrize("number", range(2, len(SCHEDULE) + 1), ids="{:02d}".format)
def test_criterion(number):
    report(number, full_check(number))
