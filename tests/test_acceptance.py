"""Acceptance suite: one test per criterion, each at its stated scale.

Every criterion is exact (zero tolerance); each test prints a single
PASS/FAIL line, and the check's own line must be the one
`solnorm verify --level full` prints, so a change to what a check covers
fails here as well as in verify's output.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they complete,
or `solnorm verify --level full` for the same checks outside pytest.
"""

import random
import time

from solnorm import distance, distance_bfs
from solnorm.oracle import (
    CheckResult,
    check_bw_parity,
    check_closed_vs_orbit,
    check_conjugacy_criterion,
    check_geodesics,
    check_grid_agreement,
    check_h2_kernel,
    check_invariance,
    check_lens_invariance,
    check_nil_family,
    check_periodic_table,
    check_semibundle,
    slopes_within,
)


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


def report(number: int, result: CheckResult, extra: str = "") -> None:
    status = "PASS" if result.passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {result.name}: {result.detail}{extra}")
    assert result.passed, result.failures
    assert result.line() == FULL_LINES[number - 1]


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    result = check_grid_agreement(25)
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


def test_criterion_02_bredon_wood_parity():
    report(2, check_bw_parity(max_p=1000, per_p=10, seed=101))


def test_criterion_03_lens_invariance():
    report(3, check_lens_invariance(max_p=200))


def test_criterion_04_closed_form_vs_orbit():
    report(4, check_closed_vs_orbit(n_matrices=1000, max_word=12, alt_vertices=5, seed=102))


def test_criterion_05_periodic_table():
    report(5, check_periodic_table())


def test_criterion_06_nil_family():
    report(6, check_nil_family(max_n=48))


def test_criterion_07_semibundle_theorems():
    report(7, check_semibundle(samples=500, seed=103))


def test_criterion_08_conjugacy_warranty():
    report(8, check_conjugacy_criterion(entry_bound=20, conj_bound=30, negatives=500, seed=104))


def test_criterion_09_geodesic_soundness():
    report(9, check_geodesics(samples=500, coeff_bound=40, seed=105))


def test_criterion_10_invariance_suite():
    report(10, check_invariance(matrix_pairs=500, slope_tuples=1000, seed=106))


def test_criterion_11_h2_kernel():
    report(11, check_h2_kernel(samples=500, seed=107))
