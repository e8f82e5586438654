"""The brute-force oracles themselves: generators, conjugator search (the
solved scan to the meg form against a walk over every unimodular matrix in
the box), four-point condition, the checks' failure branches, the work
the checks do, and the runner that spreads them over processes."""

import math
import os
import random
import re
import time

import pytest

from solnorm import INF, ParityClass, Slope, bundle, geodesic, oracle, parity_of, parse_matrix, semibundle
from solnorm.curve_complex import IDENTITY, GL2Matrix, distances_from
from solnorm.errors import DomainError
from solnorm.graph import breadth_first, neighbors_bounded
from solnorm.oracle import (
    PERIODIC_REPRESENTATIVES,
    brute_conjugate_to_meg_form,
    check_four_point,
    iter_trace_minus_two,
    order_by_powers,
    random_glz,
    random_slope,
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


def random_glz_by_products(seed, word_length):
    """random_glz as it was written with GL2Matrix products: the stream reference."""
    rng = random.Random(seed)
    result = IDENTITY
    for _ in range(word_length):
        result = result @ rng.choice(oracle.GENERATORS)
    return result


def test_random_glz_keeps_the_product_stream():
    for seed in (0, 7, 102, 2026, 2**47 + 5):
        for length in (0, 1, 2, 5, 12, 40):
            assert random_glz(seed, length) == random_glz_by_products(seed, length), (seed, length)


def random_slope_by_randint(rng, bound, parity=None):
    """random_slope as it was written with rng.randint: the stream reference."""
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        if (p, q) == (0, 0) or math.gcd(p, q) != 1:
            continue
        if parity is not None and (p % 2, q % 2) != (parity.j, parity.k):
            continue
        return Slope.of(p, q)


class BoundedRandom(random.Random):
    """A Random whose getrandbits fails after CALLS calls: a rejection loop
    that never accepts a draw fails an assertion instead of running on."""

    CALLS = 10_000  # 40 draws take at most 774 calls in the test below

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        if self.calls > self.CALLS:
            raise AssertionError(f"getrandbits called more than {self.CALLS} times")
        return super().getrandbits(k)


def test_random_slope_keeps_the_randint_stream():
    for seed in (0, 7, 106, 2026):
        for bound in (1, 3, 25, 40):
            for parity in (None, *ParityClass):
                new, old = BoundedRandom(seed), random.Random(seed)
                drawn = [random_slope(new, bound, parity) for _ in range(40)]
                assert drawn == [random_slope_by_randint(old, bound, parity) for _ in range(40)]
                assert new.getstate() == old.getstate(), (seed, bound, parity)
                if parity is not None:
                    assert all(parity_of(s) is parity for s in drawn)


class ConstantRandom(random.Random):
    """A forged Random whose getrandbits always returns 0, so random_slope
    draws the pair (-bound, -bound) every time."""

    def __init__(self):
        super().__init__(0)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return 0


def test_random_slope_gives_up_after_its_draw_budget():
    # (-1, -1) has class 1/1, so a 0/1 draw never succeeds; bound 0 leaves
    # only 0/0, which is no slope of any class
    for bound, parity, wanted in ((1, ParityClass.ZERO_ONE, "slope of class 0/1"), (0, None, "slope")):
        rng = ConstantRandom()
        message = f"{oracle.SLOPE_DRAWS} pairs in [-{bound}, {bound}] held no {wanted}"
        with pytest.raises(AssertionError, match=re.escape(message)):
            random_slope(rng, bound, parity)
        assert rng.calls == 2 * oracle.SLOPE_DRAWS
    assert random_slope(ConstantRandom(), 1, ParityClass.ONE_ONE) == Slope(1, 1)  # -1/-1


def test_order_by_powers_matches_power():
    def reference(A):
        return next((k for k in (1, 2, 3, 4, 6) if A.power(k) == IDENTITY), INF)

    rng = random.Random(1302)
    words = [oracle.random_matrix(rng, 12) for _ in range(300)]
    periodic = list(PERIODIC_REPRESENTATIVES.values())
    for A in periodic + [P @ A @ P.inverse() for A in periodic for P in words[:20]] + words:
        assert order_by_powers(A) == reference(A), A
    assert {order_by_powers(A) for A in periodic} == {1, 2, 3, 4, 6}


def count_summaries(monkeypatch, module, name_in_oracle):
    """Route every call of module.summary, the one oracle binds included,
    through a recorder; returns the list of matrices summarized."""
    seen = []
    plain = module.summary

    def recording(A):
        seen.append(A)
        return plain(A)

    monkeypatch.setattr(module, "summary", recording)
    monkeypatch.setattr(oracle, name_in_oracle, recording)
    return seen


def test_invariance_check_builds_one_summary_per_matrix(monkeypatch):
    bundles = count_summaries(monkeypatch, bundle, "summary")
    semis = count_summaries(monkeypatch, semibundle, "semi_summary")
    pairs, seed = 20, 1303
    assert oracle.check_invariance(pairs, 0, seed=seed).passed
    rng = random.Random(seed)  # the check's own draws: with no slope tuples, two per pair
    triples = []
    for _ in range(pairs):
        A, P = oracle.random_matrix(rng, 10), oracle.random_matrix(rng, 8)
        triples.append((A, P @ A @ P.inverse(), A.inverse()))
    distinct = {M for triple in triples for M in triple}
    assert len(distinct) < 3 * pairs  # the seed has coinciding matrices
    assert sorted(bundles, key=str) == sorted(distinct, key=str)
    assert sorted(semis, key=str) == sorted({M for A, _, inv in triples for M in (A, inv)}, key=str)


def test_semibundle_check_builds_one_summary_per_matrix(monkeypatch):
    semis = count_summaries(monkeypatch, semibundle, "semi_summary")
    samples, seed = 60, 1304
    assert oracle.check_semibundle(samples, seed=seed).passed
    gluings = [random_glz(seed + i, i % 13) for i in range(samples)]
    assert len(set(gluings)) < samples  # the empty word recurs every 13 samples
    assert sorted(semis, key=str) == sorted(set(gluings), key=str)


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


def test_geodesic_is_the_breadth_first_tree_path():
    # the 12-box holds one component per class, so the breadth-first
    # parents inside it give the tree path between every same-parity pair
    slopes = slopes_within(12)
    adjacency = {s: neighbors_bounded(s, 12) for s in slopes}
    for s1 in slopes:
        parent = {v: up for v, _, up in breadth_first(s1, adjacency.__getitem__)}
        for s2 in slopes:
            if parity_of(s1) is not parity_of(s2):
                continue
            path = [s2]
            while path[-1] != s1:
                path.append(parent[path[-1]])
            assert geodesic(s1, s2) == path[::-1], (s1, s2)


def test_grid_check_refuses_a_component_that_is_not_a_tree(monkeypatch):
    # 2/1 and -2/1 meet four times; an edge between them closes a cycle
    # through 0/1, and an edge listed from one end only breaks the count
    u, w = Slope(2, 1), Slope(-2, 1)

    def with_extra_edge(ends):
        def neighbors(s, bound):
            return neighbors_bounded(s, bound) + [v for v in ends if s in (u, w) and v != s]
        return neighbors

    for ends in ((u, w), (w,)):
        monkeypatch.setattr(oracle, "neighbors_bounded", with_extra_edge(ends))
        result = oracle.check_grid_agreement(3)
        assert result.failures == ["component of -2/1: not a tree"], ends


@pytest.mark.parametrize("lists, tree", [
    ({"a": ["b", "c"], "b": ["a"], "c": ["a"]}, True),
    ({"a": ["b", "c"], "b": ["a", "a"], "c": []}, False),  # the parent twice, c's edge once
    ({"a": ["b"], "b": ["a", "b"]}, False),  # a loop
    ({"a": ["b", "b"], "b": ["a"]}, False),  # a child twice
    ({"a": ["b"], "b": []}, False),  # an edge listed from one end only
])
def test_preorder_accepts_exactly_the_trees(lists, tree):
    order, depths, ends = oracle._preorder("a", lists)
    assert order[0] == "a" and sorted(order) == sorted(lists)
    assert (ends is not None) == tree


def test_grid_check_reports_a_formula_off_by_one(monkeypatch):
    def forged(source, targets):
        out = distances_from(source, targets)
        return [d + 1 if (source, t) == (Slope(0, 1), Slope(2, 3)) else d for t, d in zip(targets, out)]

    monkeypatch.setattr(oracle, "distances_from", forged)
    result = oracle.check_grid_agreement(3)
    assert result.failures == ["d(0/1,2/3) formula 2 != bfs 1"]
    assert result.line() == "FAIL  grid agreement: 86 BFS-reachable pairs within |p|,|q| <= 3, 1 mismatches"


def forged_geodesics(monkeypatch, forge):
    """check_geodesics with every path it asks for passed through forge."""
    monkeypatch.setattr(oracle, "geodesic", lambda s1, s2: forge(geodesic(s1, s2)))
    return oracle.check_geodesics(20, 10, seed=1805).failures


def test_geodesic_check_refuses_a_path_that_turns_back(monkeypatch):
    # one step out and back at the start: N + 2 edges of intersection
    # number 2 in the class, so only the length and step-back tests fail
    failures = forged_geodesics(monkeypatch, lambda path: path[:2] + path if len(path) > 1 else path)
    assert any(f.endswith(": the path turns back") for f in failures)
    assert all(": length " in f or f.endswith(": the path turns back") for f in failures)


def test_geodesic_check_refuses_a_path_that_leaves_the_class(monkeypatch):
    # 1/0 is in the class 1/0 only: slipped in after the first vertex
    failures = forged_geodesics(monkeypatch, lambda path: path[:1] + [Slope(1, 0)] + path[1:])
    left = [f for f in failures if ": a vertex left the class" in f]
    assert left and all(f.split(": ")[0] + ": non-edge step" in failures for f in left)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPUs run_checks sees in its affinity mask and counts its
    forks; after the test, no child of this process may be left."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        forks.clear()
        return forks

    monkeypatch.setattr(os, "fork", counted_fork)
    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runner_gives_the_same_results_on_one_cpu_and_on_two(cpus):
    forks = cpus(1)
    one = oracle.run_checks("quick")
    assert not forks
    forks = cpus(2)
    two = oracle.run_checks("quick")
    assert len(forks) == 1
    assert one == two
    assert len(one) == len(oracle.QUICK_CHECKS) and all(result.passed for result in one)


def stub_checks(monkeypatch, tmp_path, misbehave, child_checks=1):
    """Four stub checks in QUICK_CHECKS, and the log each appends its index
    and its process id to.  In this process a stub first waits until
    children have logged child_checks lines, so they run that many; then
    it calls misbehave(index, in_child) and returns its own CheckResult."""
    parent, log = os.getpid(), tmp_path / "log"
    log.touch()

    def ran():
        return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]

    def stub(index):
        def check():
            with open(log, "a") as stream:
                stream.write(f"{index} {os.getpid()}\n")
            deadline = time.monotonic() + 10
            while os.getpid() == parent and sum(pid != parent for _, pid in ran()) < child_checks:
                assert time.monotonic() < deadline, "no child ran a check"
                time.sleep(0.002)
            misbehave(index, os.getpid() != parent)
            return oracle.CheckResult(f"stub {index}", "detail", [f"failure {index}"] * (index % 2))
        return check

    monkeypatch.setattr(oracle, "QUICK_CHECKS", [stub(index) for index in range(4)])
    expected = [oracle.CheckResult(f"stub {i}", "detail", [f"failure {i}"] * (i % 2)) for i in range(4)]
    return expected, ran, parent


def test_a_check_that_raises_in_a_child_is_run_again_here(cpus, monkeypatch, tmp_path):
    run_in_child = []  # the child's own copy

    def misbehave(index, in_child):
        run_in_child.extend([index] * in_child)
        if len(run_in_child) == 2:
            raise ValueError(f"stub {index} in a child")

    expected, ran, parent = stub_checks(monkeypatch, tmp_path, misbehave, child_checks=2)
    cpus(2)
    assert oracle.run_checks("quick") == expected
    # the child sends the result it has and stops; its second check runs here
    sent, raised = [index for index, pid in ran() if pid != parent]
    assert (sent, parent) not in ran() and (raised, parent) in ran()


def test_a_check_that_raises_everywhere_raises(cpus, monkeypatch, tmp_path):
    def misbehave(index, in_child):
        if index % 2:
            raise ValueError(f"stub {index} everywhere")

    stub_checks(monkeypatch, tmp_path, misbehave)
    cpus(2)
    with pytest.raises(ValueError, match="stub 1 everywhere"):  # the first in schedule order
        oracle.run_checks("quick")


def test_a_check_that_ends_its_child_is_run_again_here(cpus, monkeypatch, tmp_path):
    def misbehave(index, in_child):
        if in_child:
            os._exit(9)

    expected, ran, parent = stub_checks(monkeypatch, tmp_path, misbehave)
    cpus(2)
    assert oracle.run_checks("quick") == expected
    in_child = {index for index, pid in ran() if pid != parent}
    assert in_child and all((index, parent) in ran() for index in in_child)


class Interrupt(BaseException):
    """Raised past every check's own handling, as KeyboardInterrupt is."""


def test_a_raise_here_kills_and_reaps_a_busy_child(cpus, monkeypatch, tmp_path):
    def misbehave(index, in_child):
        if in_child:
            time.sleep(60)  # busy until killed
        raise Interrupt

    stub_checks(monkeypatch, tmp_path, misbehave)
    cpus(2)
    start = time.monotonic()
    with pytest.raises(Interrupt):
        oracle.run_checks("quick")
    assert time.monotonic() - start < 30
