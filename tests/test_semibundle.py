"""Torus semi-bundles: H2 structure, norms, realizers, mog/meg."""

import math

import pytest

from solnorm import (
    INF,
    SemiBundleClass,
    bredon_wood,
    intersection_number,
    parse_matrix,
    z2_norm_semi,
)
from solnorm import semibundle
from solnorm.curve_complex import IDENTITY, Slope
from solnorm.errors import DomainError
from solnorm.reports import DEFAULT_CERTIFICATE_CAP, KIND_KLEIN_BOTTLE, KIND_PI, KIND_SUM


class TestH2:
    def test_odd_b(self):
        structure = semibundle.summary(parse_matrix("0,1;1,0")).h2
        assert structure.order == 4
        assert structure.generators == ("K1", "K2")

    def test_even_b(self):
        structure = semibundle.summary(parse_matrix("1,0;2,1")).h2
        assert structure.order == 8
        assert structure.generators == ("K1", "K2", "F[2/1]")

    def test_b_zero(self):
        assert semibundle.summary(IDENTITY).h2.order == 8


class TestNorm:
    def test_klein_classes_are_zero(self):
        for text in ("1,0;2,1", "0,1;1,0", "3,1;8,3"):
            assert z2_norm_semi(parse_matrix(text), SemiBundleClass(1, 1, 0)) == 0

    def test_examples(self):
        assert z2_norm_semi(parse_matrix("1,0;2,1"), SemiBundleClass(0, 0, 1)) == 1
        assert z2_norm_semi(parse_matrix("3,1;8,3"), SemiBundleClass(1, 0, 1)) == 2

    def test_b_zero_routes_to_zero(self):
        assert z2_norm_semi(IDENTITY, SemiBundleClass(0, 0, 1)) == 0

    def test_invalid_class(self):
        with pytest.raises(DomainError, match="order 4"):
            z2_norm_semi(parse_matrix("0,1;1,0"), SemiBundleClass(0, 0, 1))

    def test_k_independence(self):
        A = parse_matrix("3,1;8,3")
        for e1 in (0, 1):
            for e2 in (0, 1):
                assert z2_norm_semi(A, SemiBundleClass(e1, e2, 1)) == 2
                assert z2_norm_semi(A, SemiBundleClass(e1, e2, 0)) == 0


class TestTable:
    def test_identity_table(self):
        s = semibundle.summary(IDENTITY)
        table = semibundle.norm_table(IDENTITY, s, DEFAULT_CERTIFICATE_CAP)
        assert len(table) == 8
        assert all(entry.norm == 0 for entry in table)
        by_coords = {tuple(e.coords.values()): e for e in table}
        assert by_coords[(0, 0, 1)].realizer.kind == KIND_KLEIN_BOTTLE

    def test_shear_two_table(self):
        A = parse_matrix("1,0;2,1")
        table = semibundle.norm_table(A, semibundle.summary(A), DEFAULT_CERTIFICATE_CAP)
        by_coords = {tuple(e.coords.values()): e for e in table}
        pi = by_coords[(0, 0, 1)].realizer
        assert pi.kind == KIND_PI and pi.genus == 3
        assert pi.certificate == (Slope(1, 0), Slope(1, 2))
        assert by_coords[(0, 0, 1)].norm == 1
        both = by_coords[(1, 1, 1)].realizer
        assert both.kind == KIND_SUM
        assert [p.kind for p in both.pieces] == [KIND_KLEIN_BOTTLE, KIND_KLEIN_BOTTLE, KIND_PI]

    def test_odd_b_table(self):
        A = parse_matrix("0,1;1,0")
        table = semibundle.norm_table(A, semibundle.summary(A), DEFAULT_CERTIFICATE_CAP)
        assert len(table) == 4
        assert all(entry.norm == 0 for entry in table)

    def test_certificate_runs_from_fiber_to_image_column(self):
        A = parse_matrix("3,1;8,3")
        table = semibundle.norm_table(A, semibundle.summary(A), DEFAULT_CERTIFICATE_CAP)
        by_coords = {tuple(e.coords.values()): e for e in table}
        cert = by_coords[(0, 0, 1)].realizer.certificate
        assert cert[0] == Slope(1, 0)
        assert cert[-1] == Slope.of(A.a, A.b)
        assert len(cert) - 1 == bredon_wood(A.b, A.a) == 2
        for u, v in zip(cert, cert[1:]):
            assert intersection_number(u, v) == 2

    def test_realizer_norm_matches(self):
        for text in ("1,0;2,1", "3,1;8,3", "0,1;1,0", "1,0;0,1"):
            A = parse_matrix(text)
            for entry in semibundle.norm_table(A, semibundle.summary(A), DEFAULT_CERTIFICATE_CAP):
                assert entry.realizer.norm_contribution() == entry.norm

    def test_certificate_elision(self):
        A = parse_matrix("1,0;30,1")
        table = semibundle.norm_table(A, semibundle.summary(A), 3)
        by_coords = {tuple(e.coords.values()): e for e in table}
        pi = by_coords[(0, 0, 1)].realizer
        assert pi.certificate_elided and pi.genus == bredon_wood(30, 1) + 2


class TestMogMeg:
    def test_examples(self):
        assert semibundle.summary(parse_matrix("1,0;2,1")).mog == 3
        assert semibundle.summary(parse_matrix("1,0;4,1")).mog == INF
        assert semibundle.summary(parse_matrix("0,1;1,0")).mog == INF

    def test_meg_always_two(self):
        for text in ("1,0;2,1", "1,0;4,1", "0,1;1,0", "1,0;0,1", "3,1;8,3"):
            assert semibundle.summary(parse_matrix(text)).meg == 2


def test_parity_consistency_up_to_200():
    # b = 2 mod 4 forces N(b, a) odd; b = 0 mod 4, b != 0 forces it even
    for b in range(-200, 201, 2):
        if b == 0:
            continue
        for a in range(-199, 200, 2):
            if math.gcd(a, b) != 1:
                continue
            value = bredon_wood(b, a)
            assert value % 2 == (1 if abs(b) % 4 == 2 else 0)


def test_norm_multiset_matches_table():
    for text in ("1,0;2,1", "0,1;1,0", "3,1;8,3", "1,0;0,1"):
        A = parse_matrix(text)
        s = semibundle.summary(A)
        table = semibundle.norm_table(A, s, DEFAULT_CERTIFICATE_CAP)
        assert list(s.norms) == sorted(e.norm for e in table)
