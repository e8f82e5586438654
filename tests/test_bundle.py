"""Torus bundles: H2 structure, norms, realizers, mog/meg, geometry."""

import copy
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from solnorm import (
    INF,
    BundleClass,
    GeometryClass,
    bredon_wood,
    classify_geometry,
    h2_structure,
    meg_bundle,
    order,
    parse_matrix,
    periodic_class,
    z2_norm_bundle,
)
from solnorm import bundle, curve_complex, reports, semibundle
from solnorm.cli import render, to_canonical_json
from solnorm.curve_complex import (
    GL2Matrix,
    IDENTITY,
    ParityClass,
    Slope,
    distance,
    geodesic,
    intersection_number,
    mat_act,
)
from solnorm.errors import DomainError
from solnorm.oracle import (
    PERIODIC_REPRESENTATIVES,
    ActionType,
    iter_unimodular,
    order_by_powers,
    parity_permutation_by_action,
    random_glz,
    translation_length_orbit,
)
from solnorm.reports import (
    KIND_KLEIN_BOTTLE,
    KIND_PI,
    KIND_SUM,
    KIND_TORUS,
    KIND_TORUS_FIBER,
)
from solnorm.tree_action import MOD2_PERMUTATIONS, parity_permutation, translation_lengths

from helpers import norm_contribution


class TestH2Structure:
    def test_three_cycle(self):
        structure = h2_structure(parse_matrix("1,1;1,0"))
        assert structure.valid_jk == {(0, 0)}
        assert structure.order == 2
        assert structure.generators == ("tau",)

    def test_identity_case(self):
        structure = h2_structure(parse_matrix("1,0;2,1"))
        assert structure.order == 8
        assert structure.generators == ("tau", "F[0/1]", "F[1/0]")
        assert structure.identification == "F[1/1] = F[0/1] + F[1/0]"

    def test_fixes_one_one(self):
        structure = h2_structure(parse_matrix("0,1;1,0"))
        assert structure.valid_jk == {(0, 0), (1, 1)}
        assert structure.order == 4

    def test_each_case_lists_its_fixed_classes(self):
        # classes holds the fixed classes in the order of sorted(valid_jk),
        # and the mod-2 permutation fixes each of them
        assert len(MOD2_PERMUTATIONS) == 6
        for bits, perm in MOD2_PERMUTATIONS.items():
            structure = h2_structure(GL2Matrix(*bits))
            jks = sorted(structure.valid_jk - {(0, 0)})
            assert structure.classes == tuple(ParityClass(jk) for jk in jks), bits
            assert all(perm[cls] is cls for cls in structure.classes), bits
            assert len(structure.classes) == sum(perm[cls] is cls for cls in ParityClass), bits

    def test_all_six_mod2_types(self):
        cases = {
            "1,0;0,1": {(0, 0), (0, 1), (1, 0), (1, 1)},
            "1,1;0,1": {(0, 0), (1, 0)},
            "1,0;1,1": {(0, 0), (0, 1)},
            "0,1;1,0": {(0, 0), (1, 1)},
            "1,1;1,0": {(0, 0)},
            "0,1;1,1": {(0, 0)},
        }
        for text, expected in cases.items():
            assert h2_structure(parse_matrix(text)).valid_jk == expected

    def test_a_permutation_fixing_two_classes_is_refused(self):
        # no permutation of three classes fixes exactly two; a forged one raises
        P10, P01, P11 = ParityClass
        with pytest.raises(AssertionError, match="^1,0;0,1 mod 2 fixes 2 parity classes$"):
            bundle._h2_case((1, 0, 0, 1), {P10: P10, P01: P01, P11: P01})

    def test_summary_refuses_an_infinite_length_on_a_fixed_class(self, monkeypatch):
        monkeypatch.setattr(bundle, "translation_lengths", lambda A: dict.fromkeys(ParityClass, INF))
        with pytest.raises(AssertionError, match="^infinite translation length of 1,0;0,1 on fixed class 0/1$"):
            bundle.summary(IDENTITY)


class TestNorm:
    def test_tau_is_zero(self):
        for text in ("1,0;2,1", "0,1;1,0", "2,1;1,1"):
            assert z2_norm_bundle(parse_matrix(text), BundleClass(1, 0, 0)) == 0

    def test_shear_six(self):
        assert z2_norm_bundle(parse_matrix("1,0;6,1"), BundleClass(0, 1, 0)) == 3

    def test_identity_one_one(self):
        assert z2_norm_bundle(IDENTITY, BundleClass(0, 1, 1)) == 0

    def test_class_coordinates_over_the_digit_limit_are_a_domain_error(self):
        with pytest.raises(DomainError, match="^class coordinate over Python's int-digit limit: "):
            BundleClass(10**5000, 0, 0)
        with pytest.raises(DomainError) as err:
            BundleClass(0, -10**4000, 1)
        assert str(err.value) == f"class coordinates must be bits: (0, {-10**4000}, 1)"

    def test_invalid_class_names_valid_set(self):
        with pytest.raises(DomainError, match=r"valid: \[\(0, 0\), \(1, 1\)\]"):
            z2_norm_bundle(parse_matrix("0,1;1,0"), BundleClass(0, 1, 0))


class TestNormTable:
    def test_three_cycle_table(self):
        A = parse_matrix("1,1;1,0")
        table = bundle.norm_table(A, bundle.summary(A))
        assert len(table) == 2
        assert [entry.norm for entry in table] == [0, 0]
        kinds = [entry.realizer.kind for entry in table]
        assert kinds == ["empty", KIND_TORUS_FIBER]

    def test_shear_two_table(self):
        A = parse_matrix("1,0;2,1")
        table = bundle.norm_table(A, bundle.summary(A))
        assert len(table) == 8
        assert sorted(entry.norm for entry in table) == [0, 0, 0, 0, 1, 1, 1, 1]
        by_coords = {tuple(e.coords.values()): e for e in table}
        pi = by_coords[(0, 1, 0)].realizer
        assert pi.kind == KIND_PI and pi.genus == 3
        assert pi.certificate == (Slope(1, 0), Slope(1, 2))
        assert by_coords[(0, 0, 1)].realizer.kind == KIND_TORUS
        summed = by_coords[(1, 1, 0)].realizer
        assert summed.kind == KIND_SUM
        assert [piece.kind for piece in summed.pieces] == [KIND_PI, KIND_TORUS_FIBER]
        assert by_coords[(0, 1, 1)].note == "derived identification"
        assert by_coords[(0, 0, 1)].note is None

    @pytest.mark.parametrize("text", ["1,0;2,1", "-1,0;8002,-1", "5,2;2,1", "3,16;2,11"])
    def test_a_second_build_is_equal(self, text):
        # a certificate is a value, so a norm table equals a second build of
        # itself and its realizers hash the same; a pi realizer equals its
        # plain tuple of fields
        A = parse_matrix(text)
        first, second = (bundle.norm_table(A, bundle.summary(A)) for _ in range(2))
        assert first == second and pickle.loads(pickle.dumps(first)) == first and copy.deepcopy(first) == first
        assert [hash(e.realizer) for e in first] == [hash(e.realizer) for e in second]
        certified = [entry.realizer for entry in first if entry.realizer.certificate is not None]
        assert certified
        for desc in certified:
            fields = (desc.kind, desc.genus, tuple(desc.certificate), ())
            assert desc == fields and hash(desc) == hash(fields)

    def test_identity_table(self):
        table = bundle.norm_table(IDENTITY, bundle.summary(IDENTITY))
        assert len(table) == 8
        assert all(entry.norm == 0 for entry in table)
        # every base vertex is fixed with its orientation
        by_coords = {tuple(e.coords.values()): e for e in table}
        for j, k in ((0, 1), (1, 0), (1, 1)):
            assert by_coords[(0, j, k)].realizer.kind == KIND_TORUS

    def test_rotation_realizes_torus(self):
        # the swap fixes its base vertex 1/1; 2,1;-1,0 fixes -1/1, one step
        # into the geodesic from 1/1 to its image -3/1
        for text in ("0,1;1,0", "2,1;-1,0"):
            A = parse_matrix(text)
            table = bundle.norm_table(A, bundle.summary(A))
            by_coords = {tuple(e.coords.values()): e for e in table}
            assert by_coords[(0, 1, 1)].norm == 0
            assert by_coords[(0, 1, 1)].realizer.kind == KIND_TORUS

    def test_klein_bottle_realizer(self):
        # rows (1,0) and (0,-1) fix 0/1 with a sign flip
        A = parse_matrix("1,0;0,-1")
        table = bundle.norm_table(A, bundle.summary(A))
        by_coords = {tuple(e.coords.values()): e for e in table}
        assert by_coords[(0, 0, 1)].realizer.kind == KIND_KLEIN_BOTTLE
        assert by_coords[(0, 1, 0)].realizer.kind == KIND_TORUS

    def test_certificate_elision(self):
        # the record holds the whole checked certificate of 15 edges; the
        # writers leave it out at cap 3 and print it at cap 15
        A = parse_matrix("1,0;30,1")
        table = bundle.norm_table(A, bundle.summary(A))
        by_coords = {tuple(e.coords.values()): e for e in table}
        pi = by_coords[(0, 1, 0)].realizer
        assert pi.genus == 15 + 2
        assert pi.certificate == tuple(Slope(1, 2 * i) for i in range(16))
        assert "  (t=0, j=1, k=0)  norm 15  Pi_17; certificate: (elided)\n" in render("bundle", A, 3)
        assert "Pi_17; certificate: 1/0 -> 1/2 -> " in render("bundle", A, 15)
        doc = json.loads(to_canonical_json("bundle", A, 3))
        rows = {tuple(row["class"].values()): row for row in doc["norm_table"]}  # by (j, k, t)
        assert rows[(1, 0, 0)]["realizer"] == {"certificate": "elided", "genus": 17, "kind": KIND_PI}

    def test_realizer_norm_matches(self):
        for text in ("1,0;2,1", "1,0;6,1", "3,2;4,3", "0,-1;1,0", "1,0;0,-1"):
            A = parse_matrix(text)
            for entry in bundle.norm_table(A, bundle.summary(A)):
                assert norm_contribution(entry.realizer) == entry.norm

    def test_certificates_are_edge_paths(self):
        # each certificate is a path of norm-many edges from a vertex w to
        # A(w), so it proves d(w, A(w)) = norm
        seen = 0
        for text in ("1,0;2,1", "1,0;6,1", "3,2;4,3", "2,1;-1,0", "4,1;-1,0", "-1,0;4,1"):
            A = parse_matrix(text)
            for entry in bundle.norm_table(A, bundle.summary(A)):
                cert = entry.realizer.certificate
                if cert is None and entry.realizer.pieces:
                    cert = entry.realizer.pieces[0].certificate
                if cert:
                    seen += 1
                    assert len(cert) - 1 == entry.norm
                    for u, v in zip(cert, cert[1:]):
                        assert intersection_number(u, v) == 2
                    assert cert[-1] == mat_act(A, cert[0])
        assert seen == 18

    @pytest.mark.parametrize("k", [10**3, 10**12, 10**40])
    def test_walk_runs_grow_with_the_answer_not_the_entries(self, monkeypatch, k):
        # base vertices k/2 to k moves from the axis, the flipped edge or the
        # fixed set: P W P^-1 and P (0,-1;1,0) P^-1 with P = 1,0;2k,1 or
        # 1,2k;0,1 and W = 1,2;2,5, and the rotation 1,0;2k,-1.  Each run
        # _walk returns costs O(1) big-integer operations; their number is
        # bounded by the continued-fraction terms of the columns and the
        # certificates' size
        def cf_terms(p, q):
            terms = 0
            while q:
                p, q, terms = q, p % q, terms + 1
            return terms

        runs = 0
        walk = curve_complex._walk

        def counting(*args):
            nonlocal runs
            walked = walk(*args)
            runs += len(walked)
            return walked

        monkeypatch.setattr(curve_complex, "_walk", counting)
        W, R = GL2Matrix(1, 2, 2, 5), GL2Matrix(0, -1, 1, 0)
        family = [P @ M @ P.inverse() for P in (GL2Matrix(1, 0, 2 * k, 1), GL2Matrix(1, 2 * k, 0, 1))
                  for M in (W, R)]
        family.append(GL2Matrix(1, 0, 2 * k, -1))
        for A in family:
            s = bundle.summary(A)
            moves = [distance(c.base_vertex, mat_act(A, c.base_vertex)) for c in s.h2.classes]
            assert max(moves) >= k - 1  # the walks the certificates jump along
            runs = 0
            bundle.norm_table(A, s)
            size = sum(s.lengths[c] + 1 for c in s.h2.classes)
            assert 0 < runs <= 2 * (cf_terms(A.a, A.b) + cf_terms(A.c, A.d) + size), A

    @pytest.mark.parametrize("text, parity", [
        ("1,0;2,1", ParityClass.ONE_ZERO),  # 1/0 -> 1/2 is on the axis: d = l = 1
        ("5,2;2,1", ParityClass.ONE_ONE),  # d = l = 2
        ("4,1;-1,0", ParityClass.ONE_ONE),  # d = 3, l = 1: the middle edge of the walk
        ("2,1;-1,0", ParityClass.ONE_ONE),  # d = 2, l = 0: the middle vertex
    ])
    def test_realizer_computes_n_once_on_the_axis(self, monkeypatch, text, parity):
        # on the axis or off it, a certificate is one geodesic_path call with one N
        calls = {"geodesic_path": 0, "bredon_wood": 0}

        def counting(module, name):
            plain = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return plain(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        A = parse_matrix(text)
        length = translation_lengths(A)[parity]
        counting(reports, "geodesic_path")
        counting(curve_complex, "bredon_wood")
        bundle._realizer(A, parity, length)
        assert calls == {"geodesic_path": 1, "bredon_wood": 1}

    def test_realizer_rejects_a_certificate_off_the_orbit(self, monkeypatch):
        # the walk 1/1, -1/1, -3/1, -5/1 from 1/1 to A(1/1) has the middle
        # edge w -> A(w) = -1/1 -> -3/1; forged backwards it passes the
        # path's checks (a middle stretch need not end at the target) but
        # runs from A(w) to w, off the orbit
        A = parse_matrix("4,1;-1,0")
        assert geodesic(Slope(1, 1), mat_act(A, Slope(1, 1))) == [Slope(1, 1), Slope(-1, 1), Slope(-3, 1), Slope(-5, 1)]
        monkeypatch.setattr(curve_complex, "_walk", lambda *args: [(-3, 1, 0, 0, 1), (-1, 1, 0, 0, 1)])
        with pytest.raises(AssertionError, match="does not run from a vertex to its image"):
            bundle._realizer(A, ParityClass.ONE_ONE, 1)

    # (matrix, shift of every finite closed-form length, the check that
    # catches it).  The base vertex 1/1 of 4,1;-1,0 and 8,1;-1,0 is off the
    # axis (d(v, A v) = l + 2); those of 1,0;2,1 are on it.  A length the
    # walk from v to A(v) has no middle stretch of is refused by geodesic_path;
    # those cases are named by the length the closed form gives.
    @pytest.mark.parametrize(
        "text, shift, message",
        [
            ("4,1;-1,0", 2, "not on the axis"),
            pytest.param("4,1;-1,0", -2, "has 3 edges: no middle stretch of -1",
                         id="4,1;-1,0--2-closed form gives length -1"),
            ("8,1;-1,0", 2, "not on the axis"),
            ("8,1;-1,0", -2, "does not run from a vertex to its image"),
            pytest.param("1,0;2,1", 2, "has 0 edges: no middle stretch of 2",
                         id="1,0;2,1-2-closed form gives length 2, the base vertex moves 0"),
            pytest.param("1,0;2,1", -2, "has 0 edges: no middle stretch of -2",
                         id="1,0;2,1--2-closed form gives length -2"),
        ],
    )
    @pytest.mark.parametrize("cap", [10000, 0])
    def test_report_rejects_a_closed_form_off_by_two(self, monkeypatch, text, shift, message, cap):
        # the certificate proves l itself, so a wrong closed form raises
        # while the report is built, not only in the golden bytes, and
        # also when the report elides the certificate
        closed = bundle.translation_lengths

        def shifted(A):
            return {cls: l if l == INF else l + shift for cls, l in closed(A).items()}

        monkeypatch.setattr(bundle, "translation_lengths", shifted)
        with pytest.raises(AssertionError, match=message):
            to_canonical_json("bundle", parse_matrix(text), cap)

    # The semi-bundle's certificate is the whole walk from 1/0 to A(1/0),
    # of N(b, a) edges.  (matrix, shift of N, the check that catches it):
    # 11,8;-18,-13 and 7,4;-16,-9 have 1/0 one move off the axis or the
    # fixed set, so N - 2 is the translation length on the 1/0 tree and
    # only the start check refuses it; so has -35,-12;108,37, the shear
    # 1,0;12,1 conjugated by 3,1;2,1, whose 6 edges a cap of 0 elides.
    @pytest.mark.parametrize(
        "text, shift, message",
        [
            ("1,0;2,1", 2, "has 1 edges: no middle stretch of 3"),
            ("1,0;2,1", -2, "has 1 edges: no middle stretch of -1"),
            ("3,1;8,3", 2, "has 2 edges: no middle stretch of 4"),
            ("3,1;8,3", -2, "does not run from a vertex to its image"),
            ("1,0;30,1", 2, "has 15 edges: no middle stretch of 17"),
            ("1,0;30,1", -2, "does not run from a vertex to its image"),
            ("11,8;-18,-13", 2, "has 3 edges: no middle stretch of 5"),
            ("11,8;-18,-13", -2, "starts at -1/2, not at 1/0"),
            ("7,4;-16,-9", -2, "starts at -1/2, not at 1/0"),
            ("-35,-12;108,37", -2, "starts at -1/2, not at 1/0"),
        ],
    )
    @pytest.mark.parametrize("cap", [10000, 0])
    def test_semibundle_report_rejects_a_norm_off_by_two(self, monkeypatch, text, shift, message, cap):
        closed = semibundle.bredon_wood
        monkeypatch.setattr(semibundle, "bredon_wood", lambda p, q: closed(p, q) + shift)
        for write in (render, to_canonical_json):
            with pytest.raises(AssertionError, match=message):
                write("semibundle", parse_matrix(text), cap)

    # gluings with 1/0 off the axis of A on the 1/0 tree, where the
    # translation length l is 2 less than d(1/0, A(1/0)): the middle l
    # edges of the walk from 1/0 run from a vertex to its image
    @pytest.mark.parametrize("cap", [10000, 0])
    @pytest.mark.parametrize("seed", [38, 93, 190, 593, 771, 887])
    def test_semibundle_report_rejects_the_translation_length(self, monkeypatch, seed, cap):
        A = random_glz(seed, 12)
        length = translation_lengths(A)[ParityClass.ONE_ZERO]
        assert length == bredon_wood(A.b, A.a) - 2
        monkeypatch.setattr(semibundle, "bredon_wood", lambda p, q: length)
        for write in (render, to_canonical_json):
            with pytest.raises(AssertionError, match="not at 1/0"):
                write("semibundle", A, cap)

    @pytest.mark.parametrize("kind", ["bundle", "semibundle"])
    def test_a_negative_cap_elides_like_zero(self, kind):
        A = parse_matrix("1,0;6,1")  # l[1/0] = N(6, 1) = 3
        for write in (render, to_canonical_json):
            assert write(kind, A, -1) == write(kind, A, 0)
        assert "certificate: (elided)" in render(kind, A, -1)


class TestMogMeg:
    def test_mog_examples(self):
        assert bundle.summary(parse_matrix("1,0;2,1")).mog == 3
        assert bundle.summary(parse_matrix("1,0;4,1")).mog == INF
        assert bundle.summary(parse_matrix("1,0;0,-1")).mog == 3

    def test_meg_examples(self):
        assert meg_bundle(parse_matrix("0,1;1,0")) == 2  # orientation-reversing
        assert meg_bundle(parse_matrix("-1,0;5,-1")) == 2  # trace -2
        assert meg_bundle(parse_matrix("2,1;1,1")) == 4  # Anosov

    def test_mog_finite_is_odd(self):
        for i in range(200):
            A = random_glz(300 + i, i % 12)
            value = bundle.summary(A).mog
            if value != INF:
                assert value % 2 == 1

    def test_norm_symmetry_under_tau(self):
        for i in range(100):
            A = random_glz(400 + i, i % 12)
            for entry_t0 in bundle.norm_table(A, bundle.summary(A)):
                t, j, k = entry_t0.coords["t"], entry_t0.coords["j"], entry_t0.coords["k"]
                if t == 0:
                    assert entry_t0.norm == z2_norm_bundle(A, BundleClass(1, j, k))


class TestGeometry:
    def test_examples(self):
        assert classify_geometry(parse_matrix("0,-1;1,0")) is GeometryClass.EUCLIDEAN_PERIODIC
        assert classify_geometry(parse_matrix("1,0;3,1")) is GeometryClass.NIL
        assert classify_geometry(parse_matrix("2,1;1,1")) is GeometryClass.SOL_ANOSOV

    def test_orientation_reversing_infinite_order(self):
        # det -1, trace 2: not Nil, not periodic
        assert classify_geometry(GL2Matrix(2, 1, 1, 0)) is GeometryClass.SOL_ANOSOV

    def test_order_examples(self):
        assert order(IDENTITY) == 1
        assert order(parse_matrix("0,1;-1,-1")) == 3
        assert order(parse_matrix("1,0;1,1")) == INF

    def test_periodic_classes(self):
        assert periodic_class(parse_matrix("-1,0;0,-1")) == "A2"
        assert periodic_class(parse_matrix("1,0;1,-1")) == "A4"
        assert periodic_class(parse_matrix("1,0;0,-1")) == "A3"
        assert periodic_class(parse_matrix("1,0;1,1")) is None

    def test_representatives_have_stated_orders(self):
        expected = {"A1": 1, "A2": 2, "A3": 2, "A4": 2, "A5": 3, "A6": 4, "A7": 6}
        for name, A in PERIODIC_REPRESENTATIVES.items():
            assert order(A) == expected[name]

    def test_periodic_class_conjugation_invariant(self):
        for i, (name, A) in enumerate(PERIODIC_REPRESENTATIVES.items()):
            for j in range(20):
                P = random_glz(100 * i + j, j % 9)
                assert periodic_class(P @ A @ P.inverse()) == name


class TestClosedFormsAgainstReferences:
    """order, the mod-2 permutation, its fixed classes, the H2 table and
    the translation lengths against matrix powers, the action on base
    vertices and the orbit of the base vertex."""

    def test_every_matrix_with_entries_up_to_four(self):
        count = 0
        for w, x, y, z in iter_unimodular(4):
            A = GL2Matrix(w, x, y, z)
            assert order(A) == order_by_powers(A), A
            perm = parity_permutation(A)
            assert perm == parity_permutation_by_action(A), A
            fixed = {cls for cls in ParityClass if perm[cls] is cls}
            orbits = {cls: translation_length_orbit(A, cls) for cls in ParityClass}
            kept = {cls for cls, data in orbits.items() if data.action is not ActionType.NOT_FIXED}
            assert kept == fixed, A
            assert h2_structure(A).valid_jk == {(0, 0)} | {cls.value for cls in fixed}, A
            lengths = translation_lengths(A)
            for cls in ParityClass:
                assert lengths[cls] == orbits[cls].length, (A, cls)
            count += 1
        assert count == 360

    def test_large_entries(self):
        a = 2**100 + 1
        cases = []
        for n in (2, 3, 10**6, 10**30, -(10**30), 2 * 10**30 + 1):
            # trace +-2 but not +-I: infinite order however large n is
            cases += [(GL2Matrix(1, 0, n, 1), INF), (GL2Matrix(-1, 0, n, -1), INF),
                      (GL2Matrix(1, n, 0, 1), INF)]
        cases += [
            (GL2Matrix(a, 1 + a, 1 - a, -a), 2),  # det -1, trace 0, 100-bit entries
            (GL2Matrix(a, 1 - a * a, 1, -a), 2),
            (GL2Matrix(a, -1 - a * a, 1, -a), 4),  # det 1, trace 0
            (GL2Matrix(a, a * (-1 - a) - 1, 1, -1 - a), 3),  # det 1, trace -1
            (GL2Matrix(a, a * (1 - a) - 1, 1, 1 - a), 6),  # det 1, trace 1
            (GL2Matrix(a, a * (2 - a) - 1, 1, 2 - a), INF),  # det 1, trace 2
            (GL2Matrix(a, a * (3 - a) + 1, 1, 3 - a), INF),  # det -1, trace 3
        ]
        for A, expected in cases:
            assert order(A) == order_by_powers(A) == expected, A
            lengths = translation_lengths(A)
            for cls in ParityClass:
                assert lengths[cls] == translation_length_orbit(A, cls).length, (A, cls)

    @given(
        st.builds(random_glz, st.integers(0, 2**48), st.integers(0, 30)),
        st.integers(0, 80),
        st.sampled_from([None, *PERIODIC_REPRESENTATIVES.values()]),
    )
    def test_order_matches_powers(self, P, k, periodic):
        # powers of random words reach a few hundred bits; conjugates of the
        # periodic representatives keep a finite order
        A = P.power(k) if periodic is None else P @ periodic @ P.inverse()
        assert order(A) == order_by_powers(A)


def test_norm_multiset_matches_table():
    for text in ("1,0;2,1", "1,1;1,0", "0,1;1,0", "3,2;4,3", "1,0;0,-1"):
        A = parse_matrix(text)
        s = bundle.summary(A)
        table = bundle.norm_table(A, s)
        assert list(s.norms) == sorted(e.norm for e in table)
