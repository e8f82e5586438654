"""The record types are NamedTuples: read-only fields, validated
construction with the same errors, keyword construction, and an import
path that loads neither dataclasses nor the oracle, whose public names
solnorm resolves on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import solnorm
from solnorm import oracle
from solnorm.bundle import BundleClass, H2Structure, h2_structure, norm_table, summary
from solnorm.curve_complex import GL2Matrix, IDENTITY, PARITY_BY_BITS, Slope, parse_matrix
from solnorm.errors import DomainError
from solnorm.oracle import ActionType, TranslationData
from solnorm.reports import NormReport, SurfaceDescription, pi_surface
from solnorm.semibundle import SemiBundleClass, SemiBundleH2
from solnorm.semibundle import summary as semi_summary

P10 = PARITY_BY_BITS[1, 0]
A = parse_matrix("1,0;6,1")

# Each record type and how to build one.  The builders run inside the
# tests that use them, not at import: a fault on the certificate path then
# fails the NormReport cases, not the collection of this whole file.
RECORDS = {
    "GL2Matrix": lambda: GL2Matrix(2, 1, 1, 1),
    "BundleClass": lambda: BundleClass(0, 1, 0),
    "SemiBundleClass": lambda: SemiBundleClass(1, 0, 1),
    "TranslationData": lambda: TranslationData(P10, 3, ActionType.TRANSLATION),
    "H2Structure": lambda: h2_structure(IDENTITY),
    "SemiBundleH2": lambda: semi_summary(A).h2,
    "NormReport": lambda: norm_table(A, summary(A), 10)[2],
    "SurfaceDescription": lambda: pi_surface(A, Slope(1, 0), 3, 10),
    "CheckResult": lambda: oracle.CheckResult("stub", "0 errors", []),
}


@pytest.fixture(params=list(RECORDS.values()), ids=list(RECORDS))
def record(request):
    return request.param()


def test_every_record_type_is_listed():
    types = {name: type(build()) for name, build in RECORDS.items()}
    assert set(types.values()) == {
        GL2Matrix, BundleClass, SemiBundleClass, TranslationData, H2Structure, SemiBundleH2,
        NormReport, SurfaceDescription, oracle.CheckResult,
    }
    assert all(kind.__name__ == name for name, kind in types.items())


def test_no_record_has_an_instance_dict(record):
    # a record is its tuple: nothing is stored or cached beside the fields
    assert not hasattr(record, "__dict__")


def test_fields_are_read_only(record):
    for name in record._fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GL2Matrix(1, 1, 1, 1), "matrix 1,1;1,1 has determinant 0, need +-1"),
        (lambda: GL2Matrix(a=2, c=0, b=0, d=1), "matrix 2,0;0,1 has determinant 2, need +-1"),
        (lambda: BundleClass(2, 0, 0), "class coordinates must be bits: (2, 0, 0)"),
        (lambda: BundleClass(t=0, j=1, k=-1), "class coordinates must be bits: (0, 1, -1)"),
        (lambda: SemiBundleClass(0, 0, 2), "class coordinates must be bits: (0, 0, 2)"),
    ],
)
def test_validated_records_raise_the_same_domain_errors(make, message):
    with pytest.raises(DomainError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Slope(1, 2)._replace(p=4), DomainError, "slope 4/2 is not reduced"),
        (lambda: IDENTITY._replace(a=2), DomainError, "matrix 2,0;0,1 has determinant 2, need +-1"),
        (lambda: BundleClass._make((5, 5, 5)), DomainError, "class coordinates must be bits: (5, 5, 5)"),
        (lambda: SemiBundleClass(0, 0, 1)._replace(phi=2), DomainError,
         "class coordinates must be bits: (0, 0, 2)"),
        (lambda: TranslationData._make((P10, 2, ActionType.ROTATION)), AssertionError,
         "1/0: rotation with length 2"),
    ],
    ids=["Slope", "GL2Matrix", "BundleClass", "SemiBundleClass", "TranslationData"],
)
def test_make_and_replace_refuse_what_the_constructor_refuses(make, error, message):
    # NamedTuple's own _make would build these with tuple.__new__, past
    # the validating constructor; its _replace builds through self._make
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message


def test_make_and_replace_build_valid_records():
    assert Slope(1, 2)._replace(p=3) == Slope(3, 2) and type(Slope(1, 2)._replace(p=3)) is Slope
    assert GL2Matrix._make((2, 1, 1, 1)) == GL2Matrix(2, 1, 1, 1)
    assert type(BundleClass._make([0, 1, 0])) is BundleClass
    # an unknown field raises NamedTuple's own error: ValueError up to
    # CPython 3.12, TypeError from 3.13
    with pytest.raises((ValueError, TypeError), match="unexpected field names: \\['r'\\]"):
        Slope(1, 2)._replace(r=3)


def test_translation_data_refuses_a_length_its_action_cannot_have():
    with pytest.raises(AssertionError, match="1/0: rotation with length 2"):
        TranslationData(P10, 2, ActionType.ROTATION)
    with pytest.raises(AssertionError, match="1/0: inversion with length 3"):
        TranslationData(P10, 3, ActionType.INVERSION)
    with pytest.raises(AssertionError, match="1/0: length 3 with action not-fixed"):
        TranslationData(P10, 3, ActionType.NOT_FIXED)


def test_keyword_construction():
    assert BundleClass(t=0, j=1, k=0) == BundleClass(0, 1, 0)
    assert solnorm.z2_norm_bundle(A, BundleClass(t=0, j=1, k=0)) == 3
    assert SemiBundleClass(e1=1, e2=0, phi=1) == SemiBundleClass(1, 0, 1)
    assert GL2Matrix(a=1, c=0, b=6, d=1) == A
    data = TranslationData(parity=P10, length=1, action=ActionType.INVERSION)
    assert (data.parity, data.length, data.action) == (P10, 1, ActionType.INVERSION)
    assert SurfaceDescription("torus") == SurfaceDescription(kind="torus", pieces=())


def test_records_are_their_tuples():
    assert A == (1, 0, 6, 1) and hash(A) == hash((1, 0, 6, 1))
    a, c, b, d = A
    assert (a, c, b, d) == (A.a, A.c, A.b, A.d)
    assert repr(A) == "GL2Matrix(a=1, c=0, b=6, d=1)"
    assert str(A) == "1,0;6,1"
    assert repr(BundleClass(0, 1, 0)) == "BundleClass(t=0, j=1, k=0)"


# Run in a fresh interpreter: the modules that importing solnorm and its
# command line adds to whatever the interpreter's start-up already loaded.
IMPORT_CHILD = """
import sys
before = set(sys.modules)
import solnorm, solnorm.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def run_child(code: str) -> str:
    """The stdout of code run in a fresh interpreter that imports this solnorm."""
    src = str(Path(solnorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout


def test_import_path_loads_no_dataclasses_json_or_oracle():
    loaded = set(run_child(IMPORT_CHILD).split())
    assert "solnorm.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "json", "solnorm.oracle"}), sorted(loaded)


ORACLE_NAMES = ("ActionType", "TranslationData", "distance_bfs", "translation_length_orbit")


def test_every_public_name_resolves_and_the_oracle_names_are_the_oracles():
    for name in solnorm.__all__:
        assert getattr(solnorm, name) is not None, name
    for name in ORACLE_NAMES:
        assert name in solnorm.__all__
        assert getattr(solnorm, name) is getattr(oracle, name), name


# An unknown name must raise AttributeError before anything is imported, so
# that getattr(solnorm, name, default) gives the default.
UNKNOWN_CHILD = """
import sys
import solnorm
print(getattr(solnorm, "no_such_name", None), "solnorm.oracle" in sys.modules)
"""


def test_an_unknown_name_raises_attribute_error_without_importing_the_oracle():
    assert run_child(UNKNOWN_CHILD).split() == ["None", "False"]
    with pytest.raises(AttributeError, match="module 'solnorm' has no attribute 'no_such_name'"):
        solnorm.no_such_name
