"""The record types are NamedTuples: read-only fields, validated
construction with the same errors, keyword construction, and an import
path that loads neither dataclasses nor the oracle and the bounded graph,
whose public names solnorm resolves on first use, nor argparse or csv,
which no command loads."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solnorm
from solnorm import graph, oracle
from solnorm.arith import INF
from solnorm.bundle import BundleClass, H2Structure, h2_structure, norm_table, summary
from solnorm.curve_complex import GL2Matrix, IDENTITY, PARITY_BY_BITS, Slope, parse_matrix
from solnorm.errors import DomainError
from solnorm.oracle import ActionType, TranslationData
from solnorm.reports import NormReport, SurfaceDescription, pi_surface
from solnorm.semibundle import SemiBundleClass, SemiBundleH2
from solnorm.semibundle import summary as semi_summary

P10 = PARITY_BY_BITS[1, 0]
P11 = PARITY_BY_BITS[1, 1]
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
    "NormReport": lambda: norm_table(A, summary(A))[2],
    "SurfaceDescription": lambda: pi_surface(A, Slope(1, 0), 3),
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
    with pytest.raises(AssertionError, match="1/1: length inf with action translation"):
        TranslationData(P11, INF, ActionType.TRANSLATION)


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


def run_child(code: str, *flags: str) -> str:
    """The stdout of code run in a fresh interpreter, with flags, that
    imports this solnorm."""
    src = str(Path(solnorm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return done.stdout


def test_import_path_loads_no_dataclasses_json_or_oracle():
    loaded = set(run_child(IMPORT_CHILD).split())
    assert "solnorm.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "json", "solnorm.oracle"}), sorted(loaded)


# Which of argparse, csv, gettext, the bounded graph and the oracle are
# loaded after each stage: start-up (run with -S, so no site hook loads
# one), the import, well-formed commands of every kind but census,
# export-graph and verify (text and JSON reports of both kinds), a census
# of both kinds, export-graph, verify, -h and a usage error.
BUDGET_CHILD = """
import contextlib, io, os, sys, tempfile

def loaded(stage):
    names = ("argparse", "csv", "gettext", "solnorm.graph", "solnorm.oracle")
    print(stage, *(name for name in names if name in sys.modules), sep=",")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert solnorm.cli.main(argv) == 0, argv

loaded("start")
import solnorm, solnorm.cli
loaded("import")
for argv in [
    ["bundle", "--matrix=1,0;2,1"], ["bundle", "--json", "--matrix", "5,2;2,1", "--certificate-cap=1"],
    ["semibundle", "--matrix=-1,0;2,-1"], ["semibundle", "--json", "--matrix", "2,1;1,1"], ["bw", "8", "3"],
    ["dist", "0/1", "8/3"], ["geodesic", "0/1", "4/3"], ["act", "--matrix", "1,0;2,1", "1/0"],
]:
    run(argv)
loaded("commands")
with tempfile.TemporaryDirectory() as work:
    path = os.path.join(work, "in.txt")
    with open(path, "w") as source:
        source.write("bundle 1,0;2,1\\nsemibundle 2,1;1,1\\n")
    run(["census", "--in", path, "--out", os.path.join(work, "out.csv")])
loaded("census")
run(["export-graph", "--center=0/1", "--radius", "1", "--bound=5"])
loaded("export-graph")
run(["verify", "--level", "quick"])
loaded("verify")
run(["-h"])
loaded("help")
with contextlib.redirect_stderr(io.StringIO()):
    assert solnorm.cli.main(["bundle", "--mat=1,0;2,1"]) == 2
loaded("usage-error")
"""


@functools.cache
def loaded_after_each_stage() -> dict[str, set[str]]:
    """The names BUDGET_CHILD watches that are loaded after each of its
    stages, from one run of it."""
    stages = (line.split(",") for line in run_child(BUDGET_CHILD, "-S").split())
    return {stage: set(names) for stage, *names in stages}


def loaded_of(watched: set[str]) -> dict[str, set[str]]:
    return {stage: names & watched for stage, names in loaded_after_each_stage().items()}


def test_well_formed_commands_load_no_argparse():
    # solnorm reads its command line, and writes its help and usage
    # errors, without argparse; no command loads csv, census included
    assert loaded_of({"argparse", "csv", "gettext"}) == {
        "start": set(), "import": set(), "commands": set(), "census": set(),
        "export-graph": set(), "verify": set(), "help": set(), "usage-error": set(),
    }


def test_only_export_graph_and_verify_load_the_graph_or_the_oracle():
    both = {"solnorm.graph", "solnorm.oracle"}
    assert loaded_of(both) == {
        "start": set(), "import": set(), "commands": set(), "census": set(),
        "export-graph": {"solnorm.graph"}, "verify": both, "help": both, "usage-error": both,
    }


# Each public name that solnorm resolves on first use, and the module that
# defines it.
LAZY_NAMES = {
    "ActionType": oracle,
    "TranslationData": oracle,
    "distance_bfs": oracle,
    "periodic_class": oracle,
    "translation_length_orbit": oracle,
    "export_dot": graph,
    "neighbors_bounded": graph,
}


def test_every_public_name_resolves_and_the_oracle_names_are_the_oracles():
    for name in solnorm.__all__:
        assert getattr(solnorm, name) is not None, name
    assert len(solnorm.__all__) == 37
    assert {name for name in solnorm.__all__ if name not in vars(solnorm)} == LAZY_NAMES.keys()
    for name, module in LAZY_NAMES.items():
        value = getattr(solnorm, name)
        assert value is vars(module)[name] and value.__module__ == module.__name__, name


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
