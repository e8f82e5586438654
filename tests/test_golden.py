"""Golden bytes: census CSV and bundle/semibundle reports of a fixed matrix
set, the DOT text of a few balls in the curve complex, and the output of
`verify --level quick`.

The fixtures under tests/golden/ hold the exact output of a recorded
version of the program.  Any change to a census row, a text report, a
JSON report, an exported graph or a verify line shows up here as a byte
difference.

To record them again (only when an output change is intended):

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

from solnorm.cli import main
from solnorm.oracle import PERIODIC_REPRESENTATIVES, random_matrix

GOLDEN = Path(__file__).resolve().parent / "golden"
CENSUS_INPUT = GOLDEN / "census_input.txt"
CENSUS_CSV = GOLDEN / "census.csv"
REPORTS = GOLDEN / "reports.txt"
GRAPHS = GOLDEN / "export_graph.txt"
VERIFY_QUICK = GOLDEN / "verify_quick.txt"
SRC = Path(__file__).resolve().parent.parent / "src"

# (kind, matrix, certificate cap or None); each is reported as text and as JSON
REPORT_CASES = [
    ("bundle", "2,1;1,1", None),  # Sol, 3-cycle mod 2
    ("bundle", "5,2;2,1", None),  # Sol, identity mod 2
    ("bundle", "1,0;6,1", None),  # Nil shear
    ("bundle", "-1,0;4,-1", None),  # Nil, meg 2
    ("bundle", "0,-1;1,0", None),  # periodic A6
    ("bundle", "1,0;0,1", None),  # identity
    ("bundle", "1,0;1,-1", None),  # periodic A4, det -1
    ("bundle", "89,144;144,233", 3),  # Sol, certificates elided
    ("bundle", "41,29;58,41", 3),  # Sol, one class, certificate elided
    # base vertex 1/1 off the axis: each certificate is a strict middle slice
    ("bundle", "2,1;-1,0", None),  # rotation on 1/1, torus at -1/1
    ("bundle", "4,1;-1,0", None),  # -1/1 -> -3/1, with d(1/1, A(1/1)) = 3
    ("bundle", "-1,0;4,1", None),  # inversion, -1/1 -> -1/3
    # far from the axis or the fixed set (k = 10**3): a short certificate
    # thousands of walk steps from the base vertex
    ("bundle", "-3999,2;-8007998,4005", None),  # P W P^-1, P = 1,0;2k,1, W = 1,2;2,5
    ("bundle", "4001,-7991998;2,-3995", None),  # P W P^-1, P = 1,2k;0,1
    ("bundle", "1,0;2000,-1", None),  # rotation, d(1/0, A(1/0)) = 2000
    ("bundle", "2000,-1;4000001,-2000", None),  # inversion P (0,-1;1,0) P^-1, P = 1,0;2k,1
    ("semibundle", "3,1;2,1", None),  # b = 2 mod 4
    ("semibundle", "1,0;4,1", None),  # b = 0 mod 4
    ("semibundle", "2,1;1,1", None),  # b odd
    ("semibundle", "1,5;0,1", None),  # b = 0
    ("semibundle", "200001,100000;2,1", None),  # large partial quotient
    # one case per way a certificate run is formatted: a zero step in p, a
    # zero step in q, and two with both steps nonzero
    ("bundle", "1,0;42,1", None),
    ("bundle", "1,42;0,1", None),
    ("semibundle", "41,2;20,1", None),
    ("bundle", "-19,-40;10,21", None),
]

# (center, radius, bound) of export-graph
GRAPH_CASES = [
    ("0/1", 0, 5),  # the center alone
    ("0/1", 2, 5),
    ("1/0", 3, 8),
    ("1/1", 2, 6),
    ("3/5", 2, 9),  # off the axes
    ("-7/2", 2, 4),  # center outside the bound
    ("0/1", 50, 2),  # radius past the bounded component
]


def census_input() -> str:
    """About 200 census lines: seeded random words, the periodic
    representatives, Nil shears, det -1 matrices and semibundles with b
    zero, odd, 0 mod 4 and 2 mod 4."""
    rng = random.Random(2026)
    lines = ["# golden census input"]
    lines += [f"bundle {random_matrix(rng, 40).to_text()}" for _ in range(100)]
    lines += [f"bundle {A.to_text()}" for A in PERIODIC_REPRESENTATIVES.values()]
    big = 10**30
    for n in (1, 2, 3, 4, 6, 10, 14, 2 * big + 2, 4 * big):
        lines += [f"bundle 1,0;{n},1", f"bundle -1,0;{n},-1", f"bundle 1,{n};0,1"]
    for text in ("1,0;0,-1", "0,1;1,0", "1,0;2,-1", "3,-4;2,-3", "2,1;3,1", "3,5;5,8",
                 "1,1;0,-1", "-1,0;5,1"):
        lines.append(f"bundle {text}")
    for a in (2**100 + 1, 2**100 + 2, -(3**63)):  # det -1, trace 0, 100-bit entries
        lines.append(f"bundle {a},{1 + a};{1 - a},{-a}")
    for text in ("1,0;0,1", "-1,0;0,-1", "1,7;0,1", "-1,4;0,1",  # b = 0
                 "2,1;1,1", "1,1;1,2", "4,1;3,1",  # b odd
                 "1,0;4,1", "3,1;8,3", "5,1;4,1", "1,0;12,1",  # b = 0 mod 4
                 "1,0;2,1", "3,1;2,1", "5,2;2,1", "7,1;6,1", "200001,100000;2,1"):  # b = 2 mod 4
        lines.append(f"semibundle {text}")
    lines += [f"semibundle {random_matrix(rng, 40).to_text()}" for _ in range(50)]
    return "\n".join(lines) + "\n"


def report_argv(kind: str, matrix: str, cap: int | None, as_json: bool) -> list[str]:
    argv = [kind, f"--matrix={matrix}"]
    if as_json:
        argv.append("--json")
    if cap is not None:
        argv.append(f"--certificate-cap={cap}")
    return argv


def transcript(argvs) -> str:
    """Each command, its stdout and its exit code."""
    blocks = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        blocks.append(f"$ solnorm {' '.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "".join(blocks)


def reports_transcript() -> str:
    """Every report case as text and JSON."""
    return transcript(
        report_argv(kind, matrix, cap, as_json)
        for kind, matrix, cap in REPORT_CASES
        for as_json in (False, True)
    )


def graphs_transcript() -> str:
    return transcript(
        ["export-graph", f"--center={center}", f"--radius={radius}", f"--bound={bound}"]
        for center, radius, bound in GRAPH_CASES
    )


def verify_transcript() -> str:
    return transcript([["verify", "--level", "quick"]])


def test_census_input_is_stable():
    assert CENSUS_INPUT.read_text(encoding="utf-8") == census_input()


def test_census_csv_bytes(tmp_path):
    out = tmp_path / "census.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["census", "--in", str(CENSUS_INPUT), "--out", str(out)]) == 0
    assert out.read_bytes() == CENSUS_CSV.read_bytes()


def test_report_bytes():
    assert reports_transcript().encode("utf-8") == REPORTS.read_bytes()


def test_export_graph_bytes():
    assert graphs_transcript().encode("utf-8") == GRAPHS.read_bytes()


def test_verify_quick_bytes():
    assert verify_transcript().encode("utf-8") == VERIFY_QUICK.read_bytes()


def test_census_under_python_optimize(tmp_path):
    # the invariants are explicit raises, so python -O runs the same checks
    # and must produce the same bytes
    out = tmp_path / "census.csv"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "solnorm.cli", "census", "--in", str(CENSUS_INPUT),
         "--out", str(out)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == CENSUS_CSV.read_bytes()


def test_no_assert_statements_in_src():
    # python -O drops assert statements, so an invariant written as one
    # would go unchecked; the program raises explicitly instead
    found = []
    for path in sorted((SRC / "solnorm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found


def test_no_parity_enum_machinery_in_function_bodies():
    # iterating ParityClass or calling ParityClass(...) goes through the enum
    # machinery; code that runs per matrix or per slope reads PARITY_CLASSES
    # and PARITY_BY_BITS instead, and only module-level tables may do either
    def is_enum(node):
        return isinstance(node, ast.Name) and node.id == "ParityClass"

    def uses_enum(node):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            return is_enum(node.iter)  # for cls in ParityClass
        if isinstance(node, ast.Starred):
            return is_enum(node.value)  # *ParityClass
        if isinstance(node, ast.Compare):
            return any(is_enum(right) for right in node.comparators)  # x in ParityClass
        if isinstance(node, ast.Call):  # ParityClass(bits), list(ParityClass), ...
            type_test = isinstance(node.func, ast.Name) and node.func.id in ("isinstance", "issubclass")
            return is_enum(node.func) or not type_test and any(map(is_enum, node.args))
        return False

    found = []
    for path in sorted((SRC / "solnorm").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = function.body
            elif isinstance(function, ast.Lambda):
                body = [function.body]
            else:
                continue
            found += [
                f"{path.name}:{getattr(function, 'name', 'lambda')}"
                for stmt in body for node in ast.walk(stmt) if uses_enum(node)
            ]
    assert not found


def test_reports_under_python_optimize():
    # two bundle cases (one with an off-axis certificate) and one semibundle
    # case, each as text and JSON, must match its recorded block with the
    # asserts that python -O drops gone
    transcript = REPORTS.read_text(encoding="utf-8")
    cases = [case for case in REPORT_CASES if case[1] in ("5,2;2,1", "4,1;-1,0", "3,1;2,1")]
    assert len(cases) == 3
    for kind, matrix, cap in cases:
        for as_json in (False, True):
            argv = report_argv(kind, matrix, cap, as_json)
            proc = subprocess.run(
                [sys.executable, "-O", "-m", "solnorm.cli", *argv], capture_output=True, text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
            )
            block = f"$ solnorm {' '.join(argv)}\n{proc.stdout}[exit {proc.returncode}]\n"
            assert block in transcript, (argv, proc.stderr)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    CENSUS_INPUT.write_text(census_input(), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["census", "--in", str(CENSUS_INPUT), "--out", str(CENSUS_CSV)]) == 0
    REPORTS.write_bytes(reports_transcript().encode("utf-8"))
    GRAPHS.write_bytes(graphs_transcript().encode("utf-8"))
    VERIFY_QUICK.write_bytes(verify_transcript().encode("utf-8"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
