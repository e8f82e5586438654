"""The command-line interface: output formats, exit codes, round-trips."""

import contextlib
import csv
import io
import itertools
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from helpers import reference_document, spell_at_most
from solnorm import bredon_wood, bundle, cli, curve_complex, oracle, semibundle
from solnorm.cli import DEFAULT_CERTIFICATE_CAP, census_row, main, render, to_canonical_json
from solnorm.curve_complex import (
    GL2Matrix,
    Slope,
    intersection_number,
    mat_act,
    parse_matrix,
    parse_slope,
)
from solnorm.errors import DomainError, ParseError

# det 1 with 4,300-digit entries, the most the parser takes; the trace 2n
# has 4,301 digits
_N = 10**4300 - 2
OVER_LIMIT_TRACE = f"{_N},{_N + 1};{_N - 1},{_N}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimpleCommands:
    # (argv, stdout) of one command each, with exit 0 and nothing on stderr
    OUTPUTS = [
        (("bw", "8", "3"), "2\n"),
        (("bw", "3", "5"), "inf\n"),
        (("dist", "0/1", "8/3"), "2\n"),
        (("dist", "0/1", "1/0"), "inf\n"),
        (("geodesic", "0/1", "4/3"), "0/1 -> 2/1 -> 4/3\n"),
        (("act", "--matrix", "1,0;2,1", "1/0"), "1/2\n"),
    ]

    @pytest.mark.parametrize("argv, stdout", OUTPUTS, ids=[f"{a[0]}-{i}" for i, (a, _) in enumerate(OUTPUTS)])
    def test_output_contract(self, capsys, argv, stdout):
        assert run(capsys, *argv) == (0, stdout, "")

    def test_leading_minus_arguments(self, capsys):
        # a token that does not start with "--" is a positional, and a
        # separate option value is the next token: "-1,0;..." and "-1/2"
        # read in every spelling, the documented "--" form included
        for argv in (("bundle", "--matrix=-1,0;2,-1"), ("bundle", "--matrix", "-1,0;2,-1")):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out.startswith("matrix: -1,0;2,-1\n"), argv
        for argv in (("dist", "--", "-1/2", "3/2"), ("dist", "-1/2", "3/2"), ("dist", "-1/2", "--", "3/2")):
            assert run(capsys, *argv) == (0, "2\n", ""), argv

    def test_export_graph(self, capsys):
        # 0/1 has about 10**12 neighbors within the larger bound; the ball
        # of radius 0 is the center alone, and nothing lists them
        for bound in ("5", "1000000000000"):
            code, out, _ = run(capsys, "export-graph", "--center", "0/1", "--radius", "0", "--bound", bound)
            assert code == 0 and out == 'graph {\n  "0/1";\n}\n', bound


def failure(argv, expected, fragment, on):
    """A test_failure_contract case, named by its command, its exit code
    and on, the input it fails on."""
    return pytest.param(argv, expected, fragment, id=f"{argv[0]}-{expected}-{on}")


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        for argv in (
            ("dist", "\u0661/\u0662", "0/1"),
            ("dist", "1_0/3", "0/1"),
            ("bundle", "--matrix", "1,0;\u0662,1"),
            ("semibundle", "--matrix", "1,0;1_0,1"),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "expected" in err, argv
        # an entry past Python's int-digit limit is named as such
        for argv in (("bundle", "--matrix", "1,0;" + "2" * 5000 + ",1"), ("dist", "1/" + "3" * 5000, "0/1")):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "int-digit limit" in err
        # integer arguments follow the same ASCII rule, as usage errors
        for argv in (
            ("bw", "\u0668", "1_1"),
            ("bw", "8", "\u0663"),
            ("bundle", "--matrix=1,0;2,1", "--certificate-cap", "1_0"),
            ("export-graph", "--center", "0/1", "--radius", "\u0661", "--bound", "5"),
            ("export-graph", "--center", "0/1", "--radius", "1", "--bound", "5_0"),
            # caps, radii and bounds are counts
            ("bundle", "--matrix=1,0;2,1", "--certificate-cap=-5"),
            ("export-graph", "--center", "0/1", "--radius", "-3", "--bound", "5"),
            ("export-graph", "--center", "0/1", "--radius", "1", "--bound", "-1"),
            # an argument whose whole text is "--"
            ("bw", "--", "1", "--"),
            ("bundle", "--matrix=1,0;2,1", "--certificate-cap=--"),
            ("export-graph", "--center", "0/1", "--radius=--", "--bound", "5"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and "expected an integer" in err, argv

    def test_output_over_digit_limit_is_one(self, capsys, tmp_path):
        # the input parses, but a number the command would print does not fit
        def refused(*argv):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.startswith("solnorm: ") and err.count("\n") == 1, argv
            assert "int-digit limit" in err, argv

        for kind in ("bundle", "semibundle"):
            refused(kind, f"--matrix={OVER_LIMIT_TRACE}")
            refused(kind, f"--matrix={OVER_LIMIT_TRACE}", "--json")
            infile = tmp_path / "in.txt"
            infile.write_text(f"bundle 1,0;2,1\n{kind} {OVER_LIMIT_TRACE}\n")
            refused("census", "--in", str(infile), "--out", str(tmp_path / "out.csv"))
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]
        C = GL2Matrix(5, 2, 2, 1).power(5000)
        refused("act", f"--matrix={C}", f"{C.a}/{C.b}")
        refused("bundle", f"--matrix={10**4000},0;0,{10**4000}")  # the determinant's digits

    # (argv, exit code, a fragment of the error line, the input it fails
    # on): each subcommand with each failure class that reaches it.
    # Integer arguments (bw's, caps, radii, bounds) are the reader's to
    # refuse, with its usage text; test_parse_error_is_two covers those.  A
    # census row's parse and domain errors name its line, once.
    FAILURES = [
        failure(("bw", "4", "2"), 1, "coprime", "4,2"),
        failure(("dist", "nonsense", "0/1"), 2, "got 'nonsense'", "nonsense"),
        failure(("dist", "4/2", "0/1"), 1, "4/2 is not reduced", "4/2"),
        failure(("geodesic", "0/1", "4/3/2"), 2, "got '4/3/2'", "4/3/2"),
        failure(("geodesic", "0/1", "1/0"), 1, "infinite distance", "0/1,1/0"),
        failure(("geodesic", "6/4", "0/1"), 1, "6/4 is not reduced", "6/4"),
        failure(("dist", "--", "0/1", "--"), 2, "got '--'", "slope--"),
        failure(("geodesic", "--", "0/1", "--"), 2, "got '--'", "slope--"),
        failure(("act", "--matrix=1,0;x,1", "1/0"), 2, "got 'x'", "1,0;x,1"),
        failure(("act", "--matrix=1,0;2,1", "1/x"), 2, "got '1/x'", "1/x"),
        failure(("act", "--matrix=2,0;0,1", "1/0"), 1, "determinant 2", "2,0;0,1"),
        failure(("act", "--matrix=1,0;2,1", "4/2"), 1, "4/2 is not reduced", "4/2"),
        failure(("bundle", "--matrix=1,0;2"), 2, "two entries per row", "1,0;2"),
        failure(("bundle", "--matrix", "2,0;0,1"), 1, "determinant 2", "2,0;0,1"),
        failure(("bundle", "--matrix=2,0;0,1", "--json"), 1, "determinant 2", "2,0;0,1-json"),
        failure(("semibundle", "--matrix=1,0,2,1", "--json"), 2, "got '1,0,2,1'", "1,0,2,1-json"),
        failure(("semibundle", "--matrix=3,0;0,3"), 1, "determinant 9", "3,0;0,3"),
        failure(("census", "--in", "{tmp}/parse.txt", "--out", "{tmp}/out.csv"), 2,
                "parse error: line 1: expected 'bundle", "parse.txt"),
        failure(("census", "--in", "{tmp}/entry.txt", "--out", "{tmp}/out.csv"), 2,
                "parse error: line 2: expected integer entry, got 'x'", "entry.txt"),
        failure(("census", "--in", "{tmp}/digit.txt", "--out", "{tmp}/out.csv"), 2,
                "parse error: line 2: expected integer entry, got '\u0662'", "digit.txt"),
        failure(("census", "--in", "{tmp}/long.txt", "--out", "{tmp}/out.csv"), 2,
                "parse error: line 2: integer entry over Python's int-digit limit", "long.txt"),
        failure(("census", "--in", "{tmp}/domain.txt", "--out", "{tmp}/out.csv"), 1,
                "solnorm: line 2: matrix 2,0;0,1 has determinant 2", "domain.txt"),
        failure(("census", "--in", "{tmp}/trace.txt", "--out", "{tmp}/out.csv"), 1,
                "solnorm: line 2: trace over Python's int-digit limit", "trace.txt"),
        failure(("census", "--in", "{tmp}/missing.txt", "--out", "{tmp}/out.csv"), 4, "missing.txt", "missing.txt"),
        failure(("census", "--in", "{tmp}/parse.txt", "--out", "{tmp}/no-such-dir/out.csv"), 4, "no-such-dir",
                "no-such-dir"),
        failure(("census", "--in", "{tmp}/latin1.txt", "--out", "{tmp}/out.csv"), 4, "is not UTF-8 text",
                "latin1.txt"),
        failure(("export-graph", "--center", "0/", "--radius", "1", "--bound", "5"), 2, "got '0/'", "0/"),
        failure(("export-graph", "--center", "4/2", "--radius", "1", "--bound", "5"), 1, "4/2 is not reduced",
                "4/2"),
        failure(("export-graph", "--center", "0/1", "--radius", "3", "--bound", str(10**20)), 1,
                "too many to list", "bound-10**20"),
    ]

    def test_failure_contract_names_are_unique(self):
        names = [case.id for case in self.FAILURES]
        assert len(set(names)) == len(names)

    @pytest.mark.parametrize("argv, expected, fragment", FAILURES)
    def test_failure_contract(self, capsys, tmp_path, argv, expected, fragment):
        inputs = {
            "parse.txt": b"wibble 1,0;2,1\n",
            "entry.txt": b"bundle 1,0;2,1\nbundle 1,0;x,1\n",
            "digit.txt": "bundle 1,0;2,1\nbundle 1,0;\u0662,1\n".encode(),
            "long.txt": f"bundle 1,0;2,1\nsemibundle 1,0;{'2' * 4301},1\n".encode(),
            "domain.txt": b"bundle 1,0;2,1\nbundle 2,0;0,1\n",
            "trace.txt": f"# a comment\nsemibundle {OVER_LIMIT_TRACE}\n".encode(),
            "latin1.txt": "# caf\u00e9\nbundle 1,0;2,1\n".encode("latin-1"),
        }
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        assert code == expected and out == ""
        assert err.startswith("solnorm: ") and err.count("\n") == 1 and "Traceback" not in err
        assert fragment in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)  # nothing written

    def test_geodesic_too_long_to_list_is_one(self, capsys, monkeypatch):
        # 10**12 edges: walked and checked as one run, then refused before
        # a vertex is spelled, so the cost is bounded whatever the memory
        spell_at_most(monkeypatch, 0)
        code, out, err = run(capsys, "geodesic", "1/0", "1/2000000000000")
        assert (code, out) == (1, "")
        assert err == (f"solnorm: geodesic from 1/0 to 1/2000000000000 is longer than "
                       f"{curve_complex.MAX_PATH_EDGES} edges, too long to list\n")

    @pytest.mark.parametrize("bound", ["1000000000000", "1" + "0" * 30])
    def test_export_graph_too_large_to_list_is_one(self, capsys, bound):
        # as many neighbors of 0/1 within the bound: refused before they
        # are enumerated, with the certificates' listing limit; the family
        # of 2 * 10**30 + 1 candidates is longer than len can measure
        code, out, err = run(capsys, "export-graph", "--center", "0/1", "--radius", "1", "--bound", bound)
        assert (code, out) == (1, "")
        assert err == (f"solnorm: ball of radius 1 around 0/1 within |p|, |q| <= {bound} has more than "
                       f"{curve_complex.MAX_PATH_EDGES} edges, too many to list\n")

    @pytest.mark.parametrize("as_json", [[], ["--json"]])
    @pytest.mark.parametrize("kind", ["bundle", "semibundle"])
    def test_a_certificate_too_long_to_list_is_elided_or_one(self, capsys, monkeypatch, kind, as_json):
        # the shear's certificates of 2 * 10**12 + 1 edges are walked and
        # checked as one run each; a cap under that length elides them, and
        # one that would print them meets the listing limit before any
        # vertex is spelled or any output written
        spell_at_most(monkeypatch, 0)
        argv = [kind, "--matrix=1,0;4000000000002,1", *as_json]
        elided = '"certificate": "elided"' if as_json else "Pi_2000000000003; certificate: (elided)"
        for cap in ([], ["--certificate-cap=2000000"]):
            code, out, err = run(capsys, *argv, *cap)
            assert (code, err) == (0, "") and elided in out
        code, out, err = run(capsys, *argv, "--certificate-cap=2000000000001")
        assert (code, out) == (1, "")
        assert err == (f"solnorm: geodesic from 1/0 to 1/4000000000002 is longer than "
                       f"{curve_complex.MAX_PATH_EDGES} edges, too long to list\n")

    def test_geodesic_text_over_the_digit_limit_is_one(self, capsys, monkeypatch):
        # the slopes parse under the default limit, which is then lowered
        # to 640 digits before the path is printed: the 701-digit entries
        # of 1/0, (2X+1)/2, (4X+1)/4, (6X+1)/6 end in exit 1, one line
        X = 10**700
        plain = cli.geodesic_path

        def lowering(s1, s2):
            path = plain(s1, s2)
            sys.set_int_max_str_digits(640)
            return path

        monkeypatch.setattr(cli, "geodesic_path", lowering)
        limit = sys.get_int_max_str_digits()
        try:
            code, out, err = run(capsys, "geodesic", "1/0", f"{6 * X + 1}/6")
        finally:
            sys.set_int_max_str_digits(limit)
        assert (code, out) == (1, "")
        assert err.startswith("solnorm: slope entry over Python's int-digit limit: ") and err.count("\n") == 1

    def test_unknown_command_is_two(self, capsys):
        code, out, err = run(capsys, "frobnicate")
        assert (code, out) == (2, "")
        # solnorm's own usage error, not a subcommand's
        assert err.startswith("usage: solnorm [-h]") and "invalid choice: 'frobnicate'" in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_a_closed_stdout_ends_the_command_by_sigpipe():
    # the geodesic's 100,001 vertices are far more than a pipe holds, so
    # solnorm is still writing when the reader closes its end
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "solnorm.cli", "geodesic", "1/0", "1/200000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(7)
        proc.stdout.close()
        err = proc.stderr.read()
        status = proc.wait(timeout=60)
    assert (head, status, err) == (b"1/0 -> ", -signal.SIGPIPE, b"")


# The reader's decisions, one row each: (argv, exit code, stdout, stderr).
_TOP_USAGE = "usage: solnorm [-h] {bw,dist,geodesic,act,bundle,semibundle,census,export-graph,verify} ...\n"
_BW_USAGE = "usage: solnorm bw [-h] p q\n"
_BUNDLE_USAGE = "usage: solnorm bundle [-h] --matrix MATRIX [--json] [--certificate-cap CERTIFICATE_CAP]\n"
_GRAPH_USAGE = "usage: solnorm export-graph [-h] --center CENTER --radius RADIUS --bound BOUND\n"
_VERIFY_USAGE = "usage: solnorm verify [-h] [--level {quick,full}]\n"
_TOP_HELP = _TOP_USAGE + """
Z2-Thurston norms and non-orientable genus bounds for torus bundles and
semi-bundles

commands:
  bw                    Bredon-Wood invariant N(p, q)
  dist                  distance between two slopes in the curve complex
  geodesic              the unique tree path between two same-parity slopes
  act                   image of a slope under a matrix
  bundle                full norm report for a torus bundle
  semibundle            full norm report for a torus semibundle
  census                CSV summary for a file of matrices
  export-graph          DOT text for a ball in the curve complex
  verify                run the brute-force verification suites

options:
  -h, --help            show this help message and exit
"""
_BW_HELP = _BW_USAGE + """
Bredon-Wood invariant N(p, q)

positional arguments:
  p
  q

options:
  -h, --help            show this help message and exit
"""
_BUNDLE_HELP = _BUNDLE_USAGE + """
full norm report for a torus bundle

options:
  -h, --help            show this help message and exit
  --matrix MATRIX       row-major "a,c;b,d"
  --json
  --certificate-cap CERTIFICATE_CAP
                        elide certificates longer than this (default 10000)
"""
_VERIFY_HELP = _VERIFY_USAGE + """
run the brute-force verification suites

options:
  -h, --help            show this help message and exit
  --level {quick,full}
"""
_CHOICES = "'bw', 'dist', 'geodesic', 'act', 'bundle', 'semibundle', 'census', 'export-graph', 'verify'"


def decision(argv, code, stdout, stderr, name):
    return pytest.param(argv, code, stdout, stderr, id=name)


DECISIONS = [
    # -h/--help: first, solnorm's help; after a command and before "--", the command's
    decision(["-h"], 0, _TOP_HELP, "", "help-first"),
    decision(["--help", "bundle"], 0, _TOP_HELP, "", "long-help-first"),
    decision(["bw", "-h"], 0, _BW_HELP, "", "help-after-command"),
    decision(["bundle", "--matrix=1,0;2,1", "--help"], 0, _BUNDLE_HELP, "", "help-after-arguments"),
    decision(["verify", "-h", "--level=slow"], 0, _VERIFY_HELP, "", "help-before-an-error"),
    decision(["bw", "--", "-h", "2"], 2, "", _BW_USAGE + "solnorm bw: error: argument p: expected an integer, "
             "got '-h'\n", "help-after-double-dash"),
    # "--" ends the options
    decision(["geodesic", "--", "0/1", "4/3"], 0, "0/1 -> 2/1 -> 4/3\n", "", "double-dash"),
    decision(["dist", "--", "-1/2", "3/2"], 0, "2\n", "", "double-dash-minus-slope"),
    decision(["bundle", "--", "--matrix=1,0;2,1"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: unrecognized "
             "arguments: --matrix=1,0;2,1\n", "option-after-double-dash"),
    # a token that does not start with "--" is a positional
    decision(["bw", "-8", "3"], 0, "2\n", "", "negative-positional"),
    decision(["dist", "-1/2", "3/2"], 0, "2\n", "", "minus-slope-positional"),
    # a separate option value is the next token, whatever it starts with
    decision(["act", "--matrix", "-1,0;2,-1", "1/0"], 0, "-1/2\n", "", "minus-option-value"),
    decision(["bundle", "--matrix", "-h"], 2, "", "solnorm: parse error: expected 'a,c;b,d', got '-h'\n",
             "help-as-option-value"),
    # an empty value goes to the command's own parser
    decision(["bundle", "--matrix="], 2, "", "solnorm: parse error: expected 'a,c;b,d', got ''\n", "empty-value"),
    # usage errors: the usage line, then the error
    decision([], 2, "", _TOP_USAGE + "solnorm: error: the following arguments are required: command\n",
             "no-command"),
    decision(["frobnicate"], 2, "", _TOP_USAGE + "solnorm: error: argument command: invalid choice: 'frobnicate' "
             f"(choose from {_CHOICES})\n", "unknown-command"),
    decision(["--he"], 2, "", _TOP_USAGE + "solnorm: error: argument command: invalid choice: '--he' "
             f"(choose from {_CHOICES})\n", "abbreviated-help"),
    decision(["bundle", "--mat=1,0;2,1"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: unrecognized arguments: "
             "--mat=1,0;2,1\n", "abbreviation"),
    decision(["bundle", "--matrix=1,0;2,1", "--matrix", "0,1;1,0"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: "
             "argument --matrix: given twice\n", "doubled-option"),
    decision(["bundle", "--json", "--matrix=1,0;2,1", "--json"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: "
             "argument --json: given twice\n", "doubled-flag"),
    decision(["bundle", "--matrix=1,0;2,1", "--json=1"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: "
             "argument --json: ignored explicit argument '1'\n", "equals-on-a-flag"),
    decision(["bundle", "--matrix=1,0;2,1", "--frob"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: "
             "unrecognized arguments: --frob\n", "unknown-option"),
    decision(["bundle", "--matrix"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: argument --matrix: expected "
             "one argument\n", "missing-value"),
    decision(["bundle", "--json"], 2, "", _BUNDLE_USAGE + "solnorm bundle: error: the following arguments are "
             "required: --matrix\n", "missing-option"),
    decision(["act", "--matrix=1,0;2,1"], 2, "", "usage: solnorm act [-h] --matrix MATRIX slope\nsolnorm act: "
             "error: the following arguments are required: slope\n", "missing-positional"),
    decision(["export-graph", "--center", "0/1"], 2, "", _GRAPH_USAGE + "solnorm export-graph: error: the "
             "following arguments are required: --radius, --bound\n", "missing-options"),
    decision(["bw", "1", "2", "3", "4"], 2, "", _BW_USAGE + "solnorm bw: error: unrecognized arguments: 3 4\n",
             "extra-positionals"),
    decision(["export-graph", "--bound=5", "3/4"], 2, "", _GRAPH_USAGE + "solnorm export-graph: error: "
             "unrecognized arguments: 3/4\n", "extra-before-missing"),
    decision(["bw", "x", "2"], 2, "", _BW_USAGE + "solnorm bw: error: argument p: expected an integer, got 'x'\n",
             "unconvertible"),
    decision(["bundle", "--matrix=1,0;2,1", "--certificate-cap", "-1"], 2, "", _BUNDLE_USAGE + "solnorm bundle: "
             "error: argument --certificate-cap: expected an integer >= 0, got '-1'\n", "negative-count"),
    decision(["verify", "--level", "slow"], 2, "", _VERIFY_USAGE + "solnorm verify: error: argument --level: "
             "invalid choice: 'slow' (choose from 'quick', 'full')\n", "outside-the-choices"),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", DECISIONS)
def test_the_reader_decides(capsys, argv, code, stdout, stderr):
    assert run(capsys, *argv) == (code, stdout, stderr)


def test_help_and_usage_errors_ignore_the_terminal_width(capsys, monkeypatch):
    printed = []
    for columns in ("20", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        printed.append([run(capsys, *argv) for argv in (["-h"], ["bundle", "-h"], [], ["bundle", "--mat=1,0;2,1"])])
    assert printed[0] == printed[1]


# argv for every subcommand, drawn from a well-formed one: each option
# given once, or left out where it may be, in any order, as --opt value or
# --opt=value, with a value the command takes, and the positionals in
# their order among the options or after a "--".  Or one defect turns it
# into a request for help or a usage error.  census only ever gets
# relative file names, so it reads and writes inside the test's directory.
_INTS, _COUNTS = ["0", "1", "3", "-3", "12"], ["0", "1", "3"]
_SLOPES = ["0/1", "1/0", "4/3", "2/1", "-1/2", "6/4"]
_MATRICES = ["1,0;2,1", "-1,0;2,-1", "0,1;1,0", "3,1;8,3", "2,0;0,1"]
_REPORT = [("--matrix", _MATRICES), ("--json", None), ("--certificate-cap", _COUNTS)]
# each subcommand's arguments: (name, its values, or None for a flag)
_SPECS = {
    "bw": [("p", _INTS), ("q", _INTS)],
    "dist": [("slope1", _SLOPES), ("slope2", _SLOPES)],
    "geodesic": [("slope1", _SLOPES), ("slope2", _SLOPES)],
    "act": [("--matrix", _MATRICES), ("slope", _SLOPES)],
    "bundle": _REPORT,
    "semibundle": _REPORT,
    "census": [("--in", ["in.txt", "latin1.txt", "missing.txt"]), ("--out", ["out.csv", "no-dir/out.csv"])],
    "export-graph": [("--center", _SLOPES), ("--radius", _COUNTS), ("--bound", _COUNTS)],
    "verify": [("--level", ["quick", "full"])],
}
# the attribute of each argument not read into its name, the default of
# each that may be left out, the arguments read as ints, and the values
# each typed argument refuses
_DESTS = {"--in": "in_path", "--out": "out_path", "--certificate-cap": "certificate_cap"}
_DEFAULTS = {"--json": False, "--certificate-cap": DEFAULT_CERTIFICATE_CAP, "--level": "quick"}
_INTEGERS = {"p", "q", "--certificate-cap", "--radius", "--bound"}
_NOT_INTS = ["x", "", "1_0", "\u0661", "1.0", "2" * 5000]
_REFUSED = {**{name: _NOT_INTS for name in ("p", "q")},
            **{name: [*_NOT_INTS, "-1"] for name in ("--certificate-cap", "--radius", "--bound")},
            "--level": ["slow", "Quick", ""]}


@st.composite
def _argvs(draw):
    """(argv, the attributes _dispatch must be called with), or for an argv
    with a defect (argv, (its exit code, the command whose usage line it
    prints first, None for solnorm's own))."""
    command = draw(st.sampled_from(list(_SPECS)))
    specs = _SPECS[command]
    options = [name for name, _ in specs if name.startswith("--")]
    targets = {"help": [None], "unknown": [None], "extra": [None], "command": [None],
               "doubled": options, "abbreviated": options,
               "missing": [name for name, _ in specs if name not in _DEFAULTS],
               "refused": [name for name, _ in specs if name in _REFUSED]}
    defect = draw(st.one_of(st.none(), st.sampled_from([defect for defect, names in targets.items() if names])))
    target = defect and draw(st.sampled_from(targets[defect]))
    attributes, groups, positionals = {"command": command}, [], []
    for name, values in specs:
        dest = _DESTS.get(name, name.lstrip("-"))
        if (name, defect) == (target, "missing") or (name != target and name in _DEFAULTS and draw(st.booleans())):
            attributes[dest] = _DEFAULTS.get(name)
            continue
        value = None
        if (name, defect) == (target, "refused"):
            value = draw(st.sampled_from(_REFUSED[name]))
        elif values is None:
            attributes[dest] = True
        else:
            value = draw(st.sampled_from(values))
            attributes[dest] = int(value) if name in _INTEGERS else value
        if not name.startswith("--"):
            positionals.append(value)
            continue
        written = name[:-1] if (name, defect) == (target, "abbreviated") else name
        group = [written] if values is None else draw(st.sampled_from([[written, value], [f"{written}={value}"]]))
        groups += [group, group] if (name, defect) == (target, "doubled") else [group]
    if defect in ("help", "unknown"):  # "=" on a flag is an unknown spelling
        unknown = ["--frob", "--frob=1", *(["--json=1"] if command in cli.KINDS else [])]
        groups.append([draw(st.sampled_from(["-h", "--help"] if defect == "help" else unknown))])
    if defect == "extra":
        positionals.append("extra")
    if positionals and draw(st.booleans()):  # the options, then "--" and the positionals
        groups = [*draw(st.permutations(groups)), ["--", *positionals]]
    else:  # the positionals in their order among the options
        rest = iter(positionals)
        groups = [group or [next(rest)] for group in draw(st.permutations([*groups, *[None] * len(positionals)]))]
    argv = [command, *itertools.chain.from_iterable(groups)]
    if defect == "command":
        argv[:1] = draw(st.sampled_from([[], ["frobnicate"], ["bund"], ["--he"], ["-x"], ["--"]]))
    if defect is None:
        return argv, attributes
    return argv, (0 if defect == "help" else 2, None if defect == "command" else command)


@settings(max_examples=200)
@given(_argvs())
# an empty value is the command's to refuse; a "--" positional after the
# "--" that ends the options; a "-" value; "=" in a value
@example((["semibundle", "--matrix="], {"command": "semibundle", "matrix": "", "json": False,
                                        "certificate_cap": DEFAULT_CERTIFICATE_CAP}))
@example((["dist", "--", "0/1", "--"], {"command": "dist", "slope1": "0/1", "slope2": "--"}))
@example((["bw", "--", "1", "--"], (2, "bw")))
@example((["bundle", "--matrix", "-", "--certificate-cap", "-0"], {"command": "bundle", "matrix": "-",
                                                                   "json": False, "certificate_cap": 0}))
@example((["census", "--in=a=b", "--out", "o.csv"], {"command": "census", "in_path": "a=b", "out_path": "o.csv"}))
def test_the_reader_reads_well_formed_argv_and_refuses_the_rest(tmp_path_factory, case):
    # a well-formed argv reaches _dispatch once, with the drawn values, and
    # the command runs to an exit code of 0 to 4; any other prints the
    # usage line first and never reaches _dispatch.  verify's checks are
    # stubbed, so only its arguments are read
    argv, expected = case
    work = tmp_path_factory.getbasetemp() / "argv"
    if not work.exists():
        work.mkdir()
        (work / "in.txt").write_text("bundle 1,0;2,1\nsemibundle 0,1;1,0\n")
        (work / "latin1.txt").write_bytes("# caf\u00e9\nbundle 1,0;2,1\n".encode("latin-1"))
    dispatched = []
    plain = cli._dispatch
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.chdir(work)
        patch.setattr(oracle, "run_checks", lambda level: [])
        patch.setattr(cli, "_dispatch", lambda args: dispatched.append(vars(args)) or plain(args))
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    if isinstance(expected, dict):
        assert dispatched == [expected] and code in range(5)
        return
    expected_code, command = expected
    printed, silent = (out, err) if expected_code == 0 else (err, out)
    assert (code, dispatched, silent.getvalue()) == (expected_code, [], "")
    prog = "solnorm" if command is None else f"solnorm {command}"
    assert printed.getvalue().startswith(f"usage: {prog} [-h] ")
    if expected_code:  # the usage line and the error, one line each
        _, error, end = printed.getvalue().split("\n")
        assert error.startswith(f"{prog}: error: ") and end == ""


class TestReports:
    def test_bundle_text(self, capsys):
        code, out, _ = run(capsys, "bundle", "--matrix", "1,0;2,1")
        assert code == 0
        assert "mog: 3" in out and "meg: 4" in out
        assert "geometry: Nil" in out
        assert "Pi_3" in out and "certificate: 1/0 -> 1/2" in out

    def test_semibundle_text(self, capsys):
        code, out, _ = run(capsys, "semibundle", "--matrix", "0,1;1,0")
        assert code == 0
        assert "mog: inf" in out and "meg: 2" in out
        assert "norm 0" in out and "norm 1" not in out

    def test_bundle_json_is_valid_and_infinity_is_a_string(self, capsys):
        code, out, _ = run(capsys, "bundle", "--matrix", "0,-1;1,0", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["mog"] == 3
        assert doc["translation_lengths"]["1/0"] == "inf"
        assert doc["meg"] == 4

    def test_json_roundtrip_reproduces_bytes(self):
        for kind in ("bundle", "semibundle"):
            for text in ("1,0;2,1", "0,1;1,0", "3,1;8,3", "0,-1;1,0"):
                first = to_canonical_json(kind, parse_matrix(text), DEFAULT_CERTIFICATE_CAP)
                parsed = json.loads(first)
                assert parsed["kind"] == kind
                again = to_canonical_json(kind, parse_matrix(parsed["matrix"]), DEFAULT_CERTIFICATE_CAP)
                assert first.encode() == again.encode()

    def test_semibundle_with_large_partial_quotient(self, capsys):
        code, out, _ = run(capsys, "semibundle", "--matrix=200001,100000;2,1")
        assert code == 0
        assert out.count("norm 1") == 4 and out.count("certificate: 1/0 -> 200001/2") == 4

    def test_entry_over_digit_limit_is_a_domain_error(self):
        A = GL2Matrix(1, 0, 2 * 10**4400, 1)
        for kind in ("bundle", "semibundle"):
            with pytest.raises(DomainError, match="int-digit limit"):
                to_canonical_json(kind, A, 10)
            with pytest.raises(DomainError, match="int-digit limit"):
                render(kind, A, 10)
        # entries within the limit, trace 2n one digit over it
        B = parse_matrix(OVER_LIMIT_TRACE)
        for kind in ("bundle", "semibundle"):
            for build in (lambda: to_canonical_json(kind, B, 10), lambda: render(kind, B, 10),
                          lambda: census_row(kind, B)):
                with pytest.raises(DomainError, match="trace over Python's int-digit limit"):
                    build()
        # a slope image over the limit
        C = GL2Matrix(5, 2, 2, 1).power(5000)
        with pytest.raises(DomainError, match="slope entry over Python's int-digit limit"):
            str(mat_act(C, Slope(C.a, C.b)))

    def test_each_certificate_is_rendered_once(self, monkeypatch):
        # counts the vertices of the paths given to TreePath.text, the one
        # method that formats certificates, per text report and per JSON
        # report written
        calls = 0
        plain = curve_complex.TreePath.text

        def counting(path, separator):
            nonlocal calls
            calls += len(path)
            return plain(path, separator)

        monkeypatch.setattr(curve_complex.TreePath, "text", counting)
        # (kind, matrix, slopes rendered): the semi-bundle's one certificate,
        # of N(2k, 1) edges, sits in four rows at two indents; a bundle's in
        # two (t = 0, 1)
        cases = [
            ("semibundle", GL2Matrix(1, 0, 2 * k, 1), bredon_wood(2 * k, 1) + 1) for k in (3, 50)
        ]
        cases += [
            ("bundle", parse_matrix("41,29;58,41"), 5 + 1),  # l[1/0] = 5, the one fixed class
            ("bundle", GL2Matrix(5, 2, 2, 1).power(3), (3 + 1) + (3 + 1) + (6 + 1)),
        ]
        for kind, A, expected in cases:
            for build in (lambda: to_canonical_json(kind, A, 10000), lambda: render(kind, A, 10000)):
                calls = 0
                build()
                assert calls == expected, (kind, A)

    @pytest.mark.parametrize("kind, matrix", [
        ("semibundle", "1,0;16002,1"),  # one run of 8,001 edges, in four rows
        ("bundle", "1,0;16002,1"),  # l[1/0] = 8,001: the same run, in two rows
        ("semibundle", "-1,0;8002,-1"),
    ])
    def test_shear_reports_build_no_run_vertex(self, monkeypatch, kind, matrix):
        # a shear's certificate is one long run: the realizer's checks read
        # its ends off the run, and text and JSON format it straight from
        # the run's progressions, so no run is spelled out as slopes
        A = parse_matrix(matrix)
        text, json_text = render(kind, A, 10000), to_canonical_json(kind, A, 10000)
        rendered = 0
        plain = curve_complex._progression

        def counting(start, step, count):
            nonlocal rendered
            rendered += count
            return plain(start, step, count)

        def refuse(*run):
            pytest.fail(f"the report built the vertices of the run {run}")

        monkeypatch.setattr(curve_complex, "_progression", counting)
        monkeypatch.setattr(curve_complex, "_run_vertices", refuse)
        # compared outside the assert: no slow diff of 100 kB texts
        same = render(kind, A, 10000) == text and to_canonical_json(kind, A, 10000) == json_text
        assert same
        assert rendered >= 2 * 4000

    # Base vertices far from the fixed set or the axis: d(1/0, A(1/0)) is
    # 2 * 10**12 for the rotation and 2 * 10**12 + 1 for P W P^-1 with
    # P = 1,0;2k,1, W = 1,2;2,5, k = 10**12.  Each report jumps to the axis.
    @pytest.mark.parametrize("matrix", [
        "1,0;4000000000000,-1",
        "-3999999999999,2;-8000000000007999999999998,4000000000005",
    ])
    @pytest.mark.parametrize("cap, limit", [([], 10**4), (["--certificate-cap=0"], 0),
                                            (["--certificate-cap=1"], 1)])
    def test_far_from_the_axis_reports_finish(self, capsys, matrix, cap, limit):
        A = parse_matrix(matrix)
        code, text, _ = run(capsys, "bundle", f"--matrix={matrix}", *cap)
        assert code == 0
        code, out, _ = run(capsys, "bundle", f"--matrix={matrix}", "--json", *cap)
        assert code == 0
        doc = json.loads(out)
        lengths = [n for n in doc["translation_lengths"].values() if n != "inf"]
        certificates = []
        for entry in doc["norm_table"]:
            for realizer in [entry["realizer"], *entry["realizer"].get("pieces", [])]:
                if isinstance(realizer.get("certificate"), list):
                    certificates.append((entry["norm"], realizer["certificate"]))
        kept = sum(0 < n <= limit for n in lengths)
        assert len(certificates) == 2 * kept  # each shown in the t = 0 and t = 1 rows
        for norm, texts in certificates:
            slopes = [parse_slope(t) for t in texts]
            assert len(slopes) == norm + 1 and norm in lengths
            assert slopes[-1] == mat_act(A, slopes[0])
            assert all(intersection_number(u, v) == 2 for u, v in zip(slopes, slopes[1:]))
            assert f"certificate: {' -> '.join(texts)}" in text

    def test_certificate_cap_flag(self, capsys):
        code, out, _ = run(capsys, "bundle", "--matrix", "1,0;30,1", "--certificate-cap", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        pis = [e for e in doc["norm_table"] if e["realizer"].get("certificate") == "elided"]
        assert pis


@st.composite
def _reports(draw):
    """(kind, matrix, cap) of a report: an oracle.random_glz word A of up to
    30 letters, times (1,0;0,-1) on a drawn bit so that both determinants
    come, conjugated by a power of up to 150 of another word, which puts
    up to a few hundred digits into the entries."""
    A = oracle.random_glz(draw(st.integers(0, 2**48)), draw(st.integers(0, 30)))
    if draw(st.booleans()):
        A = A @ GL2Matrix(1, 0, 0, -1)
    P = oracle.random_glz(draw(st.integers(0, 2**48)), draw(st.integers(0, 30)))
    P = P.power(draw(st.integers(0, 150)))
    kind = draw(st.sampled_from(("bundle", "semibundle")))
    return kind, P @ A @ P.inverse(), draw(st.sampled_from((0, 1, DEFAULT_CERTIFICATE_CAP)))


class TestCanonicalJson:
    """to_canonical_json writes the bytes of json.dumps(reference,
    sort_keys=True, indent=2) + "\n", where reference_document builds the
    report as a dict of plain JSON values with each certificate as a list
    of str of its slopes: an independent encoder of the same records."""

    # without the shrink phase a wrong writer fails in seconds: its input
    # is seeds, which shrink to nothing clearer; every example is kept
    @settings(max_examples=150, deadline=None, phases=[p for p in Phase if p is not Phase.shrink])
    @given(_reports())
    def test_matches_json_dumps(self, report):
        kind, A, cap = report
        expected = json.dumps(reference_document(kind, A, cap), sort_keys=True, indent=2) + "\n"
        assert to_canonical_json(kind, A, cap) == expected

    @pytest.mark.parametrize("kind, matrix, end, rows", [
        ("semibundle", "1,0;16002,1", "1/16002", 4),  # one certificate in four rows
        # l[1/0]'s certificate, in the t = 0 and 1 rows, and l[1/1]'s
        ("bundle", "-1,0;8002,-1", "-1/8002", 2),
    ])
    def test_a_shared_certificate_is_quoted_once(self, monkeypatch, kind, matrix, end, rows):
        # the writer formats each certificate of a report once, in one
        # block, and quotes none of its slopes one by one; a row at another
        # indent (a piece of a sum, one level deeper) reuses that block
        A = parse_matrix(matrix)
        reference = reference_document(kind, A, 10000)
        expected = json.dumps(reference, sort_keys=True, indent=2) + "\n"
        realizers = [entry["realizer"] for entry in reference["norm_table"]]
        realizers += [piece for realizer in realizers for piece in realizer.get("pieces", [])]
        certificates = len({tuple(r["certificate"]) for r in realizers if isinstance(r.get("certificate"), list)})
        quoted, formatted = [], []
        plain_quote, plain_text = cli._quote, curve_complex.TreePath.text
        monkeypatch.setattr(cli, "_quote", lambda s: quoted.append(s) or plain_quote(s))
        monkeypatch.setattr(curve_complex.TreePath, "text",
                            lambda path, separator: formatted.append(path) or plain_text(path, separator))
        text = to_canonical_json(kind, A, 10000)
        # compared outside the assert: pytest's diff of two different
        # 100 kB texts takes minutes
        same = text == expected
        assert same
        assert text.count(f'"{end}"') == rows
        assert end not in quoted and len(set(map(id, formatted))) == len(formatted) == certificates

    # one matrix of each periodic class A1..A7, Nil of both traces, and
    # Sol-Anosov of both determinants: each geometry, H_2 case and row
    # shape of the writer, on every run and not only when a draw hits it
    @pytest.mark.parametrize("matrix", [
        *(A.to_text() for A in oracle.PERIODIC_REPRESENTATIVES.values()),
        "1,0;2,1", "-1,0;2,-1", "2,1;1,1", "5,2;2,1", "1,1;1,0",
    ])
    @pytest.mark.parametrize("kind", ["bundle", "semibundle"])
    def test_each_geometry_matches_json_dumps(self, kind, matrix):
        A = parse_matrix(matrix)
        expected = json.dumps(reference_document(kind, A, DEFAULT_CERTIFICATE_CAP), sort_keys=True, indent=2) + "\n"
        assert to_canonical_json(kind, A, DEFAULT_CERTIFICATE_CAP) == expected


class TestRecord:
    @pytest.mark.parametrize("write", [
        lambda kind, A: render(kind, A, DEFAULT_CERTIFICATE_CAP),
        lambda kind, A: to_canonical_json(kind, A, DEFAULT_CERTIFICATE_CAP),
        census_row,
    ], ids=["render", "to_canonical_json", "census_row"])
    @pytest.mark.parametrize("kind", ["bundle", "semibundle"])
    def test_each_writer_builds_one_summary(self, monkeypatch, kind, write):
        # every report is written from the one record _record builds: no
        # writer or norm table works its summary out a second time
        calls = []
        module = cli.KINDS[kind]
        plain = module.summary
        monkeypatch.setattr(module, "summary", lambda A: calls.append(A) or plain(A))
        write(kind, parse_matrix("5,2;2,1"))
        assert len(calls) == 1


# A census line as its parts, each with its right spellings and its near
# misses (no gap, a padded or doubled mark, a sign alone, a non-ASCII
# digit, trailing text), with whitespace from several scripts.  The
# entries are those of a matrix of determinant 1 or -1, or of 2.
_CENSUS_SPACE = ["", " ", "\t", "\x1c", "\xa0", "\u3000", "\n"]
_CENSUS_MATRICES = [("1", "0", "2", "1"), ("0", "1", "1", "0"), ("2", "1", "+1", "1"), ("-1", "0", "2", "-1"),
                    ("01", "0", "0", "-1"), ("0", "-1", "1", "0"), ("-2", "-1", "-1", "-1"), ("2", "0", "0", "1")]
_CENSUS_ENTRY_MISSES = ["", "+", "+-1", "\u0661", "1\u0661", "1 ", "\t1"]
_CENSUS_PARTS = [  # (right spellings or None for an entry, near misses)
    (_CENSUS_SPACE, ["#", "x"]),
    (["bundle", "semibundle"], ["bundles", "Bundle", "#", "# bundle", ""]),
    ([" ", "\t", " \x1c", "\xa0", "\u3000"], ["", ","]),
    (None, _CENSUS_ENTRY_MISSES), ([","], [" ,", ", ", ",,", ";", ""]),
    (None, _CENSUS_ENTRY_MISSES), ([";"], ["; ", "\t;", ",", ";;"]),
    (None, _CENSUS_ENTRY_MISSES), ([","], [",\xa0", ";", ""]),
    (None, _CENSUS_ENTRY_MISSES), (["\n", "", "\r\n", " \x1c\n", "\t"], [" x\n", " #\n", ",\n"]),
]


@st.composite
def _census_lines(draw):
    """A census line with at most two parts missed, or the grammar's
    pieces in any order."""
    if draw(st.booleans()):
        pieces = ["bundle", "semibundle", "#", ",", ";", "+", "-", "0", "1", "\u0661", *_CENSUS_SPACE]
        return "".join(draw(st.lists(st.sampled_from(pieces), max_size=12)))
    entries = iter(draw(st.sampled_from(_CENSUS_MATRICES)))
    parts = [next(entries) if right is None else draw(st.sampled_from(right)) for right, _ in _CENSUS_PARTS]
    for i in draw(st.lists(st.integers(0, len(parts) - 1), max_size=2)):
        parts[i] = draw(st.sampled_from(_CENSUS_PARTS[i][1]))
    return "".join(parts)


class TestCensus:
    def test_census_roundtrip(self, tmp_path, capsys):
        infile = tmp_path / "matrices.txt"
        outfile = tmp_path / "census.csv"
        infile.write_text(
            "# sample census\n"
            "bundle 1,0;2,1\n"
            "\n"
            "semibundle 0,1;1,0\n"
            "bundle 0,-1;1,0\n"
        )
        code, out, _ = run(capsys, "census", "--in", str(infile), "--out", str(outfile))
        assert code == 0 and "3 rows" in out
        with open(outfile, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3
        assert rows[0]["matrix"] == "1,0;2,1"
        assert rows[0]["kind"] == "bundle"
        assert rows[0]["norms"] == "0|0|0|0|1|1|1|1"
        assert rows[0]["mog"] == "3" and rows[0]["meg"] == "4"
        assert rows[1]["kind"] == "semibundle"
        assert rows[1]["geometry"] == ""
        assert rows[1]["norms"] == "0|0|0|0"
        assert rows[2]["geometry"] == "Euclidean-periodic"
        assert rows[2]["mog"] == "3"

    def test_census_builds_no_realizers(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("census built a realizer")

        monkeypatch.setattr(bundle, "_realizer", refuse)
        monkeypatch.setattr(semibundle, "_f_realizer", refuse)
        for kind, matrix, norms in (("bundle", "5,2;2,1", "0|0|1|1|1|1|2|2"),
                                    ("semibundle", "3,1;2,1", "0|0|0|0|1|1|1|1")):
            (row,) = csv.reader([census_row(kind, parse_matrix(matrix))])
            assert row[6] == norms

    # the fields of a census row as the csv writer took them, and the
    # columns of its header
    COLUMNS = ["matrix", "kind", "det", "trace", "geometry", "h2_order", "norms", "mog", "meg"]

    @staticmethod
    def csv_text(fields):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(fields)
        return out.getvalue()

    @pytest.mark.parametrize("matrix", [
        GL2Matrix(1, 0, 2, 1), GL2Matrix(-1, 0, 2, -1), GL2Matrix(0, 1, 1, 0), GL2Matrix(1, 0, 0, -1),
        GL2Matrix(2, 1, 1, 1), GL2Matrix(-3, -2, -1, -1), GL2Matrix(1, 1, 0, 1), GL2Matrix(0, 1, -1, -1),
        # 4,300-digit entries, the most the parser takes, with trace 2 and -2
        GL2Matrix(1, 0, 10**4300 - 1, 1), GL2Matrix(-1, 1 - 10**4300, 0, -1),
        GL2Matrix(10**2000, 10**2000 + 1, 10**2000 - 1, 10**2000),
    ])
    @pytest.mark.parametrize("kind", ["bundle", "semibundle"])
    def test_census_row_is_what_csv_writes(self, kind, matrix):
        # the template against the csv module, the reference: both kinds,
        # det +-1, negative and 4,300-digit entries, the semi-bundle's
        # empty geometry and infinite mogs
        text, s = cli._record(kind, matrix)
        fields = [text, s.kind, s.det, s.trace, s.geometry or "", s.h2.order, "|".join(map(str, s.norms)),
                  cli.fmt_extnat(s.mog), s.meg]
        assert census_row(kind, matrix) == self.csv_text(fields)
        assert cli.CENSUS_HEADER == self.csv_text(self.COLUMNS)

    def test_census_whitespace_is_str_whitespace(self):
        # _CENSUS_LINE's \s stands for str.strip and str.split, so each
        # must take exactly the code points str.isspace takes
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        space = [c for c in every if c.isspace()]
        assert re.findall(r"\s", every) == space
        assert [c for c in every if not c.strip()] == space
        joined = "x".join(every)  # neither end is a space
        assert joined.split() == re.split(f"[{re.escape(''.join(space))}]", joined)

    @settings(max_examples=300)
    @given(_census_lines())
    @example("bundle 1 ,0;2,1\n")  # a padded cell is a third token
    @example("bundle +01,0;2,1\n")
    @example("\tsemibundle\t0,1;1,0\t\r\n")
    @example("# bundle 1,0;2,1\n")
    @example("bundle 2,0;0,1\n")  # matched, then refused for its determinant
    def test_census_readers_agree(self, line):
        # the pattern run_census reads each line by, against
        # parse_census_line: it matches only lines that parse_census_line
        # reads as a kind and a matrix text, and gives the same pair or the
        # same error; every line it refuses, parse_census_line skips or
        # refuses as malformed
        def outcome(read):
            try:
                return read()
            except (ParseError, DomainError) as err:
                return type(err), str(err)

        reference = outcome(lambda: cli.parse_census_line(line))
        match = re.fullmatch(cli._CENSUS_LINE, line)
        if match is None:
            assert reference is None or reference[0] is ParseError, line
        else:
            read = outcome(lambda: (match[1], curve_complex.matrix_of_entries(*match.group(2, 3, 4, 5))))
            assert read == reference, line

    def test_census_bad_line(self, tmp_path, capsys):
        infile = tmp_path / "bad.txt"
        infile.write_text("wibble 1,0;2,1\n")
        code, _, err = run(capsys, "census", "--in", str(infile), "--out", str(tmp_path / "o.csv"))
        assert code == 2 and "line 1" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]

    def test_census_bad_line_keeps_existing_output(self, tmp_path, capsys):
        # rows before the bad line are written to a temporary file, which is
        # removed; the previous output stays as it was
        infile = tmp_path / "bad.txt"
        infile.write_text("bundle 1,0;2,1\nsemibundle 0,1;1,0\nbundle 2,0;0,1\n")
        outfile = tmp_path / "census.csv"
        outfile.write_bytes(b"previous output\n")
        code, _, err = run(capsys, "census", "--in", str(infile), "--out", str(outfile))
        assert code == 1 and "determinant 2" in err
        assert outfile.read_bytes() == b"previous output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt", "census.csv"]

    def test_census_file_errors_are_four(self, tmp_path, capsys):
        good = tmp_path / "good.txt"
        good.write_text("bundle 1,0;2,1\n")
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes("# caf\u00e9\nbundle 1,0;2,1\n".encode("latin-1"))
        out = str(tmp_path / "out.csv")
        for in_path, out_path, needle in (
            (str(tmp_path / "missing.txt"), out, "missing.txt"),
            (str(good), str(tmp_path / "no-such-dir" / "out.csv"), "no-such-dir"),
            (str(latin1), out, "not UTF-8"),
        ):
            code, out_text, err = run(capsys, "census", "--in", in_path, "--out", out_path)
            assert code == 4 and out_text == "", in_path
            assert err.startswith("solnorm: census: ") and err.count("\n") == 1 and needle in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.txt", "latin1.txt"]


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 0
    assert "11/11 checks passed" in out


def test_verify_prints_ten_failures_per_check(capsys, monkeypatch):
    failures = [f"case {i} failed" for i in range(12)]
    stub = oracle.CheckResult("stub", "12 errors", failures)
    monkeypatch.setattr(oracle, "SCHEDULE", ((lambda: stub, (), (), 1.0),))
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 3
    lines = ["FAIL  stub: 12 errors", *(f"      case {i} failed" for i in range(10))]
    assert out == "\n".join(lines + ["0/1 checks passed (quick level)"]) + "\n"
