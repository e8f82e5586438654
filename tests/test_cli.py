"""The command-line interface: output formats, exit codes, round-trips."""

import contextlib
import csv
import io
import json
import sys

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from helpers import reference_document, spell_at_most
from solnorm import bredon_wood, bundle, cli, curve_complex, oracle, semibundle
from solnorm.cli import DEFAULT_CERTIFICATE_CAP, build_parser, census_row, main, render, to_canonical_json
from solnorm.curve_complex import (
    GL2Matrix,
    Slope,
    intersection_number,
    mat_act,
    parse_matrix,
    parse_slope,
)
from solnorm.errors import DomainError

# det 1 with 4,300-digit entries, the most the parser takes; the trace 2n
# has 4,301 digits
_N = 10**4300 - 2
OVER_LIMIT_TRACE = f"{_N},{_N + 1};{_N - 1},{_N}"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimpleCommands:
    def test_bw(self, capsys):
        code, out, _ = run(capsys, "bw", "8", "3")
        assert code == 0 and out == "2\n"

    def test_bw_infinite(self, capsys):
        code, out, _ = run(capsys, "bw", "3", "5")
        assert code == 0 and out == "inf\n"

    def test_dist(self, capsys):
        code, out, _ = run(capsys, "dist", "0/1", "8/3")
        assert code == 0 and out == "2\n"

    def test_dist_infinite(self, capsys):
        code, out, _ = run(capsys, "dist", "0/1", "1/0")
        assert code == 0 and out == "inf\n"

    def test_geodesic(self, capsys):
        code, out, _ = run(capsys, "geodesic", "0/1", "4/3")
        assert code == 0 and out == "0/1 -> 2/1 -> 4/3\n"

    def test_act(self, capsys):
        code, out, _ = run(capsys, "act", "--matrix", "1,0;2,1", "1/0")
        assert code == 0 and out == "1/2\n"

    def test_leading_minus_arguments(self, capsys):
        # argparse reads "-1,0;..." and "-1/2" as options; the documented
        # forms are --matrix=... and a "--" before the slopes
        code, out, _ = run(capsys, "bundle", "--matrix=-1,0;2,-1")
        assert code == 0 and out.startswith("matrix: -1,0;2,-1\n")
        code, out, _ = run(capsys, "dist", "--", "-1/2", "3/2")
        assert code == 0 and out == "2\n"
        for argv in (("bundle", "--matrix", "-1,0;2,-1"), ("dist", "-1/2", "3/2")):
            with pytest.raises(SystemExit) as info:
                main(list(argv))
            assert info.value.code == 2

    def test_export_graph(self, capsys):
        # 0/1 has about 10**12 neighbors within the larger bound; the ball
        # of radius 0 is the center alone, and nothing lists them
        for bound in ("5", "1000000000000"):
            code, out, _ = run(capsys, "export-graph", "--center", "0/1", "--radius", "0", "--bound", bound)
            assert code == 0 and out == 'graph {\n  "0/1";\n}\n', bound


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "bw", "4", "2")
        assert code == 1 and "coprime" in err

    def test_non_coprime_slope_is_one(self, capsys):
        code, _, err = run(capsys, "dist", "4/2", "0/1")
        assert code == 1

    def test_bad_determinant_is_one(self, capsys):
        code, _, err = run(capsys, "bundle", "--matrix", "2,0;0,1")
        assert code == 1 and "determinant 2" in err

    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "dist", "nonsense", "0/1")
        assert code == 2 and "nonsense" in err
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
        # integer arguments follow the same ASCII rule, through argparse
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
        ):
            with pytest.raises(SystemExit) as info:
                main(list(argv))
            assert info.value.code == 2, argv
            assert "expected an integer" in capsys.readouterr().err

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

    # (argv, exit code): each subcommand with each failure class that reaches
    # it.  Integer arguments (bw's, caps, radii, bounds) are argparse's to
    # refuse, with its usage text; test_parse_error_is_two covers those.
    FAILURES = [
        (("bw", "4", "2"), 1),
        (("dist", "nonsense", "0/1"), 2),
        (("dist", "4/2", "0/1"), 1),
        (("geodesic", "0/1", "4/3/2"), 2),
        (("geodesic", "0/1", "1/0"), 1),
        (("geodesic", "6/4", "0/1"), 1),
        (("act", "--matrix=1,0;x,1", "1/0"), 2),
        (("act", "--matrix=1,0;2,1", "1/x"), 2),
        (("act", "--matrix=2,0;0,1", "1/0"), 1),
        (("bundle", "--matrix=1,0;2"), 2),
        (("bundle", "--matrix=2,0;0,1", "--json"), 1),
        (("semibundle", "--matrix=1,0,2,1", "--json"), 2),
        (("semibundle", "--matrix=3,0;0,3"), 1),
        (("census", "--in", "{tmp}/parse.txt", "--out", "{tmp}/out.csv"), 2),
        (("census", "--in", "{tmp}/domain.txt", "--out", "{tmp}/out.csv"), 1),
        (("census", "--in", "{tmp}/missing.txt", "--out", "{tmp}/out.csv"), 4),
        (("census", "--in", "{tmp}/parse.txt", "--out", "{tmp}/no-such-dir/out.csv"), 4),
        (("census", "--in", "{tmp}/latin1.txt", "--out", "{tmp}/out.csv"), 4),
        (("export-graph", "--center", "0/", "--radius", "1", "--bound", "5"), 2),
        (("export-graph", "--center", "4/2", "--radius", "1", "--bound", "5"), 1),
    ]

    @pytest.mark.parametrize(
        "argv, expected", FAILURES, ids=[f"{a[0]}-{code}-{i}" for i, (a, code) in enumerate(FAILURES)]
    )
    def test_failure_contract(self, capsys, tmp_path, argv, expected):
        inputs = {
            "parse.txt": b"wibble 1,0;2,1\n",
            "domain.txt": b"bundle 1,0;2,1\nbundle 2,0;0,1\n",
            "latin1.txt": "# caf\u00e9\nbundle 1,0;2,1\n".encode("latin-1"),
        }
        for name, data in inputs.items():
            (tmp_path / name).write_bytes(data)
        code, out, err = run(capsys, *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        assert code == expected and out == ""
        assert err.startswith("solnorm: ") and err.count("\n") == 1 and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)  # nothing written

    def test_geodesic_parity_mismatch_is_one(self, capsys):
        code, _, err = run(capsys, "geodesic", "0/1", "1/0")
        assert code == 1 and "infinite distance" in err

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
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
        # the top-level parser's usage error, not a subcommand's
        err = capsys.readouterr().err
        assert err.startswith("usage: solnorm [-h]") and "invalid choice: 'frobnicate'" in err


def test_top_level_usage_is_wrapped_as_argparse_3_10_to_3_12_wrap_it(monkeypatch, capsys):
    # the given usage against the one argparse derives with none given:
    # the same bytes at every width before 3.13, the same words on 3.13
    choices = "{" + ",".join(cli.COMMANDS) + "}"
    for columns in [*range(5, 100), 200]:
        monkeypatch.setenv("COLUMNS", str(columns))
        parser = build_parser()
        given = parser.format_usage()
        parser.usage = None
        derived = parser.format_usage()
        if sys.version_info < (3, 13):
            assert given == derived, columns
        assert given.split() == derived.split() == ["usage:", "solnorm", "[-h]", choices, "..."], columns
        if columns == 80:
            assert given == f"usage: solnorm [-h]\n{' ' * 15}{choices}\n{' ' * 15}...\n"
    with pytest.raises(SystemExit):  # a subcommand's usage names it after the prog alone
        build_parser().parse_args(["bw"])
    assert capsys.readouterr().err.startswith("usage: solnorm bw [-h] p q\n")


# argv for every subcommand, drawn from a valid one.  Half are well
# formed: each argument given once or left out, in any order, an option
# written whole as --opt value or --opt=value, with a value the command
# takes.  In the others each option or positional is given, left out or
# doubled, an option is written whole, abbreviated (--mat) or as
# --opt=value, a value is one the command takes or one it refuses, and
# stray tokens ("--", -h, unknown options, refused values, free text) go
# anywhere, before the command too.  A real argv holds no NUL.  census
# only ever gets relative file names, so it reads and writes inside the
# test's directory alone.
_INTS, _COUNTS = ["0", "1", "3", "-3", "12"], ["0", "1", "3"]
_SLOPES = ["0/1", "1/0", "4/3", "2/1", "-1/2", "6/4"]
_MATRICES = ["1,0;2,1", "-1,0;2,-1", "0,1;1,0", "3,1;8,3", "2,0;0,1"]
_REPORT = [("--matrix", _MATRICES), ("--json", None), ("--certificate-cap", _COUNTS)]
# each subcommand's arguments: (option, or None for a positional; its
# values, or None for a flag)
_SPECS = {
    "bw": [(None, _INTS), (None, _INTS)],
    "dist": [(None, _SLOPES), (None, _SLOPES)],
    "geodesic": [(None, _SLOPES), (None, _SLOPES)],
    "act": [("--matrix", _MATRICES), (None, _SLOPES)],
    "bundle": _REPORT,
    "semibundle": _REPORT,
    "census": [("--in", ["in.txt", "latin1.txt", "missing.txt"]), ("--out", ["out.csv", "no-dir/out.csv"])],
    "export-graph": [("--center", _SLOPES), ("--radius", _COUNTS), ("--bound", _COUNTS)],
    "verify": [("--level", ["quick", "full"])],
}
# values no argument takes: a negative count, "_" separators, non-ASCII
# digits, integers over the int-digit limit, malformed slopes and matrices
_REFUSED = ["-1", "1_0", "\u0661", "2" * 5000, "\u0663/1", "1/" + "3" * 5000, "x", "1,0;2",
            "1,0;" + "2" * 5000 + ",1", "slow"]
_STRAY = ["--", "-h", "--help", "--frob", "-x", "--=1", "--mat", "--json", "frobnicate", "bund"]
_ANY_TEXT = st.text(st.characters(blacklist_characters="\x00"), max_size=6).filter(lambda t: t != "census")


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from([*_SPECS, None]))
    refused = st.sampled_from(_REFUSED)
    if command != "census":
        refused = st.one_of(refused, _ANY_TEXT)
    argv = [] if command is None else [command]
    well_formed = draw(st.booleans())
    specs = _SPECS.get(command, [])
    for option, values in draw(st.permutations(specs)) if well_formed else specs:
        # given, left out or (not well formed) doubled
        for _ in range(draw(st.sampled_from([1, 1, 1, 0] if well_formed else [1, 1, 1, 0, 2]))):
            name = option and (option if well_formed else draw(st.sampled_from([option, option[:5]])))
            if values is None:
                argv.append(name)
                continue
            value = draw(st.sampled_from(values) if well_formed or draw(st.integers(0, 3)) else refused)
            if option is None:
                argv.append(value)
            else:
                argv += draw(st.sampled_from([[name, value], [f"{name}={value}"]]))
    for _ in range(0 if well_formed else draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(st.sampled_from(_STRAY), refused)))
    return argv


def _parsed(parse, argv):
    """(what parse returned or the SystemExit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exit_:
            result = SystemExit(exit_.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300)
@given(_argvs())
# argv at the edge of what main reads without argparse, each one that a
# reader with a wrong rule would read otherwise: "=" on a flag, a doubled
# flag or option (argparse refuses a first value it cannot convert), an
# empty value, a "-" value or positional, an "=" in a value, a "--", a
# value outside the choices, "--" as the prefix of the one option (and
# of --help) and a default
@example(["bundle", "--matrix=1,0;2,1", "--json=1"])
@example(["bundle", "--json", "--matrix=1,0;2,1", "--json"])
@example(["bundle", "--matrix", "1,0;2,1", "--matrix=0,1;1,0"])
@example(["bundle", "--matrix=1,0;2,1", "--certificate-cap=x", "--certificate-cap=3"])
@example(["semibundle", "--matrix="])
@example(["bundle", "--matrix=1,0;2,1", "--certificate-cap", "-0"])
@example(["bw", "-3", "4"])
@example(["census", "--in=a=b", "--out", "o.csv"])
@example(["act", "--matrix", "1,0;0,1", "--", "-1/2"])
@example(["verify", "--level", "slow"])
@example(["act", "--=1,0;2,1", "1/0"])
@example(["semibundle", "--json", "--matrix", "0,1;1,0"])
def test_every_argv_parses_as_the_top_level_parser_does(tmp_path_factory, argv):
    # main reads a well-formed argv itself and hands every other to the
    # top-level parser; whatever it is given, it must reach _dispatch with
    # the attributes of the Namespace that the top-level parser's
    # parse_args gives (the reader's is a SimpleNamespace, so vars() are
    # compared, as Namespace.__eq__ does), or exit as that does with the
    # same stdout and stderr.  A parsed command runs to an exit code of 0
    # to 4 with no exception; verify's checks are stubbed, so only its
    # arguments are read
    work = tmp_path_factory.getbasetemp() / "argv"
    if not work.exists():
        work.mkdir()
        (work / "in.txt").write_text("bundle 1,0;2,1\nsemibundle 0,1;1,0\n")
        (work / "latin1.txt").write_bytes("# caf\u00e9\nbundle 1,0;2,1\n".encode("latin-1"))
    dispatched = []
    plain = cli._dispatch
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        patch.setattr(oracle, "run_checks", lambda level: [])
        patch.setattr(cli, "_dispatch", lambda args: dispatched.append(vars(args)) or plain(args))
        expected, expected_out, expected_err = _parsed(build_parser().parse_args, argv)
        result, out, err = _parsed(main, argv)
    if isinstance(expected, SystemExit):
        assert isinstance(result, SystemExit) and result.code == expected.code in (0, 2)
        assert (out, err, dispatched) == (expected_out, expected_err, [])
    else:
        assert dispatched == [vars(expected)] and result in range(5)
        assert "Traceback" not in err


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
        assert census_row("bundle", parse_matrix("5,2;2,1"))[6] == "0|0|1|1|1|1|2|2"
        assert census_row("semibundle", parse_matrix("3,1;2,1"))[6] == "0|0|0|0|1|1|1|1"

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
    monkeypatch.setattr(oracle, "QUICK_CHECKS", [lambda: stub])
    code, out, _ = run(capsys, "verify", "--level", "quick")
    assert code == 3
    lines = ["FAIL  stub: 12 errors", *(f"      case {i} failed" for i in range(10))]
    assert out == "\n".join(lines + ["0/1 checks passed (quick level)"]) + "\n"
