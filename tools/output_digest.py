"""Output digest: one sha256 per family of commands over what a tree prints.

    python tools/output_digest.py --src DIR
    PYTHONPATH=DIR/src python tools/output_digest.py --family NAME

Runs the solnorm under DIR/src on fixed families of commands and prints,
for each family, its name, its number of commands and the sha256 of the
transcript of every command's argv, stdout, stderr and exit code.  When
two trees print the same lines, every command of every family gave the
same bytes and exit code in both.  The families:

- reports: the text and JSON report of every `reports` input of
  perfbench/inputs.py for seeds 501-510;
- census: `census` over the files of seeds 600-609 and over CENSUS_SPELLINGS,
  with the CSV bytes it writes, in a temporary directory.  CENSUS_SPELLINGS
  is written by hand in the spellings that census reads by its line
  pattern or hands to its line parser (signs, leading zeros, tabs and
  Unicode whitespace, CRLF, comments, blank lines, no last newline), so
  that both readers are compared with the base on every CPython;
- verify: `verify --level quick` and `--level full`;
- limits: commands at the int-digit limit (exits 1 and 2), reports whose
  base vertex is far from the axis, `geodesic` paths of every shape, and
  both kinds' text and JSON reports on the shear 1,0;4000000000002,1,
  whose certificates of 2*10^12 + 1 edges are elided at the default cap
  and at --certificate-cap=2000000 and too long to list (exit 1) at
  --certificate-cap=2000000000001, and on 1,0;(2*10^20 + 2),1, whose
  certificates have more vertices than sys.maxsize;
- large: reports on entries of thousands of digits with long
  certificates: B = P W^2500 P^-1 (W = 1,2;2,5, P = (3,2;1,1)^833, entries
  of about 2,870 digits) as bundle text and JSON, as semi-bundle JSON
  (one certificate in four rows at two indents) and as bundle text with
  --certificate-cap=0, and the bundle JSON of W^4000 (3,063 digits);
- usage: what argparse prints and the exit it takes for help, no
  arguments, an unknown command, each subcommand's -h, missing required
  options, unrecognized trailing arguments, abbreviated and doubled
  options, `--`, `--certificate-cap=-1` and `bundle --matrix -1,0;2,-1`.
  Children run with COLUMNS=80, so help is wrapped the same everywhere;
- argv: well-formed commands of every subcommand, which solnorm reads
  without argparse, in every spelling it reads them: each option as
  --opt value and as --opt=value, the options and positionals in every
  order, so flags come first and last, and a few that then exit 1 or 2;
  and `bundle` on each of MATRIX_SPELLINGS, written by hand: matrices with
  ASCII and Unicode whitespace around their cells, tabs, signs and leading
  zeros, and one of each malformed shape (wrong row count, wrong cell
  count, an empty cell, a non-ASCII digit, 1_0, 2.0, a cell over the
  int-digit limit before a malformed one), so that parse_matrix is
  compared with the base on every CPython.

The inputs come from this checkout's perfbench/inputs.py, read without
writing bytecode, so both trees run the same commands.  Each family runs
in a child interpreter that imports solnorm from DIR/src only, calling
solnorm.cli.main in-process once per command.  --family NAME runs the one
family in this interpreter, with solnorm from PYTHONPATH, and prints its
line; a caller that wants the bytes of --src sets PYTHONDONTWRITEBYTECODE=1
and COLUMNS=80 as --src does.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("reports", "census", "verify", "limits", "large", "usage", "argv")
REPORT_SEEDS = range(501, 511)
CENSUS_SEEDS = range(600, 610)

# Lines that census reads or skips, in spellings that both of its readers
# take; see the census family above.
CENSUS_SPELLINGS = (
    "# census spellings\r\n"
    "bundle +1,0;2,1\r\n"
    "semibundle 001,-0;+002,1\r\n"
    "\tbundle\t\t-1,0;+2,-1\t\r\n"
    "\u00a0semibundle\u3000+0,1;1,+0\x1c\r\n"
    "\r\n"
    " \x0b\x0c\u2003\r\n"
    "   # an indented comment: bundle 2,0;0,1\r\n"
    "#bundle 1 ,0;2,1\n"
    "\x85bundle\x1f0,-1;1,0\u2028\n"
    "bundle 0002,+1;0001,001 \n"
    "semibundle\u2009-2,-1;-1,-1\r\n"
    "semibundle 2,1;1,1"
)

# --matrix values in the spellings parse_matrix reads, and in each shape it
# refuses, each run as one `bundle` command of the argv family.
_OVER = "9" * 4301  # one digit over the default int-digit limit
MATRIX_SPELLINGS = (
    "1,0;2,1", " 1 , 0 ; 2 , 1 ", "\t+1,\t-0;\t+2\t,1\t", "\u00a01,0;2,1\u3000",
    "\u20031 ,\u2009-0;\x1c2,1\x85", "001,-0;+002,0001", "-1,0;+2,-1", "0,-1;1,0", "2,0;0,1",
    "", ";", "1,0,2,1", "1,0;2,1;0,0", "1;2,1", "1,0;2", "1,0,0;2,1", "1,;2,1", ",0;2,1", "1,0; ,1",
    "1,0;\u0662,1", "1,0;1_0,1", "1,0;2.0,1", "+-1,0;2,1", "1 0,0;2,1",
    f"1,0;{_OVER},1", f"{_OVER},0;x,1", f"{_OVER},0;2,1;0",
)

_N = 10**4300 - 2  # entries within the digit limit, trace 2 * _N one digit over
OVER_LIMIT_TRACE = f"{_N},{_N + 1};{_N - 1},{_N}"


def _inputs():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    return inputs


def _run(main, argv: list[str]) -> str:
    """One command's transcript block: argv, stdout, stderr, exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse refusing an argument
            code = exit_.code
    return f"$ solnorm {' '.join(argv)}\n{out.getvalue()}[stderr]\n{err.getvalue()}[exit {code}]\n"


def _limits_argvs() -> list[list[str]]:
    """The limits family: inputs and outputs at the int-digit limit,
    reports far from the axis under each certificate cap, long shear and
    large-partial-quotient reports, geodesics of every run shape, and
    certificates too long to list, elided or asked for."""
    k = 10**1400  # P W P^-1 for P = 1,0;2k,1 and W = 1,2;2,5: 2,800-digit entries
    far = f"{1 - 4 * k},2;{2 * k * (1 - 4 * k) + 2 - 10 * k},{4 * k + 5}"
    big = "2" * 5000
    argvs = []
    for kind in ("bundle", "semibundle"):
        argvs += [[kind, f"--matrix={OVER_LIMIT_TRACE}"], [kind, f"--matrix={OVER_LIMIT_TRACE}", "--json"],
                  [kind, f"--matrix=1,0;{big},1"], [kind, f"--matrix=1,0;2{'0' * 4400},1", "--json"]]
    argvs += [["dist", f"1/{'3' * 5000}", "0/1"], ["act", f"--matrix={far}", "1/0"]]
    for matrix in (far, "1,0;4000000000000,-1", "-3999999999999,2;-8000000000007999999999998,4000000000005",
                   "1,0;2000,-1", "-3999,2;-8007998,4005"):
        for cap in ([], ["--certificate-cap=0"], ["--certificate-cap=1"]):
            argvs += [["bundle", f"--matrix={matrix}", *cap], ["bundle", f"--matrix={matrix}", "--json", *cap]]
    for matrix in ("200001,100000;2,1", "1,0;16002,1", "-1,0;16002,-1", "41,2;20,1"):
        for kind in ("bundle", "semibundle"):
            argvs += [[kind, f"--matrix={matrix}"], [kind, f"--matrix={matrix}", "--json"]]
    for s1, s2 in (("0/1", "4/3"), ("1/0", "1/20000"), ("0/1", "20000/1"), ("-1/6", "1/4"),
                   ("4/3", "2/3"), ("1/0", "-41/20"), ("-1/1", "-7/1"), ("1/0", "200001/2"),
                   ("1/0", f"{6 * 10**4000 + 1}/6"), ("1/0", "1/2000000000000"), ("0/1", "1/0"),
                   ("89/55", "-233/377")):
        argvs.append(["geodesic", "--", s1, s2])
    for kind in ("bundle", "semibundle"):
        for cap in ([], ["--certificate-cap=2000000"], ["--certificate-cap=2000000000001"]):
            argvs += [[kind, "--matrix=1,0;4000000000002,1", *cap],
                      [kind, "--matrix=1,0;4000000000002,1", "--json", *cap]]
        huge = f"--matrix=1,0;{2 * 10**20 + 2},1"
        argvs += [[kind, huge], [kind, huge, "--json"]]
    return argvs


def _large_argvs() -> list[list[str]]:
    """The large family, its matrices built with plain integers by
    perfbench/inputs.py."""
    inputs = _inputs()
    W = (1, 2, 2, 5)
    P = inputs.power((3, 2, 1, 1), 833)
    B = inputs.text(inputs.mul(inputs.mul(P, inputs.power(W, 2500)), inputs.inverse(P)))
    return [["bundle", f"--matrix={B}"], ["bundle", f"--matrix={B}", "--json"],
            ["semibundle", f"--matrix={B}", "--json"], ["bundle", f"--matrix={B}", "--certificate-cap=0"],
            ["bundle", f"--matrix={inputs.text(inputs.power(W, 4000))}", "--json"]]


def _usage_argvs() -> list[list[str]]:
    """The usage family: argv that argparse answers with help or a usage
    error, and argv it accepts only through its own rules (abbreviations,
    doubled options, negative numbers, --)."""
    argvs = [[], ["-h"], ["--help"], ["--he"], ["-x"], ["--"], ["--", "bundle", "--matrix=1,0;2,1"],
             ["frobnicate"], ["frobnicate", "--matrix=1,0;2,1"], ["bund", "--matrix=1,0;2,1"]]
    commands = ("bw", "dist", "geodesic", "act", "bundle", "semibundle", "census", "export-graph", "verify")
    argvs += [[command, "-h"] for command in commands]
    argvs += [  # a required option or positional missing, or an option without its value
        ["bw", "1"], ["dist"], ["geodesic", "0/1"], ["act", "--matrix", "1,0;2,1"], ["act", "1/0"],
        ["bundle"], ["semibundle", "--json"], ["bundle", "--matrix"], ["census", "--in", "in.txt"],
        ["census", "--in", "in.txt", "--out"], ["export-graph", "--center", "0/1"], ["verify", "--level"],
    ]
    argvs += [  # unrecognized trailing arguments: the top-level parser's error
        ["bw", "1", "2", "3"], ["dist", "0/1", "1/0", "--json"], ["geodesic", "--", "0/1", "2/1", "4/3"],
        ["bundle", "--matrix=1,0;2,1", "extra"], ["verify", "--level", "quick", "--fast"],
    ]
    argvs += [  # abbreviations, doubled options, values argparse refuses
        ["bundle", "--mat=1,0;2,1"], ["bundle", "--mat", "1,0;2,1", "--js"],
        ["semibundle", "--m=0,1;1,0", "--cert=0"], ["export-graph", "--c=0/1", "--r=1", "--b=3"],
        ["bundle", "--=1,0;2,1"], ["verify", "--lev=slow"],
        ["bundle", "--matrix=1,0;2,1", "--matrix=0,1;1,0"], ["bundle", "--json", "--json", "--matrix=1,0;2,1"],
        ["bundle", "--matrix=1,0;2,1", "--certificate-cap=-1"],
        ["semibundle", "--matrix=1,0;2,1", "--certificate-cap", "-1"],
        ["bundle", "--matrix", "-1,0;2,-1"], ["bundle", "--", "--matrix=1,0;2,1"],
        ["bw", "-3", "5"], ["bw", "--", "-3", "5"], ["bw", "\u0661", "2"],
    ]
    return argvs


def _argv_argvs() -> list[list[str]]:
    """The argv family: each command's arguments, an option in both of its
    spellings (a value starting with "-" only after "="), in every order
    and combination of spellings; then bundle on each of MATRIX_SPELLINGS."""
    def option(name: str, value: str) -> list[list[str]]:
        return [[f"{name}={value}"]] if value.startswith("-") else [[name, value], [f"{name}={value}"]]

    shapes = [
        ["bw", [["8"]], [["3"]]], ["bw", [["4"]], [["2"]]], ["dist", [["0/1"]], [["8/3"]]],
        ["dist", [["x"]], [["0/1"]]], ["geodesic", [["1/0"]], [["41/20"]]],
        ["act", option("--matrix", "1,0;2,1"), [["1/0"]]], ["act", option("--matrix", "-1,0;2,-1"), [["3/2"]]],
        ["census", option("--in", "in.txt"), option("--out", "out.csv")],
        ["export-graph", option("--center", "0/1"), option("--radius", "2"), option("--bound", "5")],
        ["verify"], ["verify", option("--level", "quick")],
    ]
    for kind in ("bundle", "semibundle"):
        shapes += [[kind, option("--matrix", "5,2;2,1"), [["--json"]], option("--certificate-cap", "1")],
                   [kind, option("--matrix", "-1,0;8,-1"), [["--json"]]], [kind, option("--matrix", "2,0;0,1")]]
    argvs = []
    for command, *groups in shapes:
        for order in itertools.permutations(groups):
            for spelling in itertools.product(*order):
                argvs.append([command, *itertools.chain.from_iterable(spelling)])
    return argvs + [["bundle", f"--matrix={text}"] for text in MATRIX_SPELLINGS]


def _family(name: str) -> tuple[int, str]:
    """Run one family in this process: its command count and digest."""
    from solnorm.cli import main

    digest, count = hashlib.sha256(), 0

    def feed(argv: list[str]) -> None:
        nonlocal count
        digest.update(_run(main, argv).encode("utf-8", "surrogatepass"))
        count += 1

    if name == "reports":
        inputs = _inputs()
        for seed in REPORT_SEEDS:
            for item in inputs.report_inputs(seed):
                for as_json in (False, True):
                    feed(inputs.report_argv(item, as_json))
    elif name == "census":
        inputs = _inputs()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)  # relative paths, so the transcript names no directory
            try:
                texts = [f.text() for seed in CENSUS_SEEDS for f in inputs.census_files(seed)]
                for text in (*texts, CENSUS_SPELLINGS):
                    Path("in.txt").write_bytes(text.encode("utf-8"))
                    feed(["census", "--in", "in.txt", "--out", "out.csv"])
                    digest.update(Path("out.csv").read_bytes())
            finally:
                os.chdir(ROOT)
    elif name == "verify":
        for level in ("quick", "full"):
            feed(["verify", "--level", level])
    elif name == "argv":
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)  # relative paths, so the transcript names no directory
            try:
                Path("in.txt").write_text("bundle 1,0;2,1\nsemibundle 0,1;1,0\n", encoding="utf-8")
                for argv in _argv_argvs():
                    feed(argv)
            finally:
                os.chdir(ROOT)
    else:
        argvs = {"limits": _limits_argvs, "large": _large_argvs, "usage": _usage_argvs}[name]
        for argv in argvs():
            feed(argv)
    return count, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="the checkout whose src/ is run")
    parser.add_argument("--family", choices=FAMILIES, help="run one family here, solnorm from PYTHONPATH")
    args = parser.parse_args(argv)
    if args.family:
        count, digest = _family(args.family)
        print(f"{args.family} {count} {digest}")
        return 0
    if args.src is None:
        parser.error("--src is required")
    src = (args.src / "src").resolve()
    if not (src / "solnorm" / "cli.py").is_file():
        parser.error(f"{src} holds no solnorm package")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80"}
    for family in FAMILIES:
        child = [sys.executable, str(Path(__file__).resolve()), "--family", family]
        proc = subprocess.run(child, env=env, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
