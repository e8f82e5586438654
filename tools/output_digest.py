"""Output digest: one sha256 per family of commands over what a tree prints.

    python tools/output_digest.py --src DIR

Runs the solnorm under DIR/src on fixed families of commands and prints,
for each family, its name, its number of commands and the sha256 of the
transcript of every command's argv, stdout, stderr and exit code.  When
two trees print the same lines, every command of every family gave the
same bytes and exit code in both.  The families:

- reports: the text and JSON report of every `reports` input of
  perfbench/inputs.py for seeds 501-510;
- census: `census` over the files of seeds 600-609, with the CSV bytes it
  writes, in a temporary directory;
- verify and verify-O: `verify --level quick` and `--level full`, the
  second under python -O;
- limits: commands at the int-digit limit (exits 1 and 2), reports whose
  base vertex is far from the axis, and `geodesic` paths of every shape.

The inputs come from this checkout's perfbench/inputs.py, read without
writing bytecode, so both trees run the same commands.  Each family runs
in a child interpreter that imports solnorm from DIR/src only, calling
solnorm.cli.main in-process once per command.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("reports", "census", "verify", "verify-O", "limits")
REPORT_SEEDS = range(501, 511)
CENSUS_SEEDS = range(600, 610)

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
    large-partial-quotient reports, and geodesics of every run shape."""
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
    return argvs


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
                for seed in CENSUS_SEEDS:
                    for census_file in inputs.census_files(seed):
                        Path("in.txt").write_text(census_file.text(), encoding="utf-8")
                        feed(["census", "--in", "in.txt", "--out", "out.csv"])
                        digest.update(Path("out.csv").read_bytes())
            finally:
                os.chdir(ROOT)
    elif name in ("verify", "verify-O"):
        for level in ("quick", "full"):
            feed(["verify", "--level", level])
    else:
        for argv in _limits_argvs():
            feed(argv)
    return count, digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, help="the checkout whose src/ is run")
    parser.add_argument("--family", choices=FAMILIES, help=argparse.SUPPRESS)  # a child's one family
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
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    for family in FAMILIES:
        flags = ["-O"] if family == "verify-O" else []
        child = [sys.executable, *flags, str(Path(__file__).resolve()), "--family", family]
        proc = subprocess.run(child, env=env, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
