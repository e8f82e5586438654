"""Whole reports on random matrices, checked from outside the program.

perfbench/checks.py derives every field of a bundle or semi-bundle report
again with its own integer arithmetic: the H2 classes, the norms, mog, meg
and the geometry, and each certificate as an edge path of norm-many edges
from v to A(v) on the axis of A.  Here the command line runs in process on
seeded words, and on conjugates whose base vertices lie up to about 10**40
moves from the axis, the flipped edge or the fixed set.  Both the text and
the JSON report go to checks.check_report_pair, which also compares the
two.  perfbench/ is imported, never changed."""

import contextlib
import io
import random
import sys
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import checks  # noqa: E402
import inputs  # noqa: E402

from solnorm import cli  # noqa: E402

W = (1, 2, 2, 5)  # a translation, the identity mod 2
R = (0, -1, 1, 0)  # a rotation of order 4


def conjugate(k: int, upper: bool, M: inputs.Matrix) -> inputs.Matrix:
    """P M P^-1 with P = 1,2k;0,1 or 1,0;2k,1."""
    P = (1, 2 * k, 0, 1) if upper else (1, 0, 2 * k, 1)
    return inputs.mul(inputs.mul(P, M), inputs.inverse(P))


words = st.builds(
    lambda seed, length: inputs.random_word(random.Random(seed), length),
    st.integers(0, 2**32), st.integers(0, 40),
)
far_from_the_axis = st.builds(
    conjugate, st.one_of(st.integers(1, 100), st.integers(1, 10**40)), st.booleans(), st.sampled_from([W, R])
)


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


@settings(max_examples=60)
@given(st.one_of(words, far_from_the_axis), st.sampled_from(["bundle", "semibundle"]),
       st.sampled_from([0, 1, None]))
@example(conjugate(10**40, False, W), "bundle", None)
@example(conjugate(10**12, True, R), "bundle", 1)
@example(conjugate(2**62 - 1, False, W), "semibundle", 0)  # a certificate past sys.maxsize vertices
def test_reports_pass_the_benchmark_checks(M, kind, cap):
    argv = [kind, f"--matrix={inputs.text(M)}"]
    if cap is not None:
        argv.append(f"--certificate-cap={cap}")
    text_status, text_out = run(argv)
    json_status, json_out = run(argv + ["--json"])
    assert text_status == json_status == 0
    record, errors = checks.check_report_pair(text_out, json_out, kind, M, cap)
    assert record is not None and errors == []
