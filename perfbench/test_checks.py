"""Tests of the benchmark's output checks.

Run from the root of the repository:

    python3 -m pytest perfbench/test_checks.py

Each check must accept what solnorm prints today and reject a deliberately
corrupted copy: one slope changed in a certificate, a norm off by one, a
wrong h2_order, a dropped PASS line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
from solnorm import cli  # noqa: E402

Q3 = inputs.power(inputs.Q, 3)  # norms 3, 3, 6: certificates of 4 and 7 slopes


def solnorm(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(list(argv))
    return status, out.getvalue()


def report_pair(kind: str, m, cap: int | None = None) -> tuple[str, str]:
    item = inputs.ReportInput("test", kind, m, cap=cap)
    return (solnorm(*inputs.report_argv(item, as_json=False))[1],
            solnorm(*inputs.report_argv(item, as_json=True))[1])


def errors_for(kind: str, m, text_out: str, json_out: str, cap: int | None = None) -> list[str]:
    return checks.check_report_pair(text_out, json_out, kind, m, cap)[1]


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kind, m, cap", [
    ("bundle", Q3, None),
    ("bundle", Q3, 3),  # l[1/1] = 6 is elided
    ("bundle", (1, 0, 6, 1), None),  # Nil: a rotation and two translations
    ("bundle", (-1, 0, 10, -1), None),
    ("bundle", (3, 2, 1, 1), None),  # fixes one class
    ("bundle", (1, 1, 1, 0), None),  # a 3-cycle mod 2, det -1
    ("semibundle", (2001, 1000, 2, 1), None),
    ("semibundle", (7, 3, 2, 1), None),
    ("semibundle", (5, 2, 2, 1), None),
    ("semibundle", (1, 0, 0, 1), None),  # b = 0
    ("semibundle", (2, 1, 1, 1), None),  # b odd
])
def test_reports_of_today_pass(kind, m, cap):
    text_out, json_out = report_pair(kind, m, cap)
    assert errors_for(kind, m, text_out, json_out, cap) == []


def test_random_reports_pass():
    rng = random.Random(7)
    for _ in range(30):
        m = inputs.random_word(rng, rng.randint(0, 20))
        for kind in ("bundle", "semibundle"):
            text_out, json_out = report_pair(kind, m)
            assert errors_for(kind, m, text_out, json_out) == [], inputs.text(m)


def _change_slope(text_out: str, json_out: str) -> tuple[str, str]:
    """Replace the second slope of the first 4-slope certificate by another
    slope at intersection number 2 from the first one."""
    doc = json.loads(json_out)
    cert = doc["norm_table"][1]["realizer"]["certificate"]
    old = cert[1]
    p, q = map(int, old.split("/"))
    new = f"{p + 2 * int(cert[0].split('/')[0])}/{q + 2 * int(cert[0].split('/')[1])}"
    return text_out.replace(f" -> {old} -> ", f" -> {new} -> "), json_out.replace(f'"{old}"', f'"{new}"')


def test_changed_certificate_slope_is_rejected():
    text_out, json_out = report_pair("bundle", Q3)
    bad_text, bad_json = _change_slope(text_out, json_out)
    assert bad_text != text_out and bad_json != json_out
    assert errors_for("bundle", Q3, bad_text, bad_json)


def test_semibundle_certificate_slope_is_rejected():
    m = (7, 3, 2, 1)
    text_out, json_out = report_pair("semibundle", m)
    assert "1/0 -> 7/2" in text_out
    bad_text = text_out.replace("1/0 -> 7/2", "1/0 -> 9/2")
    bad_json = json_out.replace('"7/2"', '"9/2"')
    assert errors_for("semibundle", m, bad_text, bad_json)


def test_norm_off_by_one_is_rejected():
    text_out, json_out = report_pair("bundle", Q3)
    line = next(l for l in text_out.splitlines() if "(t=0, j=0, k=1)" in l)
    bad_text = text_out.replace(line, line.replace("norm 3", "norm 4"))
    doc = json.loads(json_out)
    doc["norm_table"][1]["norm"] += 1
    bad_json = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert bad_text != text_out
    assert errors_for("bundle", Q3, bad_text, bad_json)


def test_wrong_h2_order_in_report_is_rejected():
    m = (3, 2, 1, 1)
    text_out, json_out = report_pair("bundle", m)
    bad_text = text_out.replace("h2: order 4", "h2: order 8")
    bad_json = json_out.replace('"order": 4', '"order": 8')
    assert bad_text != text_out and bad_json != json_out
    assert errors_for("bundle", m, bad_text, bad_json)


def test_text_and_json_disagreeing_is_rejected():
    text_out, json_out = report_pair("bundle", Q3)
    bad_json = json_out.replace('"mog": 5', '"mog": 7')
    assert bad_json != json_out
    assert errors_for("bundle", Q3, text_out, bad_json)


def test_related_reports():
    s = (1, 2, 2, 5)
    p = inputs.mul(inputs.power(inputs.Q, 4), (1, 0, 2, 1))
    conj = inputs.mul(inputs.mul(p, s), inputs.inverse(p))
    recs = {}
    for name, m in (("s", s), ("conj", conj), ("q", inputs.Q), ("q3", Q3)):
        rec, errs = checks.check_report_pair(*report_pair("bundle", m), "bundle", m, None)
        assert errs == []
        recs[name] = rec
    assert checks.check_related(recs["conj"], recs["s"], None, "conj") == []
    assert checks.check_related(recs["q3"], recs["q"], 3, "q3") == []
    assert checks.check_related(recs["q3"], recs["q"], 4, "q3")
    assert checks.check_related(recs["conj"], recs["q3"], None, "conj")


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    rng = random.Random(11)
    lines, groups = [], []
    for _ in range(40):
        a = inputs.random_word(rng, rng.randint(0, 40))
        p = inputs.random_word(rng, rng.randint(1, 8))
        groups.append((len(lines), len(lines) + 1, len(lines) + 2))
        lines += [("bundle", a), ("bundle", inputs.mul(inputs.mul(p, a), inputs.inverse(p))),
                  ("bundle", inputs.inverse(a)), ("semibundle", inputs.random_word(rng, rng.randint(0, 40)))]
    f = inputs.CensusFile(tuple(lines), tuple(groups))
    src, dst = tmp_path_factory.mktemp("census") / "in.txt", None
    src.write_text(f.text())
    dst = src.with_suffix(".csv")
    assert solnorm("census", "--in", str(src), "--out", str(dst))[0] == 0
    return f, dst.read_text()


def _rows(csv_text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(csv_text)))


def _edit_row(csv_text: str, index: int, column: str, new: str) -> str:
    rows = _rows(csv_text)
    rows[index + 1][rows[0].index(column)] = new
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _cell(csv_text: str, index: int, column: str) -> str:
    rows = _rows(csv_text)
    return rows[index + 1][rows[0].index(column)]


def test_census_of_today_passes(census):
    f, csv_text = census
    assert checks.check_census(csv_text, f.lines, f.groups) == []


def test_census_norm_off_by_one_is_rejected(census):
    f, csv_text = census
    index = next(i for i, (kind, _) in enumerate(f.lines)
                 if kind == "bundle" and _cell(csv_text, i, "norms") != "0|0")
    norms = _cell(csv_text, index, "norms").split("|")
    norms[-1] = str(int(norms[-1]) + 1)
    bad = _edit_row(csv_text, index, "norms", "|".join(norms))
    assert checks.check_census(bad, f.lines, f.groups)


def test_census_wrong_h2_order_is_rejected(census):
    f, csv_text = census
    old = _cell(csv_text, 0, "h2_order")
    bad = _edit_row(csv_text, 0, "h2_order", "4" if old == "8" else "8")
    assert checks.check_census(bad, f.lines, f.groups)


def test_census_semibundle_h2_order_is_rejected(census):
    f, csv_text = census
    index = 3
    assert f.lines[index][0] == "semibundle"
    old = _cell(csv_text, index, "h2_order")
    bad = _edit_row(csv_text, index, "h2_order", "4" if old == "8" else "8")
    assert checks.check_census(bad, f.lines, f.groups)


def test_census_wrong_geometry_is_rejected(census):
    f, csv_text = census
    old = _cell(csv_text, 0, "geometry")
    bad = _edit_row(csv_text, 0, "geometry", "Nil" if old != "Nil" else "Sol-Anosov")
    assert checks.check_census(bad, f.lines, f.groups)


def test_census_dropped_row_is_rejected(census):
    f, csv_text = census
    rows = csv_text.splitlines()
    assert checks.check_census("\n".join(rows[:-1]) + "\n", f.lines, f.groups)


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def verify_quick():
    status, out = solnorm("verify", "--level", "quick")
    return status, out


def test_verify_of_today_passes(verify_quick):
    status, out = verify_quick
    assert checks.check_verify(out, status, level="quick") == []


def test_verify_dropped_pass_line_is_rejected(verify_quick):
    status, out = verify_quick
    lines = out.splitlines()
    dropped = "\n".join(lines[:2] + lines[3:]) + "\n"
    assert checks.check_verify(dropped, status, level="quick")


def test_verify_wrong_trace_minus_two_count_is_rejected(verify_quick):
    status, out = verify_quick
    bad = out.replace("77 trace -2 matrices", "78 trace -2 matrices")
    assert bad != out
    assert checks.check_verify(bad, status, level="quick")


def test_verify_failing_status_is_rejected(verify_quick):
    _, out = verify_quick
    assert checks.check_verify(out, 3, level="quick")


def test_count_trace_minus_two_small_bound():
    # det 1, trace -2, entries in [-1, 1]: (-1, c; 0, -1) and (-1, 0; b, -1)
    assert inputs.count_trace_minus_two(1) == 5
