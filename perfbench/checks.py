"""Checks on solnorm's outputs, made apart from the program.

Nothing here imports solnorm or compares against a stored copy of its
output.  Each check recomputes what it can with plain integer arithmetic
(determinant, trace, the mod-2 kernel, the slope action) and otherwise tests
properties the method must have: a certificate is a path of
intersection-number-2 edges without backtracking from v to A(v) that
continues into its own A-image without backtracking, so it lies on the axis
of A and its length is the translation length.  Every function returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter

from inputs import Matrix, act, canonical, count_trace_minus_two, det, power, text

INF = "inf"
BUNDLE_COORDS = ("t", "j", "k")
SEMI_COORDS = ("e1", "e2", "phi")
CENSUS_COLUMNS = ["matrix", "kind", "det", "trace", "geometry", "h2_order", "norms", "mog", "meg"]
FULL_CHECKS = 11  # checks per verify level


def _value(s: str):
    return INF if s == INF else int(s)


def _slope(s: str) -> tuple[int, int]:
    p, q = s.split("/")
    return int(p), int(q)


def kernel_mod2(m: Matrix) -> set[tuple[int, int]]:
    """Classes (j, k) of H_2 of the mapping torus: the kernel of the mod-2
    relations k = a*k + b*j, j = c*k + d*j."""
    a, c, b, d = m
    return {
        (j, k)
        for j in (0, 1)
        for k in (0, 1)
        if (a * k + b * j - k) % 2 == 0 and (c * k + d * j - j) % 2 == 0
    }


def geometry(m: Matrix) -> str:
    if any(power(m, k) == (1, 0, 0, 1) for k in range(1, 7)):
        return "Euclidean-periodic"
    if det(m) == 1 and abs(m[0] + m[3]) == 2:
        return "Nil"
    return "Sol-Anosov"


def bundle_mog(norms) -> object:
    odd = [n for n in norms if n % 2 == 1]
    return 2 + min(odd) if odd else INF


def bundle_meg(m: Matrix) -> int:
    return 2 if det(m) == -1 or m[0] + m[3] == -2 else 4


def check_path(path: list[tuple[int, int]], where: str) -> list[str]:
    """Edges of intersection number 2, canonical reduced slopes, no backtracking."""
    errors = []
    for p, q in path:
        if (p, q) != canonical(p, q) or _gcd(p, q) != 1:
            errors.append(f"{where}: {p}/{q} is not a canonical slope")
    for (p1, q1), (p2, q2) in zip(path, path[1:]):
        if abs(p1 * q2 - p2 * q1) != 2:
            errors.append(f"{where}: {p1}/{q1} -> {p2}/{q2} is not an edge")
    for i in range(len(path) - 2):
        if path[i] == path[i + 2]:
            errors.append(f"{where}: backtracks at {path[i + 1][0]}/{path[i + 1][1]}")
    return errors


def _gcd(p: int, q: int) -> int:
    while q:
        p, q = q, p % q
    return abs(p)


# ----------------------------------------------------------------------
# census
# ----------------------------------------------------------------------


def check_census(csv_text: str, lines, groups) -> list[str]:
    """Check one census CSV against its input lines [(kind, matrix), ...]
    and the (A, P A P^-1, A^-1) row groups."""
    reader = csv.reader(io.StringIO(csv_text))
    header = next(reader, None)
    if header != CENSUS_COLUMNS:
        return [f"census header {header}"]
    rows = [dict(zip(CENSUS_COLUMNS, r)) for r in reader]
    if len(rows) != len(lines):
        return [f"census wrote {len(rows)} rows for {len(lines)} input lines"]
    errors = []
    for row, (kind, m) in zip(rows, lines):
        errors += check_census_row(row, kind, m)
    for a, conj, inv in groups:
        ra, rc, ri = rows[a], rows[conj], rows[inv]
        for key in ("det", "geometry", "h2_order", "norms", "mog", "meg"):
            if not ra[key] == rc[key] == ri[key]:
                errors.append(f"census {ra['matrix']}: {key} differs across conjugate/inverse")
        d = int(ra["det"])
        if rc["trace"] != ra["trace"] or int(ri["trace"]) != d * int(ra["trace"]):
            errors.append(f"census {ra['matrix']}: trace differs across conjugate/inverse")
    return errors


def check_census_row(row: dict, kind: str, m: Matrix) -> list[str]:
    where = f"census {kind} {text(m)}"
    errors = []
    if row["matrix"] != text(m) or row["kind"] != kind:
        return [f"{where}: row is for {row['kind']} {row['matrix']}"]
    if int(row["det"]) != det(m) or int(row["trace"]) != m[0] + m[3]:
        errors.append(f"{where}: det/trace {row['det']}/{row['trace']}")
    norms = [int(n) for n in row["norms"].split("|")]
    if norms != sorted(norms):
        errors.append(f"{where}: norms not sorted")
    if any(count % 2 for count in Counter(norms).values()):
        errors.append(f"{where}: a norm occurs an odd number of times in {row['norms']}")
    b = m[2]
    if kind == "bundle":
        order = 2 * len(kernel_mod2(m))
        expect = {"geometry": geometry(m), "mog": str(bundle_mog(norms)), "meg": str(bundle_meg(m))}
    else:
        order = 4 if b % 2 else 8
        expect = {"geometry": "", "mog": INF, "meg": "2"}
        nonzero = sorted(set(norms) - {0})
        if b % 2 or b == 0:
            if nonzero:
                errors.append(f"{where}: b = {b} but norms {row['norms']}")
        elif len(nonzero) != 1 or norms.count(nonzero[0]) != 4:
            errors.append(f"{where}: even b needs four equal nonzero norms, got {row['norms']}")
        elif (nonzero[0] % 2 == 1) != (b % 4 == 2):
            errors.append(f"{where}: norm {nonzero[0]} has the wrong parity for b = {b}")
        elif b % 4 == 2:
            expect["mog"] = str(nonzero[0] + 2)
    if int(row["h2_order"]) != order or len(norms) != order:
        errors.append(f"{where}: h2_order {row['h2_order']} with {len(norms)} norms, expected {order}")
    for key, want in expect.items():
        if row[key] != want:
            errors.append(f"{where}: {key} {row[key]!r}, expected {want!r}")
    return errors


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------

_NORM_LINE = re.compile(
    r"^  \((?P<coords>[^)]*)\)  norm (?P<norm>\d+)  (?P<desc>[^;\[]*?)"
    r"(?:; certificate: (?P<cert>.*?))?(?:  \[(?P<note>[^\]]*)\])?$"
)
_TEXT_KINDS = {"empty surface": "empty", "torus fiber": "torus fiber", "torus": "torus",
               "Klein bottle": "Klein bottle"}


def parse_text_report(out: str) -> dict:
    """Normalise a text report into the record parse_json_report gives."""
    lines = out.splitlines()
    fields = {}
    table_start = lines.index("norm table:")
    for line in lines[:table_start] + lines[-2:]:
        key, _, value = line.partition(": ")
        fields[key] = value
    rec = {
        "matrix": fields["matrix"],
        "kind": fields["kind"],
        "det": int(fields["det"]),
        "trace": int(fields["trace"]),
        "mog": _value(fields["mog"]),
        "meg": int(fields["meg"]),
    }
    if rec["kind"] == "bundle":
        rec["geometry"] = fields["geometry"]
        h2 = re.fullmatch(r"order (\d+) \((.*) mod 2\); generators: (.*?)(?:; identification: (.*))?",
                          fields["h2"])
        rec["h2"] = (int(h2[1]), h2[2], tuple(h2[3].split(", ")), h2[4])
        rec["lengths"] = {
            label: _value(value)
            for label, value in re.findall(r"l\[(\d/\d)\]=(\w+)", fields["translation lengths"])
        }
    else:
        h2 = re.fullmatch(r"order (\d+); generators: (.*)", fields["h2"])
        rec["h2"] = (int(h2[1]), None, tuple(h2[2].split(", ")), None)
    table = []
    for line in lines[table_start + 1:-2]:
        match = _NORM_LINE.match(line)
        if match is None:
            raise ValueError(f"unparsed norm line {line!r}")
        coords = tuple(int(part.split("=")[1]) for part in match["coords"].split(", "))
        pieces = []
        certs = match["cert"].split("; ") if match["cert"] else []
        for desc in match["desc"].split(" + "):
            if desc.startswith("Pi_"):
                cert = certs.pop(0) if certs else None
                if cert == "(elided)":
                    cert = "elided"
                elif cert is not None:
                    cert = tuple(_slope(s) for s in cert.split(" -> "))
                pieces.append(("Pi_g", int(desc[3:]), cert))
            else:
                pieces.append((_TEXT_KINDS[desc], None, None))
        if certs:
            raise ValueError(f"certificate without a Pi_g piece in {line!r}")
        table.append((coords, int(match["norm"]), tuple(pieces), match["note"]))
    rec["table"] = table
    return rec


def _json_pieces(realizer: dict) -> tuple:
    parts = realizer["pieces"] if realizer["kind"] == "sum" else [realizer]
    pieces = []
    for part in parts:
        if part["kind"] == "Pi_g":
            cert = part.get("certificate")
            if isinstance(cert, list):
                cert = tuple(_slope(s) for s in cert)
            pieces.append(("Pi_g", part["genus"], cert))
        else:
            if part["kind"] == "Klein bottle" and part.get("genus") != 2:
                raise ValueError(f"Klein bottle with genus {part.get('genus')}")
            pieces.append((part["kind"], None, None))
    return tuple(pieces)


def parse_json_report(out: str) -> dict:
    doc = json.loads(out)
    names = BUNDLE_COORDS if doc["kind"] == "bundle" else SEMI_COORDS
    rec = {key: doc[key] for key in ("matrix", "kind", "det", "trace", "mog", "meg")}
    h2 = doc["h2"]
    rec["h2"] = (h2["order"], h2.get("case"), tuple(h2["generators"]), h2.get("identification"))
    if doc["kind"] == "bundle":
        rec["geometry"] = doc["geometry"]
        rec["lengths"] = doc["translation_lengths"]
    rec["table"] = [
        (tuple(entry["class"][n] for n in names), entry["norm"], _json_pieces(entry["realizer"]),
         entry.get("note"))
        for entry in doc["norm_table"]
    ]
    return rec


def check_report_pair(text_out: str, json_out: str, kind: str, m: Matrix, cap: int | None) -> tuple[dict | None, list[str]]:
    """Parse both renderings of one report, check they agree, then check
    the record.  Returns the record (None when unparseable) and errors."""
    where = f"{kind} {text(m)}"
    try:
        rec_text = parse_text_report(text_out)
        rec_json = parse_json_report(json_out)
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return None, [f"{where}: unparseable report ({err})"]
    if rec_text != rec_json:
        diff = sorted(k for k in rec_text.keys() | rec_json.keys() if rec_text.get(k) != rec_json.get(k))
        return rec_json, [f"{where}: text and JSON disagree on {', '.join(diff)}"]
    return rec_json, check_report(rec_json, kind, m, cap)


def check_report(rec: dict, kind: str, m: Matrix, cap: int | None) -> list[str]:
    where = f"{kind} {text(m)}"
    errors = []
    if rec["matrix"] != text(m) or rec["kind"] != kind:
        return [f"{where}: report is for {rec['kind']} {rec['matrix']}"]
    if rec["det"] != det(m) or rec["trace"] != m[0] + m[3]:
        errors.append(f"{where}: det/trace {rec['det']}/{rec['trace']}")
    cap = 10000 if cap is None else cap
    norms = [entry[1] for entry in rec["table"]]
    if kind == "bundle":
        errors += _check_bundle_table(rec, m, cap, where)
        expect_mog, expect_meg = bundle_mog(norms), bundle_meg(m)
        if rec["geometry"] != geometry(m):
            errors.append(f"{where}: geometry {rec['geometry']}")
    else:
        errors += _check_semi_table(rec, m, cap, where)
        b = m[2]
        expect_mog = max(norms) + 2 if b % 4 == 2 else INF
        expect_meg = 2
    if rec["mog"] != expect_mog or rec["meg"] != expect_meg:
        errors.append(f"{where}: mog/meg {rec['mog']}/{rec['meg']}, expected {expect_mog}/{expect_meg}")
    return errors


def _check_pi(piece, norm: int, cap: int, where: str) -> list[str]:
    _, genus, cert = piece
    errors = []
    if genus != norm + 2:
        errors.append(f"{where}: genus {genus} for norm {norm}")
    if cert == "elided":
        if norm <= cap:
            errors.append(f"{where}: certificate of length {norm} elided under cap {cap}")
    elif cert is None or len(cert) - 1 != norm:
        errors.append(f"{where}: certificate length does not equal norm {norm}")
    elif norm > cap:
        errors.append(f"{where}: certificate of length {norm} kept over cap {cap}")
    return errors


def _check_bundle_table(rec: dict, m: Matrix, cap: int, where: str) -> list[str]:
    errors = []
    kernel = kernel_mod2(m)
    coords = sorted(entry[0] for entry in rec["table"])
    if rec["h2"][0] != 2 * len(kernel) or coords != sorted((t, j, k) for t in (0, 1) for j, k in kernel):
        return [f"{where}: H2 classes {coords}, expected kernel {sorted(kernel)}"]
    for label, length in rec["lengths"].items():
        j, k = int(label[0]), int(label[2])
        if (length == INF) != ((j, k) not in kernel):
            errors.append(f"{where}: l[{label}] = {length} but class fixed is {(j, k) in kernel}")
    for (t, j, k), norm, pieces, _ in rec["table"]:
        here = f"{where} class t={t} j={j} k={k}"
        tail = (("torus fiber", None, None),) if t else ()
        if (j, k) == (0, 0):
            if norm != 0 or pieces != (tail or (("empty", None, None),)):
                errors.append(f"{here}: norm {norm} realized by {pieces}")
            continue
        if norm != rec["lengths"][f"{j}/{k}"]:
            errors.append(f"{here}: norm {norm} is not the translation length")
        if pieces[len(pieces) - len(tail):] != tail:
            errors.append(f"{here}: missing torus fiber")
            continue
        head = pieces[0]
        if norm == 0:
            if len(pieces) != 1 + len(tail) or head[0] not in ("torus", "Klein bottle"):
                errors.append(f"{here}: norm 0 realized by {pieces}")
            continue
        if len(pieces) != 1 + len(tail) or head[0] != "Pi_g":
            errors.append(f"{here}: norm {norm} realized by {pieces}")
            continue
        errors += _check_pi(head, norm, cap, here)
        cert = head[2]
        if cert == "elided" or cert is None or len(cert) - 1 != norm:
            continue
        errors += _check_axis_path(list(cert), m, (j, k), here)
    return errors


def _check_axis_path(path, m: Matrix, parity: tuple[int, int], where: str) -> list[str]:
    """path runs from v to A(v) and continues into A(path) without
    backtracking, so it is a fundamental domain of the axis of A."""
    errors = check_path(path, where)
    v = path[0]
    if (v[0] % 2, v[1] % 2) != parity:
        errors.append(f"{where}: certificate starts outside the parity class")
    if act(m, *v) != path[-1]:
        errors.append(f"{where}: certificate ends at {path[-1]}, not at A(v) = {act(m, *v)}")
    elif act(m, *path[1]) == path[-2]:
        # an inversion flips the edge v -- A(v): length 1 by convention
        if len(path) != 2:
            errors.append(f"{where}: certificate backtracks into its A-image")
    return errors


def _check_semi_table(rec: dict, m: Matrix, cap: int, where: str) -> list[str]:
    a, b = m[0], m[2]
    order = 4 if b % 2 else 8
    coords = sorted(entry[0] for entry in rec["table"])
    phis = (0, 1) if order == 8 else (0,)
    if rec["h2"][0] != order or coords != [(e1, e2, f) for e1 in (0, 1) for e2 in (0, 1) for f in phis]:
        return [f"{where}: H2 classes {coords}, expected order {order}"]
    errors = []
    phi_norms = set()
    for (e1, e2, phi), norm, pieces, _ in rec["table"]:
        here = f"{where} class e1={e1} e2={e2} phi={phi}"
        klein = [p for p in pieces if p[0] == "Klein bottle"]
        rest = [p for p in pieces if p[0] != "Klein bottle"]
        if not phi:
            want = e1 + e2
            if norm != 0 or len(klein) != want or rest != ([] if want else [("empty", None, None)]):
                errors.append(f"{here}: norm {norm} realized by {pieces}")
            continue
        phi_norms.add(norm)
        if b == 0:
            if norm != 0 or len(klein) != e1 + e2 + 1 or rest:
                errors.append(f"{here}: norm {norm} realized by {pieces}")
            continue
        if len(klein) != e1 + e2 or len(rest) != 1 or rest[0][0] != "Pi_g":
            errors.append(f"{here}: norm {norm} realized by {pieces}")
            continue
        if norm % 2 != (1 if b % 4 == 2 else 0) or norm == 0:
            errors.append(f"{here}: norm {norm} has the wrong parity for b = {b}")
        errors += _check_pi(rest[0], norm, cap, here)
        cert = rest[0][2]
        if cert == "elided" or cert is None or len(cert) - 1 != norm:
            continue
        path = list(cert)
        errors += check_path(path, here)
        if path[0] != (1, 0) or path[-1] != canonical(a, b):
            errors.append(f"{here}: certificate runs {path[0]} -> {path[-1]}, not 1/0 -> {a}/{b}")
    if len(phi_norms) > 1:
        errors.append(f"{where}: classes with phi = 1 have norms {sorted(phi_norms)}")
    return errors


def check_related(rec: dict, base: dict, power_k: int | None, where: str) -> list[str]:
    """A conjugate P S P^-1 has the norms, mog and meg of S; Q^k has k times
    the norm of Q on every class (Q translates on all three trees)."""
    if power_k is None:
        if sorted(e[1] for e in rec["table"]) != sorted(e[1] for e in base["table"]):
            return [f"{where}: norms differ from those of {base['matrix']}"]
        if (rec["mog"], rec["meg"]) != (base["mog"], base["meg"]):
            return [f"{where}: mog/meg differ from those of {base['matrix']}"]
        return []
    base_norms = {e[0]: e[1] for e in base["table"]}
    return [
        f"{where}: class {coords} norm {norm} != {power_k} * {base_norms.get(coords)}"
        for coords, norm, _, _ in rec["table"]
        if norm != power_k * base_norms.get(coords, -1)
    ]


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

_CONJUGACY = re.compile(r"PASS  conjugacy criterion: (\d+) trace -2 matrices \(entries <= (\d+)\)")


def check_verify(out: str, status: int, level: str = "full") -> list[str]:
    """Exit 0, all 11 checks PASS, and the trace -2 count the conjugacy
    criterion reports equals count_trace_minus_two(bound)."""
    errors = []
    if status != 0:
        errors.append(f"verify exited {status}")
    lines = out.splitlines()
    passed = [line for line in lines if line.startswith("PASS  ")]
    if len(passed) != FULL_CHECKS or any(line.startswith("FAIL") for line in lines):
        errors.append(f"verify printed {len(passed)} PASS lines, expected {FULL_CHECKS}")
    if not lines or lines[-1] != f"{FULL_CHECKS}/{FULL_CHECKS} checks passed ({level} level)":
        errors.append(f"verify summary {lines[-1] if lines else ''!r}")
    match = next(filter(None, map(_CONJUGACY.match, lines)), None)
    if match is None:
        errors.append("verify printed no conjugacy criterion PASS line")
    else:
        reported, bound = int(match[1]), int(match[2])
        expected = count_trace_minus_two(bound)
        if reported != expected:
            errors.append(f"conjugacy criterion counted {reported} trace -2 matrices, expected {expected}")
    return errors

