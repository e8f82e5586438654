"""Command-line front end.

Subcommands: bw, dist, geodesic, act, bundle, semibundle, census,
export-graph, verify.  Infinity renders as the literal string "inf" in both
text and JSON.  Exit codes: 0 success, 1 domain error (non-coprime slope,
determinant not +-1, ...), 2 parse error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from .arith import bredon_wood, extnat_json, fmt_extnat
from .bundle import _mog, _norm_multiset, _norm_table, classify_geometry, h2_structure, meg_bundle
from .curve_complex import (
    GL2Matrix,
    ParityClass,
    distance,
    export_dot,
    geodesic,
    mat_act,
    parse_int,
    parse_matrix,
    parse_slope,
)
from .errors import DomainError, ParseError
from .oracle import run_checks
from .reports import DEFAULT_CERTIFICATE_CAP, NormReport
from .semibundle import (
    _f_norm,
    _mog_semi,
    _norm_multiset_semi,
    _norm_table_semi,
    h2_structure_semi,
    meg_semi,
)
from .tree_action import translation_lengths


def bundle_document(A: GL2Matrix, certificate_cap: int = DEFAULT_CERTIFICATE_CAP) -> dict:
    structure = h2_structure(A)
    lengths = translation_lengths(A)
    doc = {
        "matrix": A.to_text(),
        "kind": "bundle",
        "det": A.det(),
        "trace": A.trace(),
        "geometry": classify_geometry(A).value,
        "h2": {
            "case": structure.case_label,
            "order": structure.order,
            "generators": list(structure.generators),
        },
        "translation_lengths": {cls.label: extnat_json(lengths[cls]) for cls in ParityClass},
        "norm_table": [
            entry.to_json() for entry in _norm_table(A, structure, lengths, certificate_cap)
        ],
        "mog": extnat_json(_mog(lengths)),
        "meg": meg_bundle(A),
    }
    if structure.identification:
        doc["h2"]["identification"] = structure.identification
    return doc


def semibundle_document(A: GL2Matrix, certificate_cap: int = DEFAULT_CERTIFICATE_CAP) -> dict:
    matrix = A.to_text()  # before the F[b/a] label, so an over-long entry is named
    structure = h2_structure_semi(A)
    norm = _f_norm(A)
    return {
        "matrix": matrix,
        "kind": "semibundle",
        "det": A.det(),
        "trace": A.trace(),
        "h2": {"order": structure.order, "generators": list(structure.generators)},
        "norm_table": [entry.to_json() for entry in _norm_table_semi(A, norm, certificate_cap)],
        "mog": extnat_json(_mog_semi(A, norm)),
        "meg": meg_semi(A),
    }


def to_canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _norm_lines(table: list[NormReport], coord_names: tuple[str, ...]) -> list[str]:
    lines = []
    for entry in table:
        coords = ", ".join(f"{name}={entry.coords[name]}" for name in coord_names)
        line = f"  ({coords})  norm {entry.norm}  {entry.realizer.describe()}"
        certificate = entry.realizer.certificate_text()
        if certificate:
            line += f"; certificate: {certificate}"
        if entry.note:
            line += f"  [{entry.note}]"
        lines.append(line)
    return lines


def render_bundle(A: GL2Matrix, certificate_cap: int) -> str:
    structure = h2_structure(A)
    lengths = translation_lengths(A)
    lines = [
        f"matrix: {A.to_text()}",
        "kind: bundle",
        f"det: {A.det()}",
        f"trace: {A.trace()}",
        f"geometry: {classify_geometry(A).value}",
        f"h2: order {structure.order} ({structure.case_label} mod 2); "
        f"generators: {', '.join(structure.generators)}"
        + (f"; identification: {structure.identification}" if structure.identification else ""),
        "translation lengths: "
        + " ".join(f"l[{cls.label}]={fmt_extnat(lengths[cls])}" for cls in ParityClass),
        "norm table:",
        *_norm_lines(_norm_table(A, structure, lengths, certificate_cap), ("t", "j", "k")),
        f"mog: {fmt_extnat(_mog(lengths))}",
        f"meg: {meg_bundle(A)}",
    ]
    return "\n".join(lines) + "\n"


def render_semibundle(A: GL2Matrix, certificate_cap: int) -> str:
    matrix = A.to_text()  # before the F[b/a] label, so an over-long entry is named
    structure = h2_structure_semi(A)
    norm = _f_norm(A)
    lines = [
        f"matrix: {matrix}",
        "kind: semibundle",
        f"det: {A.det()}",
        f"trace: {A.trace()}",
        f"h2: order {structure.order}; generators: {', '.join(structure.generators)}",
        "norm table:",
        *_norm_lines(_norm_table_semi(A, norm, certificate_cap), ("e1", "e2", "phi")),
        f"mog: {fmt_extnat(_mog_semi(A, norm))}",
        f"meg: {meg_semi(A)}",
    ]
    return "\n".join(lines) + "\n"


CENSUS_COLUMNS = ["matrix", "kind", "det", "trace", "geometry", "h2_order", "norms", "mog", "meg"]


def census_row(kind: str, A: GL2Matrix) -> dict:
    if kind == "bundle":
        structure = h2_structure(A)
        lengths = translation_lengths(A)
        norms = _norm_multiset(structure, lengths)
        geometry = classify_geometry(A).value
        h2_order = structure.order
        mog, meg = _mog(lengths), meg_bundle(A)
    else:
        norm = _f_norm(A)
        norms = _norm_multiset_semi(norm)
        geometry = ""
        h2_order = h2_structure_semi(A).order
        mog, meg = _mog_semi(A, norm), meg_semi(A)
    return {
        "matrix": A.to_text(),
        "kind": kind,
        "det": A.det(),
        "trace": A.trace(),
        "geometry": geometry,
        "h2_order": h2_order,
        "norms": "|".join(str(n) for n in norms),
        "mog": fmt_extnat(mog),
        "meg": meg,
    }


def parse_census_line(line: str, lineno: int) -> tuple[str, GL2Matrix] | None:
    """A census input line is "bundle a,c;b,d" or "semibundle a,c;b,d";
    blank lines and # comments are skipped."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2 or parts[0] not in ("bundle", "semibundle"):
        raise ParseError(
            f"line {lineno}: expected 'bundle a,c;b,d' or 'semibundle a,c;b,d', got {stripped!r}"
        )
    return parts[0], parse_matrix(parts[1])


def run_census(in_path: str, out_path: str) -> int:
    rows = []
    with open(in_path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parsed = parse_census_line(line, lineno)
            if parsed is not None:
                rows.append(census_row(*parsed))
    with open(out_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=CENSUS_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


def _integer(text: str) -> int:
    """argparse type for integer arguments: the ASCII rule of slopes and matrices."""
    try:
        return parse_int(text, f"expected an integer, got {text!r}")
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: building it
    costs about as much as a small report."""
    parser = argparse.ArgumentParser(
        prog="solnorm",
        description="Z2-Thurston norms and non-orientable genus bounds for "
        "torus bundles and semi-bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bw", help="Bredon-Wood invariant N(p, q)")
    p.add_argument("p", type=_integer)
    p.add_argument("q", type=_integer)

    p = sub.add_parser("dist", help="distance between two slopes in the curve complex")
    p.add_argument("slope1")
    p.add_argument("slope2")

    p = sub.add_parser("geodesic", help="the unique tree path between two same-parity slopes")
    p.add_argument("slope1")
    p.add_argument("slope2")

    p = sub.add_parser("act", help="image of a slope under a matrix")
    p.add_argument("--matrix", required=True, help='row-major "a,c;b,d"')
    p.add_argument("slope")

    for name in ("bundle", "semibundle"):
        p = sub.add_parser(name, help=f"full norm report for a torus {name}")
        p.add_argument("--matrix", required=True, help='row-major "a,c;b,d"')
        p.add_argument("--json", action="store_true")
        p.add_argument("--certificate-cap", type=_integer, default=DEFAULT_CERTIFICATE_CAP,
                       help="elide geodesic certificates longer than this (default %(default)s)")

    p = sub.add_parser("census", help="CSV summary for a file of matrices")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)

    p = sub.add_parser("export-graph", help="DOT text for a ball in the curve complex")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=_integer, required=True)
    p.add_argument("--bound", type=_integer, required=True)

    p = sub.add_parser("verify", help="run the brute-force verification suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as err:
        print(f"solnorm: parse error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"solnorm: {err}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "bw":
        print(fmt_extnat(bredon_wood(args.p, args.q)))
    elif args.command == "dist":
        print(fmt_extnat(distance(parse_slope(args.slope1), parse_slope(args.slope2))))
    elif args.command == "geodesic":
        path = geodesic(parse_slope(args.slope1), parse_slope(args.slope2))
        print(" -> ".join(str(s) for s in path))
    elif args.command == "act":
        print(mat_act(parse_matrix(args.matrix), parse_slope(args.slope)))
    elif args.command == "bundle":
        A = parse_matrix(args.matrix)
        if args.json:
            sys.stdout.write(to_canonical_json(bundle_document(A, args.certificate_cap)))
        else:
            sys.stdout.write(render_bundle(A, args.certificate_cap))
    elif args.command == "semibundle":
        A = parse_matrix(args.matrix)
        if args.json:
            sys.stdout.write(to_canonical_json(semibundle_document(A, args.certificate_cap)))
        else:
            sys.stdout.write(render_semibundle(A, args.certificate_cap))
    elif args.command == "census":
        count = run_census(args.in_path, args.out_path)
        print(f"wrote {count} rows to {args.out_path}")
    elif args.command == "export-graph":
        sys.stdout.write(export_dot(parse_slope(args.center), args.radius, args.bound))
    elif args.command == "verify":
        results = run_checks(args.level)
        for result in results:
            print(result.line())
            for failure in result.failures:
                print(f"      {failure}")
        failed = sum(1 for r in results if not r.passed)
        print(f"{len(results) - failed}/{len(results)} checks passed ({args.level} level)")
        if failed:
            return 3
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
