"""Command-line front end.

Subcommands: bw, dist, geodesic, act, bundle, semibundle, census,
export-graph, verify.  Infinity renders as the literal string "inf" in both
text and JSON.  Exit codes: 0 success, 1 domain error (non-coprime slope,
determinant not +-1, ...), 2 parse error, 3 verification failure, 4 census
input or output file error (missing, unwritable, not UTF-8).

A report on one matrix is one record, the matrix text and the kind's
Summary (_record).  Three writers of fixed shape write it out: render and
to_canonical_json, with the norm table, and census_row, without one.

Every command runs in a fresh process, so the imports are kept to what
reports need: `verify` imports the oracle on demand, and JSON strings are
quoted by the C function that json.dumps uses, taken from _json without
loading the json package.  For the same reason main hands the arguments
after a subcommand's name straight to that subcommand's own argparse
parser, and goes back to the top-level parser only for what that parser
leaves unrecognized, so usage errors are argparse's own (see main).
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
from _json import encode_basestring_ascii as _quote

from . import bundle, semibundle
from .arith import INF, ExtNat, bredon_wood, fmt_extnat
from .curve_complex import (
    GL2Matrix,
    PARITY_CLASSES,
    TreePath,
    distance,
    export_dot,
    geodesic_path,
    mat_act,
    parse_int,
    parse_matrix,
    parse_slope,
)
from .errors import DomainError, ParseError, int_text
from .reports import DEFAULT_CERTIFICATE_CAP, KIND_EMPTY, KIND_PI, KIND_SUM, NormReport, Summary, SurfaceDescription

# The module of each kind, with its summary and norm_table.
KINDS = {"bundle": bundle, "semibundle": semibundle}


def _record(kind: str, A: GL2Matrix) -> tuple[str, Summary]:
    """The record every report of A is written from.  The trace is checked
    here because every writer prints the int itself."""
    matrix = A.to_text()  # before the F[b/a] label, so an over-long entry is named
    s = KINDS[kind].summary(A)
    int_text(s.trace, "trace")
    return matrix, s


def _norm_lines(table: list[NormReport]) -> list[str]:
    """The norm table's rows, each built in one f-string.  A row shows at
    most one certificate, its realizer's or a piece's; texts maps id(path)
    to its text, so each is formatted once per report."""
    lines, texts = [], {}
    for entry in table:
        coords = ", ".join(f"{name}={value}" for name, value in entry.coords.items())
        certificate = ""
        for surface in (entry.realizer, *entry.realizer.pieces):
            path = surface.certificate
            if surface.certificate_elided:
                certificate = "(elided)"
            elif path is not None:
                if id(path) not in texts:
                    texts[id(path)] = path.text(" -> ")
                certificate = texts[id(path)]
        label = "; certificate: " if certificate else ""
        note = f"  [{entry.note}]" if entry.note else ""
        lines.append(f"  ({coords})  norm {entry.norm}  {_surface_name(entry.realizer)}{label}{certificate}{note}")
    return lines


def _surface_name(surface: SurfaceDescription) -> str:
    """The text report's name of a realizing surface."""
    if surface.kind == KIND_SUM:
        return " + ".join(map(_surface_name, surface.pieces))
    if surface.kind == KIND_PI:
        return f"Pi_{surface.genus}"
    return "empty surface" if surface.kind == KIND_EMPTY else surface.kind


def render(kind: str, A: GL2Matrix, certificate_cap: int) -> str:
    """The text report, written from the record and the norm table."""
    matrix, s = _record(kind, A)
    h2, generators = s.h2, ", ".join(s.h2.generators)
    lines = [f"matrix: {matrix}", f"kind: {s.kind}", f"det: {s.det}", f"trace: {s.trace}"]
    if s.kind == "bundle":
        identification = f"; identification: {h2.identification}" if h2.identification else ""
        lengths = " ".join(f"l[{cls.label}]={fmt_extnat(s.lengths[cls])}" for cls in PARITY_CLASSES)
        lines += [f"geometry: {s.geometry}",
                  f"h2: order {h2.order} ({h2.case_label} mod 2); generators: {generators}{identification}",
                  f"translation lengths: {lengths}"]
    else:
        lines.append(f"h2: order {h2.order}; generators: {generators}")
    table = KINDS[kind].norm_table(A, s, certificate_cap)
    # one join, whose empty last item ends the text with its newline
    lines += ["norm table:", *_norm_lines(table), f"mog: {fmt_extnat(s.mog)}", f"meg: {s.meg}", ""]
    return "\n".join(lines)


# The JSON report's members are written in the order sort_keys gives them:
# the parity classes by their labels, which need no escaping, and each
# kind's class bits by name, in a row's head up to the value of "norm".
_CLASSES_BY_LABEL = sorted(PARITY_CLASSES, key=lambda cls: cls.label)
_ROW_HEADS = {
    kind: '{\n      "class": {'
    + ",".join(f'\n        "{name}": %({name})d' for name in names)
    + '\n      },\n      "norm": '
    for kind, names in (("bundle", ("j", "k", "t")), ("semibundle", ("e1", "e2", "phi")))
}


def _extnat_json(value: ExtNat) -> str:
    """The JSON text of an ExtNat: an int, or the string "inf"."""
    return '"inf"' if value == INF else repr(value)


def to_canonical_json(kind: str, A: GL2Matrix, certificate_cap: int) -> str:
    """The JSON report, written from the record and the norm table: the
    bytes of json.dumps(report, sort_keys=True, indent=2) + "\n", with each
    certificate as the list of its "p/q" texts.  The schema fixes every
    member, so each is written in its place into one list of parts."""
    matrix, s = _record(kind, A)
    table = KINDS[kind].norm_table(A, s, certificate_cap)
    h2, bundle_ = s.h2, s.kind == "bundle"
    parts = ['{\n  "det": ', repr(s.det)]
    if bundle_:
        parts += (',\n  "geometry": ', _quote(s.geometry), ',\n  "h2": {\n    "case": ',
                  _quote(h2.case_label), ",\n    ")
    else:
        parts.append(',\n  "h2": {\n    ')
    parts += ('"generators": [\n      ', ",\n      ".join(map(_quote, h2.generators)), "\n    ]")
    if bundle_ and h2.identification:
        parts += (',\n    "identification": ', _quote(h2.identification))
    parts += (',\n    "order": ', repr(h2.order), '\n  },\n  "kind": ', _quote(s.kind),
              ',\n  "matrix": ', _quote(matrix), ',\n  "meg": ', repr(s.meg),
              ',\n  "mog": ', _extnat_json(s.mog), ',\n  "norm_table": [\n    ')
    head, written = _ROW_HEADS[s.kind], {}
    for i, entry in enumerate(table):
        parts += (",\n    " if i else "", head % entry.coords, repr(entry.norm))
        if entry.note:
            parts += (',\n      "note": ', _quote(entry.note))
        parts.append(',\n      "realizer": ')
        _write_realizer(entry.realizer, "\n      ", parts, written)
        parts.append("\n    }")
    parts += ('\n  ],\n  "trace": ', repr(s.trace))
    if bundle_:
        lengths = ",".join(f'\n    "{cls.label}": {_extnat_json(s.lengths[cls])}' for cls in _CLASSES_BY_LABEL)
        parts += (',\n  "translation_lengths": {', lengths, "\n  }")
    parts.append("\n}\n")
    return "".join(parts)


def _write_realizer(surface: SurfaceDescription, newline: str, parts: list[str],
                    written: dict[int, dict[str, str]]) -> None:
    """Append the JSON object of a realizing surface to parts; newline is
    the line break and indent of the line it starts on.  A sum's pieces,
    never sums themselves, are written one level deeper by this function."""
    inner = newline + "  "
    parts.append("{")
    if surface.certificate_elided:
        parts += (inner, '"certificate": "elided",')
    elif surface.certificate is not None:
        parts += (inner, '"certificate": ', _certificate_block(surface.certificate, inner, written), ",")
    if surface.genus is not None:
        parts += (inner, '"genus": ', repr(surface.genus), ",")
    parts += (inner, '"kind": ', _quote(surface.kind))
    if surface.pieces:
        deeper = inner + "  "
        separator = f',{inner}"pieces": [{deeper}'
        for piece in surface.pieces:
            parts.append(separator)
            _write_realizer(piece, deeper, parts, written)
            separator = "," + deeper
        parts += (inner, "]")
    parts += (newline, "}")


def _certificate_block(path: TreePath, newline: str, written: dict[int, dict[str, str]]) -> str:
    """The JSON list of path's "p/q" texts, starting on the line newline
    breaks to.  TreePath.text formats it once per document: written maps
    id(path) to its block at each newline, and another indent re-indents
    the first block.  A slope's text needs no escaping."""
    texts = written.setdefault(id(path), {})
    block = texts.get(newline)
    if block is None:
        if texts:  # each line break of a written block is followed by its indent
            first, block = next(iter(texts.items()))
            block = block.replace(first, newline)
        else:
            inner = newline + "  "
            body = path.text('",' + inner + '"')
            block = f'[{inner}"{body}"{newline}]'
        texts[newline] = block
    return block


CENSUS_COLUMNS = ["matrix", "kind", "det", "trace", "geometry", "h2_order", "norms", "mog", "meg"]


def census_row(kind: str, A: GL2Matrix) -> list:
    """The CSV row, in CENSUS_COLUMNS order, written from the record alone:
    it builds no norm table and no realizer."""
    matrix, s = _record(kind, A)
    norms = "|".join(map(str, s.norms))
    return [matrix, s.kind, s.det, s.trace, s.geometry or "", s.h2.order, norms, fmt_extnat(s.mog), s.meg]


def parse_census_line(line: str, lineno: int) -> tuple[str, GL2Matrix] | None:
    """A census input line is "bundle a,c;b,d" or "semibundle a,c;b,d";
    blank lines and # comments are skipped."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2 or parts[0] not in KINDS:
        raise ParseError(
            f"line {lineno}: expected 'bundle a,c;b,d' or 'semibundle a,c;b,d', got {stripped!r}"
        )
    return parts[0], parse_matrix(parts[1])


def run_census(in_path: str, out_path: str) -> int:
    """Write one row per input line as it is computed, to a temporary file
    beside out_path that replaces it only once every line has parsed; on
    any failure the temporary file is removed and out_path is untouched."""
    count = 0
    temp_path = f"{out_path}.{os.getpid()}.tmp"
    with open(in_path, encoding="utf-8") as source:
        sink = open(temp_path, "x", encoding="utf-8", newline="")
        try:
            with sink:
                writer = csv.writer(sink, lineterminator="\n")
                writer.writerow(CENSUS_COLUMNS)
                for lineno, line in enumerate(source, start=1):
                    parsed = parse_census_line(line, lineno)
                    if parsed is not None:
                        writer.writerow(census_row(*parsed))
                        count += 1
            os.replace(temp_path, out_path)
        except BaseException:
            os.remove(temp_path)
            raise
    return count


def _integer(text: str) -> int:
    """argparse type for integer arguments: the ASCII rule of slopes and matrices."""
    try:
        return parse_int(text, f"expected an integer, got {text!r}")
    except ParseError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _count(text: str) -> int:
    """argparse type for caps, radii and bounds: a non-negative integer."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser, whose parse_args decides every argv
    that main reads (see main)."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The argument parser and each subcommand's own parser by name, built
    on first use and then reused: building them costs about as much as a
    small report."""
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

    for name in KINDS:
        p = sub.add_parser(name, help=f"full norm report for a torus {name}")
        p.add_argument("--matrix", required=True, help='row-major "a,c;b,d"')
        p.add_argument("--json", action="store_true")
        p.add_argument("--certificate-cap", type=_count, default=DEFAULT_CERTIFICATE_CAP,
                       help="elide geodesic certificates longer than this (default %(default)s)")

    p = sub.add_parser("census", help="CSV summary for a file of matrices")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", dest="out_path", required=True)

    p = sub.add_parser("export-graph", help="DOT text for a ball in the curve complex")
    p.add_argument("--center", required=True)
    p.add_argument("--radius", type=_count, required=True)
    p.add_argument("--bound", type=_count, required=True)

    p = sub.add_parser("verify", help="run the brute-force verification suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), reaching a named subcommand's own
    parser first (see main)."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argv defaults to
    sys.argv[1:].

    When argv[0] names a subcommand, the rest of argv goes straight to that
    subcommand's own parser, with the command already in the Namespace.
    The top-level parser would hand those arguments on unread, but only
    after classifying each of them, which costs about twice the
    subcommand's own parse.  If the subcommand's parser leaves arguments
    unrecognized, argv is parsed again by the top-level parser, because
    the "unrecognized arguments" error is the top-level parser's, with
    its usage line.  Every other argv (none, -h, --, an unknown command)
    goes to the top-level parser alone.  So the Namespace, the help and
    every usage error are those of build_parser().parse_args(argv), byte
    for byte."""
    args = _parse(sys.argv[1:] if argv is None else argv)
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
        path = geodesic_path(parse_slope(args.slope1), parse_slope(args.slope2))
        print(path.text(" -> "))
    elif args.command == "act":
        print(mat_act(parse_matrix(args.matrix), parse_slope(args.slope)))
    elif args.command in KINDS:
        A = parse_matrix(args.matrix)
        if args.json:
            sys.stdout.write(to_canonical_json(args.command, A, args.certificate_cap))
        else:
            sys.stdout.write(render(args.command, A, args.certificate_cap))
    elif args.command == "census":
        try:
            count = run_census(args.in_path, args.out_path)
        except OSError as err:
            print(f"solnorm: census: {err}", file=sys.stderr)
            return 4
        except UnicodeDecodeError as err:
            print(f"solnorm: census: {args.in_path} is not UTF-8 text: {err}", file=sys.stderr)
            return 4
        print(f"wrote {count} rows to {args.out_path}")
    elif args.command == "export-graph":
        sys.stdout.write(export_dot(parse_slope(args.center), args.radius, args.bound))
    elif args.command == "verify":
        from .oracle import run_checks

        results = run_checks(args.level)
        for result in results:
            print(result.line())
            for failure in result.failures[:10]:  # ten lines per check at most
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
