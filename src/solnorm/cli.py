"""Command-line front end.

Subcommands: bw, dist, geodesic, act, bundle, semibundle, census,
export-graph, verify.  Infinity renders as the literal string "inf" in both
text and JSON.  Exit codes: 0 success, 1 domain error (non-coprime slope,
determinant not +-1, ...), 2 parse error, 3 verification failure, 4 census
input or output file error (missing, unwritable, not UTF-8).

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
from .arith import bredon_wood, extnat_json, fmt_extnat
from .curve_complex import (
    GL2Matrix,
    PARITY_CLASSES,
    TreePath,
    distance,
    export_dot,
    geodesic_path,
    int_text,
    mat_act,
    parse_int,
    parse_matrix,
    parse_slope,
)
from .errors import DomainError, ParseError
from .reports import DEFAULT_CERTIFICATE_CAP, NormReport

# The module of each kind, with its summary and norm_table.
KINDS = {"bundle": bundle, "semibundle": semibundle}


def _report(kind: str, A: GL2Matrix, cap: int) -> tuple[dict, list[NormReport]]:
    """The report's fields other than the norm table, as JSON values, and
    the norm table.  The fields that only bundles have (geometry, the H2
    case and identification, the translation lengths) are set here alone."""
    matrix = A.to_text()  # before the F[b/a] label, so an over-long entry is named
    module = KINDS[kind]
    s = module.summary(A)
    int_text(s.trace, "trace")  # text and JSON print the int itself, so check it here
    h2 = {"order": s.h2.order, "generators": list(s.h2.generators)}
    doc = {"matrix": matrix, "kind": s.kind, "det": s.det, "trace": s.trace, "h2": h2}
    if s.kind == "bundle":
        doc["geometry"] = s.geometry
        h2["case"] = s.h2.case_label
        if s.h2.identification:
            h2["identification"] = s.h2.identification
        lengths = {cls.label: extnat_json(s.lengths[cls]) for cls in PARITY_CLASSES}
        doc["translation_lengths"] = lengths
    doc["mog"], doc["meg"] = extnat_json(s.mog), s.meg
    return doc, module.norm_table(A, s, cap)


def document(kind: str, A: GL2Matrix, certificate_cap: int = DEFAULT_CERTIFICATE_CAP) -> dict:
    """The JSON report, as to_canonical_json writes it: each certificate
    is held as its TreePath, not as a list of texts."""
    doc, table = _report(kind, A, certificate_cap)
    doc["norm_table"] = [entry.to_json() for entry in table]
    return doc


def _norm_lines(table: list[NormReport]) -> list[str]:
    """The norm table's rows, each built in one f-string: a certificate's
    text is copied once into its row."""
    lines = []
    for entry in table:
        coords = ", ".join(f"{name}={value}" for name, value in entry.coords.items())
        certificate = entry.realizer.certificate_text() or ""
        label = "; certificate: " if certificate else ""
        note = f"  [{entry.note}]" if entry.note else ""
        lines.append(f"  ({coords})  norm {entry.norm}  {entry.realizer.describe()}{label}{certificate}{note}")
    return lines


def render(kind: str, A: GL2Matrix, certificate_cap: int) -> str:
    """The text report, rendered from the same fields as the JSON one."""
    doc, table = _report(kind, A, certificate_cap)
    h2 = doc["h2"]
    case = f" ({h2['case']} mod 2)" if "case" in h2 else ""
    identification = f"; identification: {h2['identification']}" if "identification" in h2 else ""
    keys = ("matrix", "kind", "det", "trace", "geometry")
    lines = [f"{key}: {doc[key]}" for key in keys if key in doc]
    generators = ", ".join(h2["generators"])
    lines.append(f"h2: order {h2['order']}{case}; generators: {generators}{identification}")
    if "translation_lengths" in doc:
        lengths = doc["translation_lengths"].items()
        lines.append("translation lengths: " + " ".join(f"l[{label}]={n}" for label, n in lengths))
    # one join, whose empty last item ends the text with its newline
    lines += ["norm table:", *_norm_lines(table), f"mog: {doc['mog']}", f"meg: {doc['meg']}", ""]
    return "\n".join(lines)


def to_canonical_json(doc: dict) -> str:
    """The bytes of json.dumps(doc, sort_keys=True, indent=2) + "\n", written
    directly for the closed report schema: dicts with str keys, ints, strs,
    lists, where a list that starts with a str holds only strs, and
    certificates, which are written as the list of their "p/q" texts.
    Types are matched exactly, so a bool is not taken for an int; any other
    value raises TypeError.  A certificate is a curve_complex.TreePath,
    formatted by its text method into one block per stored piece, and
    only once: a row that shows it again at another indent reuses that
    text with its line breaks re-indented."""
    parts: list[str] = []
    _write_json(doc, "\n", parts, {})
    parts.append("\n")
    return "".join(parts)


def _write_json(value, newline: str, parts: list[str], written: dict[int, dict[str, str]]) -> None:
    """Append the text of value to parts; newline is the line break and
    indent of the line value starts on.  written maps the id of each
    certificate written so far to its text at each newline it was
    written on."""
    kind = type(value)
    if kind is str:
        parts.append(_quote(value))
    elif kind is int:
        parts.append(repr(value))
    elif (kind is dict or kind is list) and not value:
        parts.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"JSON object key {key!r} is not a str")
            item = value[key]
            if type(item) is str:  # a leaf is written with its key
                parts += (separator, _quote(key), ": ", _quote(item))
            elif type(item) is int:
                parts += (separator, _quote(key), ": ", repr(item))
            else:
                parts += (separator, _quote(key), ": ")
                _write_json(item, inner, parts, written)
            separator = "," + inner
        parts.append(newline + "}")
    elif kind is list:
        inner = newline + "  "
        if type(value[0]) is str:  # in one join; _quote refuses a non-str
            parts += ("[", inner, ("," + inner).join(map(_quote, value)), newline, "]")
            return
        separator = "[" + inner
        for item in value:
            parts.append(separator)
            _write_json(item, inner, parts, written)
            separator = "," + inner
        parts.append(newline + "]")
    elif kind is TreePath:
        # a slope's text is "-", digits and "/", so it needs no escaping
        texts = written.setdefault(id(value), {})
        text = texts.get(newline)
        if text is None:
            if texts:  # each line break of a written text is followed by its indent
                first, text = next(iter(texts.items()))
                text = text.replace(first, newline)
            else:
                inner = newline + "  "
                body = value.text('",' + inner + '"')
                text = f'[{inner}"{body}"{newline}]'
            texts[newline] = text
        parts.append(text)
    else:
        raise TypeError(f"{kind.__name__} is not in the report schema")


CENSUS_COLUMNS = ["matrix", "kind", "det", "trace", "geometry", "h2_order", "norms", "mog", "meg"]


def census_row(kind: str, A: GL2Matrix) -> list:
    """The CSV row, in CENSUS_COLUMNS order.  It builds no realizers."""
    matrix = A.to_text()
    s = KINDS[kind].summary(A)
    norms = "|".join(map(str, s.norms))
    geometry = s.geometry or ""
    trace = int_text(s.trace, "trace")
    return [matrix, s.kind, s.det, trace, geometry, s.h2.order, norms, fmt_extnat(s.mog), s.meg]


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
            sys.stdout.write(to_canonical_json(document(args.command, A, args.certificate_cap)))
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
