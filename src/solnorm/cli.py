"""Command-line front end.

Subcommands: bw, dist, geodesic, act, bundle, semibundle, census,
export-graph, verify.  Infinity renders as the literal string "inf" in both
text and JSON.  Exit codes: 0 success (help included), 1 domain error
(non-coprime slope, determinant not +-1, ...), 2 parse or usage error, 3
verification failure, 4 census input or output file error (missing,
unwritable, not UTF-8).  Run as a command (entry), solnorm is ended by
SIGPIPE when its stdout is closed.

A report on one matrix is one record, the matrix text and the kind's
Summary (_record).  Three writers of fixed shape write it out: render and
to_canonical_json, with the norm table, and census_row, without one, as
one f-string per CSV row.  Every certificate in a norm table is checked;
_elided says which to print.  `census` reads each input line with one
compiled pattern (_CENSUS_LINE) and hands the lines it refuses (blanks,
comments and errors) to parse_census_line; a census row's parse or domain
error names its line.
`verify` runs its independent checks on every CPU in its affinity mask,
handing out the longest first (oracle.run_checks), and prints the same
bytes as on one CPU.

Every command runs in a fresh process, so the imports are kept to what
reports need: `verify` imports the oracle on demand and `export-graph` the
bounded graph; no command imports csv or argparse, and JSON strings are
quoted by the C function that json.dumps uses, taken from _json without
loading the json package.  COMMANDS holds the command-line grammar once:
_read reads argv by it, and _usage and _help write the usage line and the
help from it, in a layout that does not depend on the terminal.
"""

from __future__ import annotations

import os
import re
import sys
from _json import encode_basestring_ascii as _quote
from types import SimpleNamespace

from . import bundle, semibundle
from .arith import INF, ExtNat, bredon_wood, fmt_extnat
from .curve_complex import (
    GL2Matrix,
    PARITY_CLASSES,
    TreePath,
    _INTEGER,
    distance,
    geodesic_path,
    mat_act,
    matrix_of_entries,
    parse_int,
    parse_matrix,
    parse_slope,
)
from .errors import DomainError, ParseError, int_text
from .reports import KIND_EMPTY, KIND_PI, KIND_SUM, NormReport, Summary, SurfaceDescription

# The module of each kind, with its summary and norm_table.
KINDS = {"bundle": bundle, "semibundle": semibundle}

DEFAULT_CERTIFICATE_CAP = 10000


def _record(kind: str, A: GL2Matrix) -> tuple[str, Summary]:
    """The record every report of A is written from.  The trace is checked
    here because every writer prints the int itself."""
    matrix = A.to_text()  # before the F[b/a] label, so an over-long entry is named
    s = KINDS[kind].summary(A)
    int_text(s.trace, "trace")
    return matrix, s


def _elided(path: TreePath, cap: int) -> bool:
    """Whether a report leaves out certificate path: one of more than cap
    edges, so every one at a cap of 0 or below."""
    return path.edges > cap


def _norm_lines(table: list[NormReport], cap: int) -> list[str]:
    """The norm table's rows, each built in one f-string.  A row shows at
    most one certificate, its realizer's or a piece's; texts maps id(path)
    to its text or "(elided)", so each is written once per report."""
    lines, texts = [], {}
    for entry in table:
        coords = ", ".join(f"{name}={value}" for name, value in entry.coords.items())
        certificate = ""
        for surface in (entry.realizer, *entry.realizer.pieces):
            path = surface.certificate
            if path is not None:
                if id(path) not in texts:
                    texts[id(path)] = "(elided)" if _elided(path, cap) else path.text(" -> ")
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
    rows = _norm_lines(KINDS[kind].norm_table(A, s), certificate_cap)
    # one join, whose empty last item ends the text with its newline
    lines += ["norm table:", *rows, f"mog: {fmt_extnat(s.mog)}", f"meg: {s.meg}", ""]
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
    certificate as the list of its "p/q" texts or "elided".  The schema
    fixes every member, so each is written in its place into one list."""
    matrix, s = _record(kind, A)
    table = KINDS[kind].norm_table(A, s)
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
        _write_realizer(entry.realizer, "\n      ", parts, written, certificate_cap)
        parts.append("\n    }")
    parts += ('\n  ],\n  "trace": ', repr(s.trace))
    if bundle_:
        lengths = ",".join(f'\n    "{cls.label}": {_extnat_json(s.lengths[cls])}' for cls in _CLASSES_BY_LABEL)
        parts += (',\n  "translation_lengths": {', lengths, "\n  }")
    parts.append("\n}\n")
    return "".join(parts)


def _write_realizer(surface: SurfaceDescription, newline: str, parts: list[str],
                    written: dict[int, dict[str, str]], cap: int) -> None:
    """Append the JSON object of a realizing surface to parts; newline is
    the line break and indent of the line it starts on.  A sum's pieces,
    never sums themselves, are written one level deeper by this function."""
    inner = newline + "  "
    parts.append("{")
    path = surface.certificate
    if path is not None:
        block = '"elided"' if _elided(path, cap) else _certificate_block(path, inner, written)
        parts += (inner, '"certificate": ', block, ",")
    if surface.genus is not None:
        parts += (inner, '"genus": ', repr(surface.genus), ",")
    parts += (inner, '"kind": ', _quote(surface.kind))
    if surface.pieces:
        deeper = inner + "  "
        separator = f',{inner}"pieces": [{deeper}'
        for piece in surface.pieces:
            parts.append(separator)
            _write_realizer(piece, deeper, parts, written, cap)
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


# A census line in one pattern: a kind word and a matrix token, which
# holds no whitespace (a matrix cell padded with it makes a third token,
# which parse_census_line refuses).  \s matches exactly the characters
# str.split splits on and str.strip removes.  run_census compiles it (re
# caches the result): compiling it at import would add about 0.4 ms to
# the start-up of every command.
_ENTRY = f"({_INTEGER.pattern})"
_CENSUS_LINE = rf"\s*(bundle|semibundle)\s+{_ENTRY},{_ENTRY};{_ENTRY},{_ENTRY}\s*"

CENSUS_HEADER = "matrix,kind,det,trace,geometry,h2_order,norms,mog,meg\n"


def census_row(kind: str, A: GL2Matrix) -> str:
    """The CSV row's text, in CENSUS_HEADER's column order and ending in
    its newline, written from the record alone: it builds no norm table
    and no realizer.  The matrix field holds commas and never a quote, so
    it is quoted; every other field is an int, inf, a fixed word or empty,
    so none is.  These are the bytes csv.writer writes for the fields."""
    matrix, s = _record(kind, A)
    norms = "|".join(map(str, s.norms))
    return (f'"{matrix}",{s.kind},{s.det},{s.trace},{s.geometry or ""},{s.h2.order},{norms},'
            f"{fmt_extnat(s.mog)},{s.meg}\n")


def parse_census_line(line: str) -> tuple[str, GL2Matrix] | None:
    """A census input line is "bundle a,c;b,d" or "semibundle a,c;b,d";
    blank lines and # comments are skipped.  run_census reads each line
    by _CENSUS_LINE and hands this function only the lines that pattern
    refuses: the two accept the same lines, and this one names what is
    wrong with the others."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2 or parts[0] not in KINDS:
        raise ParseError(f"expected 'bundle a,c;b,d' or 'semibundle a,c;b,d', got {stripped!r}")
    return parts[0], parse_matrix(parts[1])


def run_census(in_path: str, out_path: str) -> int:
    """Write one row per input line as it is computed, to a temporary file
    beside out_path that replaces it only once every line has parsed; on
    any failure the temporary file is removed and out_path is untouched.
    A parse or domain error of a row is prefixed with "line N: "."""
    fullmatch = re.compile(_CENSUS_LINE).fullmatch
    count = 0
    temp_path = f"{out_path}.{os.getpid()}.tmp"
    with open(in_path, encoding="utf-8") as source:
        sink = open(temp_path, "x", encoding="utf-8", newline="")
        try:
            with sink:
                sink.write(CENSUS_HEADER)
                try:
                    for lineno, line in enumerate(source, start=1):
                        match = fullmatch(line)
                        if match is None:
                            parsed = parse_census_line(line)
                            if parsed is None:
                                continue
                            kind, A = parsed
                        else:
                            kind, A = match[1], matrix_of_entries(*match.group(2, 3, 4, 5))
                        sink.write(census_row(kind, A))
                        count += 1
                except (ParseError, DomainError) as err:
                    err.args = (f"line {lineno}: {err}",)
                    raise
            os.replace(temp_path, out_path)
        except BaseException:
            os.remove(temp_path)
            raise
    return count


class UsageError(Exception):
    """A command line that COMMANDS does not read: args are the message and
    the command whose usage line goes above it, None for solnorm's own."""


def _integer(text: str) -> int:
    """The type of integer arguments: the ASCII rule of slopes and matrices."""
    try:
        return parse_int(text, f"expected an integer, got {text!r}")
    except ParseError as err:
        raise UsageError(str(err)) from None


def _count(text: str) -> int:
    """The type of caps, radii and bounds: a non-negative integer."""
    value = _integer(text)
    if value < 0:
        raise UsageError(f"expected an integer >= 0, got {text!r}")
    return value


# The command-line grammar, written once: each command's help and its
# arguments in order, each as its name (an option's starts with "--") and
# keywords: required, flag, type (of the text; it raises UsageError),
# choices, default, dest (else the name without dashes, "-" read as "_")
# and help.  _read reads argv by it, and _usage and _help write from it.
_MATRIX = ("--matrix", {"required": True, "help": 'row-major "a,c;b,d"'})
COMMANDS = {
    "bw": ("Bredon-Wood invariant N(p, q)", [("p", {"type": _integer}), ("q", {"type": _integer})]),
    "dist": ("distance between two slopes in the curve complex", [("slope1", {}), ("slope2", {})]),
    "geodesic": ("the unique tree path between two same-parity slopes", [("slope1", {}), ("slope2", {})]),
    "act": ("image of a slope under a matrix", [_MATRIX, ("slope", {})]),
    **{
        kind: (f"full norm report for a torus {kind}", [
            _MATRIX,
            ("--json", {"flag": True}),
            ("--certificate-cap", {"type": _count, "default": DEFAULT_CERTIFICATE_CAP,
                                   "help": f"elide certificates longer than this (default {DEFAULT_CERTIFICATE_CAP})"}),
        ])
        for kind in KINDS
    },
    "census": ("CSV summary for a file of matrices", [("--in", {"dest": "in_path", "required": True}),
                                                       ("--out", {"dest": "out_path", "required": True})]),
    "export-graph": ("DOT text for a ball in the curve complex", [
        ("--center", {"required": True}),
        ("--radius", {"type": _count, "required": True}),
        ("--bound", {"type": _count, "required": True}),
    ]),
    "verify": ("run the brute-force verification suites",
               [("--level", {"choices": ("quick", "full"), "default": "quick"})]),
}
_HELP = ("-h", "--help")
_DESCRIPTION = "Z2-Thurston norms and non-orientable genus bounds for torus bundles and\nsemi-bundles"


def _dest(name: str, keywords: dict) -> str:
    """The namespace attribute an argument is read into."""
    return keywords.get("dest") or name.lstrip("-").replace("-", "_")


def _invocation(name: str, keywords: dict) -> str:
    """An argument as the usage line and the help write it: a positional or
    a flag by its name, an option by its name and its value's name."""
    if not name.startswith("-") or keywords.get("flag"):
        return name
    choices = keywords.get("choices")
    return f"{name} {{{','.join(choices)}}}" if choices else f"{name} {_dest(name, keywords).upper()}"


def _usage(command: str | None) -> str:
    """The usage line of command, or of solnorm for None."""
    if command is None:
        return f"usage: solnorm [-h] {{{','.join(COMMANDS)}}} ..."
    items = (_invocation(name, kw) if kw.get("required") or not name.startswith("-") else f"[{_invocation(name, kw)}]"
             for name, kw in COMMANDS[command][1])
    return " ".join(["usage: solnorm", command, "[-h]", *items])


def _help(command: str | None) -> str:
    """The -h text of command, or of solnorm for None: the usage line, the
    description and sections of rows, each an invocation with its help at
    column 24 (a line lower past 20 characters), whatever the terminal."""
    if command is None:
        description, sections = _DESCRIPTION, {"commands": [(name, text) for name, (text, _) in COMMANDS.items()]}
    else:
        description, arguments = COMMANDS[command]
        sections = {"positional arguments": [], "options": []}
        for name, keywords in arguments:
            sections["options" if name.startswith("-") else "positional arguments"].append(
                (_invocation(name, keywords), keywords.get("help", "")))
    sections.setdefault("options", []).insert(0, ("-h, --help", "show this help message and exit"))
    lines = [_usage(command), "", description]
    for title, rows in sections.items():
        if rows:
            lines += ["", f"{title}:", *(f"  {name:<22}{text}" if len(name) <= 20 else f"  {name}\n{'':24}{text}"
                                         for name, text in rows)]
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _refuse_choice(what: str, text: str, choices, command: str | None) -> None:
    """UsageError unless text is one of choices."""
    if text not in choices:
        raise UsageError(f"argument {what}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, choices))})", command)


def _read(argv: list[str]) -> SimpleNamespace | str:
    """The namespace argv asks for, read by COMMANDS, or the help text -h
    asks for; UsageError for any other argv.  argv[0] is a command or -h.
    After it, up to a "--" that ends the options, -h/--help asks for the
    command's help, a token starting with "--" is an option written whole
    (--name, --name=value or --name value, the value being the next token
    whatever it starts with; a flag takes none), and any other token is a
    positional.  Each option comes at most once, every required argument
    and no other is given, and each value converts by its type and is one
    of its choices; an empty value is the command's to refuse."""
    if not argv:
        raise UsageError("the following arguments are required: command", None)
    command = argv[0]
    if command in _HELP:
        return _help(None)
    _refuse_choice("command", command, COMMANDS, None)
    arguments = COMMANDS[command][1]
    options = {name: keywords for name, keywords in arguments if name.startswith("-")}
    texts, given = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return _help(command)
        if token == "--":
            given += tokens  # every later token, which ends the loop
        elif not token.startswith("--"):
            given.append(token)
        else:
            name, equals, text = token.partition("=")
            if name not in options:
                raise UsageError(f"unrecognized arguments: {token}", command)
            if name in texts:
                raise UsageError(f"argument {name}: given twice", command)
            if options[name].get("flag"):
                if equals:
                    raise UsageError(f"argument {name}: ignored explicit argument {text!r}", command)
            elif not equals:
                text = next(tokens, None)
                if text is None:
                    raise UsageError(f"argument {name}: expected one argument", command)
            texts[name] = text
    positionals = [name for name, _ in arguments if name not in options]
    if given[len(positionals):]:
        raise UsageError(f"unrecognized arguments: {' '.join(given[len(positionals):])}", command)
    texts.update(zip(positionals, given))
    missing = [name for name, kw in arguments if name not in texts and (kw.get("required") or name in positionals)]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}", command)
    values = {"command": command}
    for name, keywords in arguments:
        text = texts.get(name)
        if keywords.get("flag"):
            value = text is not None
        elif text is None:
            value = keywords.get("default")
        else:
            try:
                value = keywords.get("type", str)(text)
            except UsageError as err:
                raise UsageError(f"argument {name}: {err.args[0]}", command) from None
            if "choices" in keywords:
                _refuse_choice(name, text, keywords["choices"], command)
        values[_dest(name, keywords)] = value
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; argv defaults to
    sys.argv[1:].  _read is the one reader of argv: help goes to stdout
    with exit 0, and a usage error writes the usage line, then "solnorm[
    CMD]: error: MESSAGE", to stderr with exit 2."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv)
    except UsageError as err:
        message, command = err.args
        prog = "solnorm" if command is None else f"solnorm {command}"
        print(_usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
        return 2
    if isinstance(args, str):
        sys.stdout.write(args)
        return 0
    try:
        return _dispatch(args)
    except ParseError as err:
        print(f"solnorm: parse error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"solnorm: {err}", file=sys.stderr)
        return 1


def _dispatch(args: SimpleNamespace) -> int:
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
        write = to_canonical_json if args.json else render
        sys.stdout.write(write(args.command, parse_matrix(args.matrix), args.certificate_cap))
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
        from .graph import export_dot

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
    """The console script.  A closed stdout ends the process by SIGPIPE, as
    it ends other filters, where the platform has the signal."""
    import signal

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
