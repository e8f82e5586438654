"""Reach audit: every raise statement in src/, and every statement that
records a failed verify check, must be executed by tier-1.

Lists, with ast, each raise statement under src/ and each failure
statement (failures.append(...) or failures += ..., the statements by which
a verify check records a failure), runs the tier-1 suite in this process
under a sys.settrace line tracer that records only the lines of those
files, and prints every listed statement that no test executed.  A
statement counts as reached when any line it spans ran.  Lines run only in
a child interpreter (the suite's SIGPIPE and import-budget tests) or a
forked child (verify's workers) are not seen.

    python tools/reach_audit.py [extra pytest arguments]

Exit status: 0 when every listed statement is reached, 1 when one is not,
and pytest's own status when the suite itself fails.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _kind(node: ast.AST) -> str | None:
    """"raise" for a raise statement, "failure" for a failure statement,
    None for any other node."""
    if isinstance(node, ast.Raise):
        return "raise"
    if isinstance(node, ast.AugAssign):
        target = node.target
    elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute):
        target = node.value.func.value if node.value.func.attr == "append" else None
    else:
        return None
    return "failure" if isinstance(target, ast.Name) and target.id == "failures" else None


def audited_spans(src: Path) -> dict[str, list[tuple[int, int, str]]]:
    """Each .py file under src, by its resolved path, with the first and
    last line and the kind of each raise and failure statement, in source
    order."""
    spans = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [(node.lineno, node.end_lineno, kind) for node in ast.walk(tree) if (kind := _kind(node))]
        spans[str(path.resolve())] = sorted(found)
    return spans


def run_traced(files: set[str], pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest.main(pytest_args) under a line tracer: its exit status and
    the lines of files that ran, by file."""
    ran: dict[str, set[int]] = {name: set() for name in files}

    def on_call(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events for code outside files

        def on_line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return on_line

        return on_line

    sys.settrace(on_call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return int(status), ran


def main(argv: list[str]) -> int:
    spans = audited_spans(SRC)
    sys.path.insert(0, str(SRC))
    status, ran = run_traced(
        set(spans),
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests"), *argv],
    )
    unreached = [
        (path, first, kind)
        for path, found in spans.items()
        for first, last, kind in found
        if ran[path].isdisjoint(range(first, last + 1))
    ]
    for path, line, kind in unreached:
        print(f"unreached {kind}: {Path(path).relative_to(ROOT)}:{line}")
    kinds = [kind for found in spans.values() for *_, kind in found]
    print(f"reach audit: {kinds.count('raise')} raises and {kinds.count('failure')} failure statements in src/, "
          f"{len(kinds) - len(unreached)} reached, {len(unreached)} unreached")
    if status:
        return status
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
