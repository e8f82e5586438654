"""Reach audit: every raise statement in src/ must be executed by tier-1.

Lists each raise statement under src/ with ast, runs the tier-1 suite in
this process under a sys.settrace line tracer that records only the lines
of those files, and prints every raise that no test executed.  A raise
counts as reached when any line it spans ran.  Lines run only in a child
interpreter (the suite's python -O checks) are not seen.

    python tools/reach_audit.py [extra pytest arguments]

Exit status: 0 when every raise is reached, 1 when one is not, and
pytest's own status when the suite itself fails.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def raise_spans(src: Path) -> dict[str, list[tuple[int, int]]]:
    """Each .py file under src, by its resolved path, with the first and
    last line of each of its raise statements in source order."""
    spans = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found = [(node.lineno, node.end_lineno) for node in ast.walk(tree) if isinstance(node, ast.Raise)]
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
    spans = raise_spans(SRC)
    sys.path.insert(0, str(SRC))
    status, ran = run_traced(
        set(spans),
        ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests"), *argv],
    )
    unreached = [
        (path, first)
        for path, found in spans.items()
        for first, last in found
        if ran[path].isdisjoint(range(first, last + 1))
    ]
    for path, line in unreached:
        print(f"unreached raise: {Path(path).relative_to(ROOT)}:{line}")
    total = sum(map(len, spans.values()))
    print(f"reach audit: {total} raises in src/, {total - len(unreached)} reached, {len(unreached)} unreached")
    if status:
        return status
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
