"""The README's Library example runs and returns what its comments state."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_states_its_results():
    # every expression statement must carry its value as a Python literal,
    # in a comment on its last line or alone on the next line; comments on
    # other statements only describe them
    source = library_block()
    lines = source.splitlines()
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        line = stmt.end_lineno
        if line not in comments and line < len(lines) and lines[line].lstrip().startswith("#"):
            line += 1  # the value is stated on a line of its own
        assert line in comments, f"README line {stmt.lineno}: no stated value"
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert value == ast.literal_eval(comments[line]), ast.get_source_segment(source, stmt)
        checked.append(comments[line])
    assert "(5, 4)" in checked  # mog and meg of 1,0;6,1
    assert len(checked) == 9
