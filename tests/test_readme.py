"""The README's "Library quick start" block runs and prints what it says."""

import ast
import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start_source() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_quick_start_runs_as_documented():
    tree = ast.parse(_quick_start_source())
    namespace: dict = {}
    values = []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for stmt in tree.body:
            if isinstance(stmt, ast.Expr):
                code = compile(ast.Expression(stmt.value), str(README), "eval")
                values.append(eval(code, namespace))
            else:
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    assert out.getvalue().splitlines() == ["(2, 0) 1", "(1, 1) 2", "(0, 2) 1", "(0, 0) 1"]
    # The block's last expression is the oracle comparison, documented True.
    assert values[-1] is True
