"""Every module-level function of hermult is used by the package itself.

A `def` at module level must be named somewhere in `src/hermult` outside
its own body (a call, an attribute read, an import or a table entry), or be
exported in `hermult.__all__`.  A helper that only tests read fails the
scan: tests should reach the package through what it uses or exports."""

import ast
from pathlib import Path

import hermult

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermult"


def _names(node: ast.AST) -> set[str]:
    """Every name node reads, writes, imports or takes as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.asname or sub.name)
            found.add(sub.name)
    return found


def unreferenced_defs(paths, exported) -> list[str]:
    """Each module-level def of paths that no module names outside its own
    body and that exported lacks, as `file:line name`."""
    defs, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((path.name, stmt.lineno, stmt.name))
                used |= _names(stmt) - {stmt.name}
            else:
                used |= _names(stmt)
    return [
        f"{file}:{line} {name}"
        for file, line, name in defs
        if name not in used and name not in exported
    ]


def test_every_module_level_def_is_used_or_exported():
    paths = sorted(PACKAGE.glob("*.py"))
    assert unreferenced_defs(paths, set(hermult.__all__)) == []


def test_scan_sees_an_unused_helper(tmp_path):
    source = (
        "import functools\n"
        "def _used():\n    return 1\n"
        "def _unused(n):\n    return _unused(n - 1) if n else _used()\n"
        "@functools.lru_cache\n"
        "def public():\n    return 0\n"
        "TABLE = {'x': _table_only}\n"
        "def _table_only():\n    pass\n"
    )
    path = tmp_path / "probe.py"
    path.write_text(source, encoding="utf-8")
    assert unreferenced_defs([path], set()) == ["probe.py:4 _unused", "probe.py:7 public"]
    assert unreferenced_defs([path], {"public"}) == ["probe.py:4 _unused"]
