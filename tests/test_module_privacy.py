"""No hermult module reads another module's private name.

A name with a leading underscore belongs to its module: another module
that needs it should get a public name instead.  The scan reads every
module of the package and fails on `module._name`, where `module` is a
hermult module imported by name, and on `from .x import _y`."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hermult"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_reads(path: Path) -> list[str]:
    """Each read of another hermult module's private name in one module,
    as `file:line name`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = {p.stem for p in PACKAGE.glob("*.py")}
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "hermult"
            if not inside:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} {alias.name}")
                elif alias.name in siblings:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _private(node.attr)
        ):
            found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_name():
    reads = [r for path in sorted(PACKAGE.glob("*.py")) for r in private_reads(path)]
    assert reads == []


def test_scan_sees_both_forms_of_a_private_read(tmp_path):
    source = "from . import coeffs\nfrom .hermite import _uni_values\nx = coeffs._vec_plan\n"
    path = tmp_path / "probe.py"
    path.write_text(source, encoding="utf-8")
    assert private_reads(path) == ["probe.py:2 _uni_values", "probe.py:3 coeffs._vec_plan"]
