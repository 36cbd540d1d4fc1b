"""Every module of the package uses each name it imports, and loads each
module-level private name (``_x`` function, class or constant) it defines.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "markedgroups"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names used only inside string annotations, e.g. "Word" or "Alphabet"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return [
        f"{name} (line {line})" for name, line in imported.items() if name not in used
    ]


def test_unused_imports_detected():
    assert unused_imports("import os\nfrom typing import Optional\nx = 1\n") == [
        "os (line 1)",
        "Optional (line 2)",
    ]
    assert unused_imports("import os.path\nos.sep\n") == []


def unused_privates(source: str) -> list[str]:
    """Module-level private names that no other top-level statement loads
    (a recursive helper calling itself does not count as used)."""
    tree = ast.parse(source)
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node
    return [
        f"{name} (line {node.lineno})"
        for name, node in defined.items()
        if not any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for other in tree.body
            if other is not node
            for n in ast.walk(other)
        )
    ]


def test_unused_privates_detected():
    source = (
        "_LIMIT = 3\n"
        "_ORPHAN = 4\n"
        "def _loop(n):\n    return _loop(n - 1) if n else _LIMIT\n"
        "class _Unused:\n    pass\n"
        "def _used():\n    pass\n"
        "def public():\n    return _used()\n"
        "__version__ = '1'\n"
    )
    assert unused_privates(source) == [
        "_ORPHAN (line 2)",
        "_loop (line 3)",
        "_Unused (line 5)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_loads_every_private_name(path):
    assert unused_privates(path.read_text()) == []
