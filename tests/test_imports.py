"""Every module of the package uses each name it imports, and loads each
module-level private name (``_x`` function, class or constant) it defines.

``__init__.py`` is exempt: its imports are the package's re-exports, and
each of them is loaded somewhere in the package or named in the README.
The runtime needs nothing outside the standard library: every absolute
import names a stdlib module, and the project declares no dependencies.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "markedgroups"
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


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def unused_privates(source: str) -> list[str]:
    """Module-level private names that no other top-level statement loads
    (a recursive helper calling itself does not count as used)."""
    tree = ast.parse(source)
    defined: dict[str, ast.stmt] = {}
    for node in tree.body:
        for name in defined_names(node):
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


def unused_reexports(init_source: str, sources: list[str], readme: str) -> list[str]:
    """The names ``init_source`` re-exports that no top-level statement of
    ``sources`` loads, other than the name's own definition, and that the
    README does not name."""
    exported = [
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    bodies = [ast.parse(source).body for source in sources]
    return [
        name
        for name in exported
        if not re.search(rf"\b{name}\b", readme)
        and not any(
            isinstance(n, ast.Name) and n.id == name and isinstance(n.ctx, ast.Load)
            for body in bodies
            for stmt in body
            if name not in defined_names(stmt)
            for n in ast.walk(stmt)
        )
    ]


def test_unused_reexports_detected():
    init = "from .m import used, documented, orphan, loop\n"
    source = (
        "def used():\n    pass\n"
        "def documented():\n    pass\n"
        "def orphan():\n    pass\n"
        "def loop(n):\n    return loop(n - 1)\n"
        "def public():\n    return used()\n"
    )
    readme = "Call `documented()`; orphans are not named.\n"
    assert unused_reexports(init, [source], readme) == ["orphan", "loop"]


def test_every_reexport_is_used_or_documented():
    sources = [path.read_text() for path in MODULES]
    readme = (ROOT / "README.md").read_text()
    init = (PACKAGE / "__init__.py").read_text()
    assert unused_reexports(init, sources, readme) == []


def absolute_imports(source: str) -> set[str]:
    """The top-level modules that absolute imports in source name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_absolute_imports_detected():
    source = "import os.path\nfrom . import words\nfrom json import dumps\n"
    assert absolute_imports(source) == {"os", "json"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    assert absolute_imports(path.read_text()) - sys.stdlib_module_names == set()


def test_no_runtime_dependencies():
    # a text check: tomllib is not in the standard library before 3.11
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.findall(r"^dependencies\s*=.*$", pyproject, re.M)
    assert declared == ["dependencies = []"]
