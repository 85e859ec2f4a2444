"""Source hygiene: every imported name is read.

Each module under ``src/``, ``tests/`` and ``tools/`` is parsed with
``ast``; an imported name that the module never reads and does not list
in ``__all__`` fails the test.  ``perfbench/`` is not scanned.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests", "tools")
                 for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that nothing reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read and name != "*")


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a.b import c as d, e\n"
                     "from __future__ import annotations\n"
                     "__all__ = ['e']\n")
    assert unused_imports(tree) == ["d (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(ast.parse(path.read_text())) == []
