"""Every module-level import in the package is used: the check a linter would make, on the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "phenokg"
# ``__init__.py`` imports only to re-export
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name or a chain of Attributes on a Name; else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def unused_imports(source: str) -> list[str]:
    """The module-level imports of ``source`` that nothing in it refers to, as ``"line N: name"``.

    ``import a.b`` counts as used only where ``a.b`` (or ``a.b.x``) appears, so one of several
    ``import a.x`` lines cannot hide behind another; ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {name for node in ast.walk(tree) if (name := _dotted(node))}

    def is_used(name: str) -> bool:
        return any(u == name or u.startswith(name + ".") for u in used)

    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda i: i[1]) if not is_used(name)]


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import threading\n"
        "import urllib.parse\n"
        "import urllib.request\n"
        "from .llm import request_hash, make_backend as build\n"
        "build(urllib.request.Request)\n"
    )
    assert unused_imports(source) == ["line 2: threading", "line 3: urllib.parse", "line 5: request_hash"]
