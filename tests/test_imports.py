"""Every module-level import in the package is used, and every module-level function and class is referred
to by the program: the checks a linter would make, on the stdlib ``ast``."""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "phenokg"
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


# ``fixtures`` is the demo and test data module, so its definitions may serve tests alone
UNCHECKED_MODULES = {"fixtures"}
# "module.name": why the name stays though no program code refers to it
UNREFERENCED_ALLOWED: dict[str, str] = {
    "ontology.resolve_label": "ROADMAP item 6 grounds model labels through it",
}


def _referenced(nodes) -> set[str]:
    """Every name, attribute, imported name and whole string constant (a lookup by name) in ``nodes``."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
    return found


def _without_re_exports(body: list[ast.stmt]) -> list[ast.stmt]:
    """A package ``__init__``'s statements less its imports and its ``__all__``: a re-export is no use."""

    def re_exports(node: ast.stmt) -> bool:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return True
        return isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)

    return [node for node in body if not re_exports(node)]


# a fenced code block of a Markdown file: its opening fence, info string, body and closing fence
_FENCED_BLOCK = re.compile(r"^(```|~~~)[^\n]*\n(.*?)^\1", re.MULTILINE | re.DOTALL)


def unreferenced_definitions(modules: dict[str, str], others: list[str], readme: str) -> list[str]:
    """The module-level functions and classes of ``modules`` (name -> source) that nothing refers to.

    A definition is referred to where its name appears in another module, in its own module outside its own
    definition, in one of the ``others`` sources, or as a word of a fenced code block of the Markdown
    ``readme`` (code a reader runs; a name in its prose or in an inline code span is not a use).
    ``__init__``'s re-exports (its imports and its ``__all__`` strings) are not references. Each unreferenced
    one comes as ``"module.name"``, in module and then source order.
    """
    trees = {name: ast.parse(source).body for name, source in modules.items()}
    if "__init__" in trees:
        trees["__init__"] = _without_re_exports(trees["__init__"])
    code = "\n".join(block.group(2) for block in _FENCED_BLOCK.finditer(readme))
    outside = set(re.findall(r"\w+", code)).union(*(_referenced(ast.parse(source).body) for source in others))
    dead = []
    for module, body in trees.items():
        if module in UNCHECKED_MODULES:
            continue
        elsewhere = outside.union(*(_referenced(other) for name, other in trees.items() if name != module))
        for definition in body:
            if not isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = _referenced(node for node in body if node is not definition)
            if definition.name not in elsewhere | own:
                dead.append(f"{module}.{definition.name}")
    return dead


def test_every_module_level_definition_is_referred_to_by_the_program():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    perfbench = [path.read_text(encoding="utf-8") for path in sorted((REPO / "perfbench").glob("*.py"))]
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert unreferenced_definitions(modules, perfbench, readme) == sorted(UNREFERENCED_ALLOWED)


def test_the_check_finds_unreferenced_definitions():
    modules = {
        "__init__": "from .a import Dead, used\n__all__ = ['Dead', 'used']\n__version__ = '1'\n",
        "a": (
            "def used(): pass\ndef only_self(): only_self()\nclass Dead: pass\nclass Documented: pass\n"
            "def in_prose(): pass\ndef in_a_span(): pass\n"
        ),
        "b": "from .a import used\ndef _helper(): pass\ndef looked_up(): pass\nused(_helper)\n",
    }
    others = ["getattr(b, 'looked_up')\n"]
    readme = "Call in_prose or `in_a_span` for it:\n\n```python\nfrom phenokg.a import Documented\n```\n"
    assert unreferenced_definitions(modules, others, readme) == ["a.only_self", "a.Dead", "a.in_prose", "a.in_a_span"]
