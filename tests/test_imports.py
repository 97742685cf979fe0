"""Every module imports on its own, in a fresh interpreter, without warnings,
and uses every name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mars
from mars.model import SIZES

PACKAGE = Path(mars.__file__).resolve().parent
MODULES = sorted(
    "mars" if p.stem == "__init__" else f"mars.{p.stem}" for p in PACKAGE.glob("*.py")
)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # an import cycle, or a module that leans on another's import side
    # effects, fails here rather than only under some import order
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, skipping ``__future__``
    imports and lines marked ``# noqa: F401`` (kept for other modules)."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_import_is_used():
    assert unused_imports("import numpy as np\nfrom .x import a, b\nb()\n") == ["np", "a"]
    unused = {p.name: unused_imports(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in unused.items() if names} == {}


REPO = PACKAGE.parents[1]


def top_level_definitions(source: str) -> list[str]:
    """The functions, classes and assigned names at the top level of
    ``source``, dunders left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def read_names(source: str) -> set[str]:
    """Names ``source`` reads and attributes it looks up; imports, comments
    and strings do not count."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


# the benchmark traces these through mars.search, which imports them for it
# alone; ROADMAP item 7 moves them out of src/
TRACED_ONLY = {"kth_set_bit", "update_confusion"}


def test_every_definition_is_referenced():
    assert top_level_definitions("A = 1\nB: int = 2\n__all__ = []\ndef f(): pass\nclass C: pass\n"
                                 ) == ["A", "B", "f", "C"]
    sample = "from m import a\nimport p.q\nb.c\nd = 1  # e\nf()\n'g'\n"
    assert read_names(sample) == {"b", "c", "f"}
    sources = [p.read_text() for p in sorted((REPO / "src").rglob("*.py"))]
    read = set().union(*map(read_names, sources)) | TRACED_ONLY
    dead = {p.name: [n for n in top_level_definitions(p.read_text()) if n not in read]
            for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in dead.items() if names} == {}


def class_methods(source: str) -> list[str]:
    """The methods and properties of the classes in ``source``, as
    ``Class.name``, dunders left out."""
    return [f"{node.name}.{item.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def test_every_method_is_referenced():
    assert class_methods("class C:\n    def __init__(self): pass\n    @property\n"
                         "    def p(self): pass\n    def m(self): pass\ndef f(): pass\n"
                         ) == ["C.p", "C.m"]
    sources = [p.read_text() for p in sorted((REPO / "src").rglob("*.py"))]
    # RuleSet.sizes() reads the SIZES counts through getattr
    read = set().union(*map(read_names, sources)) | set(SIZES)
    dead = {p.name: [m for m in class_methods(p.read_text()) if m.split(".")[1] not in read]
            for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: methods for name, methods in dead.items() if methods} == {}


MAX_LINE = 100


def test_source_lines_fit_the_width():
    files = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "tests").glob("*.py"))
    long = [f"{p.relative_to(REPO)}:{n}" for p in files
            for n, line in enumerate(p.read_text().splitlines(), start=1) if len(line) > MAX_LINE]
    assert long == []


def test_the_package_holds_no_assert():
    # python -O strips an assert, and the check with it
    found = [f"{p.name}:{node.lineno}" for p in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
