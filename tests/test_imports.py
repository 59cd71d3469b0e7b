"""Every name that a module of the package imports is used in that module,
and every function and class that a module defines is named by the package,
the acceptance tests, the benchmark or the project file."""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import scrc

MODULES = sorted(p for p in Path(scrc.__file__).parent.glob("*.py") if p.name != "__init__.py")
ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """The names that source imports but never reads; `from __future__`
    imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as np.linalg.norm starts at the Name np
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from .errors import InputError, ShapeError\nnp.zeros(1)\nraise InputError()\n")
    assert unused_imports(source) == ["ShapeError", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def statement_names(tree) -> list[tuple[ast.stmt, set[str]]]:
    """Each top-level statement with the names its code reads or imports."""
    out = []
    for top in tree.body:
        names = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        out.append((top, names))
    return out


def unnamed_definitions(sources: list[str], outside: str) -> list[str]:
    """The top-level functions and classes of the sources that no code names
    outside their own definition, and no word of outside (the text of the
    acceptance tests, the benchmark and the project file) names either."""
    statements = [pair for source in sources for pair in statement_names(ast.parse(source))]
    total = Counter(name for _, names in statements for name in names)
    words = set(re.findall(r"\w+", outside))
    return sorted(top.name for top, names in statements
                  if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and top.name not in words
                  and total[top.name] == (top.name in names))


def test_finds_an_unnamed_definition():
    sources = ["def used():\n    return 1\n\n\ndef helper():\n    return helper()\n",
               "from .a import used\n\n\nclass Orphan:\n    pass\n\n\ndef tested():\n    pass\n"]
    assert unnamed_definitions(sources, "tested") == ["Orphan", "helper"]


def test_every_definition_is_named():
    """A helper left without callers, as a refactor can leave one, fails here,
    and so does one that only unit tests call: those belong in tests/."""
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "bench").glob("*.py")),
               ROOT / "pyproject.toml"]
    sources = [p.read_text(encoding="utf-8") for p in MODULES + [Path(scrc.__file__)]]
    assert unnamed_definitions(sources, " ".join(p.read_text(encoding="utf-8")
                                                 for p in outside)) == []
