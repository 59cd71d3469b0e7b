"""Every file the package writes goes through datastore._atomic_write, so
an output is whole or absent: no open() with a writing mode appears
outside it. A text output wraps the binary writer in io.TextIOWrapper."""

import ast
from pathlib import Path

import pytest

import scrc

MODULES = sorted(Path(scrc.__file__).parent.glob("*.py"))


def plain_writers(source: str) -> list[int]:
    """The lines of the open() calls in source, outside a function named
    _atomic_write, that may write: a mode with "w", "a", "x" or "+", or a
    mode that is not a string constant."""
    tree = ast.parse(source)
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_atomic_write"
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
        reads = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                 and not any(c in mode.value for c in "wax+"))
        if not reads and id(node) not in inside:
            lines.append(node.lineno)
    return lines


def test_finds_a_plain_writer():
    source = ('open(a, "w")\nopen(b, "rb", opener=open_regular)\nopen(c, mode="r+")\n'
              'open(d)\nopen(e, "ab")\nopen(f, mode)\n'
              'def _atomic_write(path):\n    open(g, "wb")\n'
              'def save(path):\n    open(h, "x")\n')
    assert plain_writers(source) == [1, 3, 5, 6, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_writer_opens_through_atomic_write(path):
    assert plain_writers(path.read_text(encoding="utf-8")) == []
