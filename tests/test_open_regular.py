"""Every open() that reads a file in the package passes
opener=open_regular, so no reader waits on a FIFO or reads a directory or
device: they are refused with `PATH: not a regular file`."""

import ast
from pathlib import Path

import pytest

import scrc

MODULES = sorted(Path(scrc.__file__).parent.glob("*.py"))


def plain_readers(source: str) -> list[int]:
    """The lines of the open() calls in source that read a file without
    opener=open_regular. A mode that is not a string constant counts as
    reading."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        keywords = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else keywords.get("mode", ast.Constant("r"))
        writes = (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                  and "+" not in mode.value and any(c in mode.value for c in "wax"))
        opener = keywords.get("opener")
        name = getattr(opener, "attr", getattr(opener, "id", None))
        if not writes and name != "open_regular":
            lines.append(node.lineno)
    return lines


def test_finds_a_plain_reader():
    source = ('open(a, "w")\nopen(b, "rb", opener=open_regular)\nopen(c, "rb")\n'
              'open(d)\nopen(e, mode="r+", opener=datastore.open_regular)\n'
              'open(f, "a+")\nopen(g, mode, opener=os.open)\n')
    assert plain_readers(source) == [3, 4, 6, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_reader_opens_through_open_regular(path):
    assert plain_readers(path.read_text(encoding="utf-8")) == []
