"""Every JSON input is parsed by datastore.json_object, and its values are
typed by datastore.json_value, so a config file, a JSON-lines record and a
checkpoint header refuse the same bad values."""

import ast
import json
import re
import struct
from pathlib import Path

import pytest

import scrc
from scrc import datastore, synth
from scrc.cli import _load_config_file
from scrc.datastore import (_field, _iter_jsonl, load_annotations, load_checkpoint,
                            load_proposals, save_checkpoint)
from scrc.errors import ConfigError, FormatError
from scrc.model import ScrcConfig, ScrcParams
from scrc.nncore import make_rng
from scrc.textproc import build_vocab

PACKAGE = Path(scrc.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py"))


def json_parses(tree: ast.AST) -> int:
    """The uses of json.load and json.loads in tree, by attribute or by a
    `from json import`."""
    count = 0
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            count += 1
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            count += sum(a.name in ("load", "loads") for a in node.names)
    return count


def test_finds_a_json_parse():
    source = ("import json\nfrom json import loads\njson.load(open('x'))\n"
              "json.dumps({})\nloads('{}')\n")
    assert json_parses(ast.parse(source)) == 2


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_json_object_parses_json(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name != "datastore.py":
        assert json_parses(tree) == 0
        return
    assert json_parses(tree) == 1
    (owner,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "json_object"]
    assert json_parses(owner) == 1


@pytest.mark.parametrize("refusal", ["unknown config key", "non-empty list of strings"])
def test_refusal_written_in_one_place(refusal):
    assert sum(p.read_text(encoding="utf-8").count(refusal) for p in MODULES) == 1


def test_config_file_refuses_an_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"steps": 3, "bogus": 1}))
    with pytest.raises(ConfigError) as err:
        _load_config_file(path)
    assert str(err.value) == f"{path}: unknown config key 'bogus'"


# a JSON value, the kind of key it is wrong for, and how it is refused
BAD_VALUES = [pytest.param(True, int, "must be an integer, got bool", id="true-for-int"),
              pytest.param(4.0, int, "must be an integer, got float", id="float-for-int"),
              pytest.param(1, bool, "must be a boolean, got int", id="int-for-bool")]
TOO_BIG = pytest.param(10 ** 400, float, "is beyond float64's range", id="400-digits-for-float")
CONFIG_KEYS = {int: "steps", bool: "mask_spatial", float: "lr"}
HEADER_KEYS = {int: "embed_dim", bool: "mask_spatial"}  # the header has no float keys


@pytest.mark.parametrize("value, kind, refusal", BAD_VALUES + [TOO_BIG])
def test_config_file_refuses(tmp_path, value, kind, refusal):
    key = CONFIG_KEYS[kind]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({key: value}))
    with pytest.raises(ConfigError, match=re.escape(f"{path}: config key {key!r} {refusal}")):
        _load_config_file(path)


@pytest.mark.parametrize("value, kind, refusal", BAD_VALUES + [TOO_BIG])
def test_json_lines_record_refuses(tmp_path, value, kind, refusal):
    path = tmp_path / "r.jsonl"
    path.write_text(json.dumps({"image_id": "img0", "v": value}) + "\n")
    ((lineno, obj),) = _iter_jsonl(path)
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 1: field 'v' {refusal}")):
        _field(obj, "v", kind, path, lineno)


@pytest.mark.parametrize("value, kind, refusal", BAD_VALUES)
def test_checkpoint_header_refuses(tmp_path, value, kind, refusal):
    key = HEADER_KEYS[kind]
    vocab = build_vocab(["red green left right"])
    config = ScrcConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5, feat_dim=3)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ScrcParams.init(config, make_rng(0)), config, vocab, path)
    data = path.read_bytes()
    (hlen,) = struct.unpack("<I", data[12:16])
    header = json.loads(data[16:16 + hlen])
    header["config"][key] = value
    hb = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:12] + struct.pack("<I", len(hb)) + hb + data[16 + hlen:])
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: checkpoint: config key {key!r} {refusal}")):
        load_checkpoint(path)


@pytest.mark.parametrize("loader, name", [(load_annotations, "annotations.jsonl"),
                                          (load_proposals, "proposals.jsonl")])
def test_loader_builds_records_only_in_its_column_path(tmp_path, monkeypatch, loader, name):
    """A refused column check sends a loader to its record-by-record pass,
    which only names a refusal: where every record passes there, the column
    refusal is raised, naming the file, and no record is built."""
    synth.generate_dataset(tmp_path, seed=0, n_images=2)

    def refuse(objs, field, *kinds):
        raise FormatError(f"field {field!r}")

    monkeypatch.setattr(datastore, "_column", refuse)
    with pytest.raises(FormatError, match=f"^{re.escape(str(tmp_path / name))}: field "):
        loader(tmp_path / name)
