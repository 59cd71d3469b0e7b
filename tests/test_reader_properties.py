"""Property tests for the readers of bulk and evaluation inputs: a feature
store, proposals, annotations or captions file that has been cut short or has
one byte changed either loads, or raises a ScrcError that names a byte offset
or a line. A checkpoint mutated the same way, or with a length or count field
changed, either loads or raises a ScrcError. A training config file mutated
the same way either loads or raises a ConfigError that names the file. Any
other exception fails. The annotation and proposal loaders check each field
once per column; on every mutation they must also return the records, or
raise the error, of the record-by-record oracles kept here."""

import json
import math
import re
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from scrc import datastore  # noqa: E402
from scrc.cli import _load_config_file  # noqa: E402
from scrc.datastore import (AnnotationRecord, FeatureStore, ProposalSet, _field,  # noqa: E402
                            _box_array, _iter_jsonl, _parse_box, _strings,
                            load_annotations, load_captions, load_checkpoint,
                            load_feature_store, load_proposals, save_checkpoint,
                            save_feature_store)
from scrc.errors import ConfigError, FormatError, InputError, ScrcError  # noqa: E402
from scrc.geometry import ImageSize  # noqa: E402
from scrc.model import ScrcConfig, ScrcParams  # noqa: E402
from scrc.nncore import make_rng  # noqa: E402
from scrc.textproc import build_vocab  # noqa: E402

NAMES_A_PLACE = re.compile(r"\bbyte \d+|\bline \d+")
NAMES_A_LINE = re.compile(r"\bline \d+")
# checkpoint errors name a byte, a tensor or a header field
ANY_MESSAGE = re.compile("")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@pytest.fixture(scope="module")
def store_bytes(scratch):
    store = FeatureStore(3)
    values = make_rng(4).normal(size=(5, 3))
    for key, vec in zip(["", "a", "img1:r07", "ключ-é", "k" * 40], values):
        store.add(key, vec)
    save_feature_store(store, scratch / "store.bin")
    return (scratch / "store.bin").read_bytes()


@pytest.fixture(scope="module")
def proposal_bytes():
    rows = [{"image_id": "img1", "boxes": [[0, 0.5, 5, 5], [2, 2, 8, 9.25]],
             "region_keys": ["a", "ключ"]},
            {"image_id": "img2", "boxes": [[10, 20, 30, 40]], "region_keys": ["img2:r0"]},
            {"image_id": "é", "boxes": [[1.5, 1, 2, 3], [0, 0, 1, 1]],
             "region_keys": ["x", "y"]}]
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")


@pytest.fixture(scope="module")
def annotation_bytes():
    rows = [{"image_id": "img1", "width": 320, "height": 240.5, "box": [0, 0.5, 5, 5],
             "region_key": "img1:a", "descriptions": ["red box", "the ключ on the left"]},
            {"image_id": "img1", "width": 320, "height": 240.5, "box": [2, 2, 320, 9.25],
             "region_key": "img1:b", "descriptions": ["é"]},
            {"image_id": "img2", "width": 64.0, "height": 48, "box": [10, 20, 30, 40],
             "region_key": "img2:r0", "descriptions": ["blue", ""]}]
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")


@pytest.fixture(scope="module")
def caption_bytes():
    rows = [{"image_id": "img1", "captions": ["a red box", "the ключ on the left"]},
            {"image_id": "img2", "captions": ["é"]},
            {"image_id": "img3", "captions": ["blue", ""]}]
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")


@pytest.fixture(scope="module")
def checkpoint_bytes(scratch):
    vocab = build_vocab(["red green left right"])
    config = ScrcConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5, feat_dim=3)
    save_checkpoint(ScrcParams.init(config, make_rng(0)), config, vocab, scratch / "m.ckpt")
    return (scratch / "m.ckpt").read_bytes()


@pytest.fixture(scope="module")
def config_bytes():
    settings = {"embed_dim": 16, "hidden_dim": 16, "feat_dim": 8, "min_count": 1,
                "lr": 0.005, "momentum": 0.9, "clip_norm": 10.0, "steps": 300,
                "batch_size": 16, "seed": 7, "mask_spatial": False, "mask_context": True}
    return json.dumps(settings, indent=1).encode("utf-8")


@pytest.fixture(scope="module")
def checkpoint_fields(checkpoint_bytes):
    """(offset, struct format) of each length and count field of the checkpoint:
    the header length, the tensor count, and each tensor's name length, rank
    and dims."""
    data = checkpoint_bytes
    (hlen,) = struct.unpack_from("<I", data, 12)
    off = 16 + hlen
    (count,) = struct.unpack_from("<I", data, off)
    fields = [(12, "<I"), (off, "<I")]
    off += 4
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", data, off)
        rank = data[off + 2 + nlen]
        dims_off = off + 3 + nlen
        fields += [(off, "<H"), (off + 2 + nlen, "<B")]
        fields += [(dims_off + 4 * k, "<I") for k in range(rank)]
        off = dims_off + 4 * rank + 4 * math.prod(struct.unpack_from(f"<{rank}I", data, dims_off))
    assert off == len(data)
    return fields


def per_record_annotations(path) -> list[AnnotationRecord]:
    """The oracle for load_annotations: every field of every record checked on
    its own, line by line as the file is read."""
    records = []
    for lineno, obj in _iter_jsonl(path):
        image_id = _field(obj, "image_id", str, path, lineno)
        width = _field(obj, "width", float, path, lineno)
        height = _field(obj, "height", float, path, lineno)
        box = _parse_box(_field(obj, "box", list, path, lineno), path, lineno)
        region_key = _field(obj, "region_key", str, path, lineno)
        descriptions = _strings(obj, "descriptions", path, lineno)
        try:
            ImageSize(width, height).check(box)
        except InputError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from None
        records.append(AnnotationRecord(image_id, width, height, box, region_key, descriptions))
    return records


def per_record_proposals(path) -> list[ProposalSet]:
    """The oracle for load_proposals: each record, and each of its boxes,
    checked on its own, line by line as the file is read."""
    sets = []
    first_line: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(path):
        image_id = _field(obj, "image_id", str, path, lineno)
        if image_id in first_line:
            raise FormatError(f"{path}: line {lineno}: duplicate image_id {image_id!r} "
                              f"(first on line {first_line[image_id]})")
        first_line[image_id] = lineno
        raw_boxes = _field(obj, "boxes", list, path, lineno)
        keys = _field(obj, "region_keys", list, path, lineno)
        if len(raw_boxes) != len(keys):
            raise FormatError(
                f"{path}: line {lineno}: boxes ({len(raw_boxes)}) and region_keys "
                f"({len(keys)}) differ in length")
        if not all(isinstance(k, str) for k in keys):
            raise FormatError(f"{path}: line {lineno}: region_keys must be strings")
        coords = np.array([_parse_box(raw, f"{path}: line {lineno}: box {k}").as_list()
                           for k, raw in enumerate(raw_boxes)], dtype=np.float64).reshape(-1, 4)
        keep = datastore.MAX_PROPOSALS
        sets.append(ProposalSet(image_id, coords[:keep], keys[:keep], len(coords)))
    return sets


def outcome(loader, path):
    """What loader makes of path: its records in a form that compares every
    value's type and bits, or its error's type and message."""
    try:
        records = loader(path)
    except ScrcError as e:
        return type(e).__name__, str(e)
    return [repr(r) if isinstance(r, AnnotationRecord) else
            (r.image_id, r.coords.dtype.str, r.coords.shape, r.coords.tobytes(),
             r.region_keys, r.listed) for r in records]


def loads_or_names_place(loader, path, data: bytes, place=NAMES_A_PLACE, oracle=None):
    """With oracle, the records loaded or the error raised must also be the oracle's."""
    path.write_bytes(data)
    try:
        loader(path)
    except ScrcError as e:
        assert place.search(str(e)), f"{type(e).__name__} names no {place.pattern}: {e}"
    if oracle is not None:
        assert outcome(loader, path) == outcome(oracle, path)


def flip(data: bytes, index: int, mask: int) -> bytes:
    out = bytearray(data)
    out[index % len(out)] ^= mask
    return bytes(out)


class TestFeatureStoreMutations:
    @given(st.data())
    def test_truncation(self, scratch, store_bytes, data):
        cut = data.draw(st.integers(0, len(store_bytes) - 1))
        loads_or_names_place(load_feature_store, scratch / "f.bin", store_bytes[:cut])

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, store_bytes, index, mask):
        loads_or_names_place(load_feature_store, scratch / "f.bin",
                             flip(store_bytes, index, mask))

    @given(offset=st.sampled_from([12, 16]),  # dim, count
           value=st.one_of(st.integers(0, 2 ** 32 - 1), st.integers(0, 8)))
    def test_changed_dim_or_count(self, scratch, store_bytes, offset, value):
        data = bytearray(store_bytes)
        data[offset:offset + 4] = struct.pack("<I", value)
        loads_or_names_place(load_feature_store, scratch / "f.bin", bytes(data))


class TestProposalMutations:
    @given(st.data())
    def test_truncation(self, scratch, proposal_bytes, data):
        cut = data.draw(st.integers(0, len(proposal_bytes) - 1))
        loads_or_names_place(load_proposals, scratch / "p.jsonl", proposal_bytes[:cut],
                             oracle=per_record_proposals)

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, proposal_bytes, index, mask):
        loads_or_names_place(load_proposals, scratch / "p.jsonl",
                             flip(proposal_bytes, index, mask), oracle=per_record_proposals)


def boxes():
    """Lists of valid boxes, some of them spoiled in one of the ways a box can be bad."""
    coord = st.one_of(st.integers(-100, 100), st.floats(-100, 100))
    side = st.one_of(st.integers(1, 50), st.floats(0.001, 50))
    valid = st.tuples(coord, coord, side, side).map(
        lambda t: [t[0], t[1], t[0] + t[2], t[1] + t[3]])
    bad_value = st.one_of(st.booleans(), st.text(max_size=2), st.none(),
                          st.lists(st.integers(), max_size=2),
                          st.sampled_from([float("nan"), float("inf"), -float("inf"), 10 ** 400]))

    def replaced(box, k, value):
        box[k] = value
        return box

    spoiled = st.one_of(
        st.builds(replaced, valid, st.integers(0, 3), bad_value),
        valid.map(lambda b: b[:3]),
        valid.map(lambda b: b + [1]),
        valid.map(lambda b: [b[2], b[1], b[0], b[3]]),  # inverted
        valid.map(lambda b: [b[0], b[1], b[2], b[1]]),  # degenerate
        bad_value)
    return st.lists(st.one_of(valid, valid, valid, spoiled), max_size=6)


@given(boxes())
def test_boxes_parse_as_the_per_box_check_does(raw_boxes):
    """The whole-record check accepts exactly the records whose every box the
    per-box check accepts, with the same coordinates."""
    try:
        want = np.array([_parse_box(b, "r").as_list() for b in raw_boxes]).reshape(-1, 4)
    except FormatError:
        with pytest.raises((FormatError, OverflowError)):
            _box_array(raw_boxes)
    else:
        got = _box_array(raw_boxes)
        assert got.dtype == np.float64 and np.array_equal(got, want)


class TestAnnotationMutations:
    @given(st.data())
    def test_truncation(self, scratch, annotation_bytes, data):
        cut = data.draw(st.integers(0, len(annotation_bytes) - 1))
        loads_or_names_place(load_annotations, scratch / "a.jsonl", annotation_bytes[:cut],
                             NAMES_A_LINE, per_record_annotations)

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, annotation_bytes, index, mask):
        loads_or_names_place(load_annotations, scratch / "a.jsonl",
                             flip(annotation_bytes, index, mask), NAMES_A_LINE,
                             per_record_annotations)


def loads_as_per_record(loader, oracle, path, data: bytes):
    path.write_bytes(data)
    assert outcome(loader, path) == outcome(oracle, path)


ODD_VALUES = st.one_of(
    st.booleans(), st.none(), st.integers(-3, 400), st.floats(-3, 400), st.text(max_size=3),
    st.sampled_from([-0.0, 10 ** 400, float("nan"), float("inf"), -float("inf"), [], {},
                     ["red box"], ["red", 3], [0, 0, 5, 5], [[0, 0, 5, 5]]]))
GARBAGE_LINES = st.sampled_from(["{oops", "[1, 2]", "", "   ", '"text"', "{}"])


@st.composite
def mutated_rows(draw, rows, values: dict):
    """rows as JSON lines after one to three mutations: a field set to a value
    drawn from values (or an odd one), a field deleted, a line replaced by one
    that is not a record, or a row repeated."""
    rows = [dict(r) for r in rows]
    lines = {}
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(rows) - 1))
        field = draw(st.sampled_from(sorted(values)))
        op = draw(st.sampled_from(["set", "set", "set", "delete", "garbage", "repeat"]))
        if op == "set":
            rows[k][field] = draw(st.one_of(values[field], values[field], ODD_VALUES))
        elif op == "delete":
            rows[k].pop(field, None)
        elif op == "garbage":
            lines[k] = draw(GARBAGE_LINES)
        else:
            rows.insert(k, dict(rows[k]))
    text = [lines.get(k, json.dumps(r, ensure_ascii=False)) for k, r in enumerate(rows)]
    return "".join(line + "\n" for line in text).encode("utf-8")


def box_values():
    """A box that may fall outside the image on any side, or a spoiled one."""
    corner = st.one_of(st.integers(-20, 20), st.integers(-20, 400), st.floats(-20, 400))
    side = st.one_of(st.integers(1, 100), st.floats(0.5, 100))
    return st.one_of(st.tuples(corner, corner, side, side).map(
        lambda t: [t[0], t[1], t[0] + t[2], t[1] + t[3]]),
        boxes().filter(bool).map(lambda b: b[0]))


SIZES = st.one_of(st.integers(-1, 400), st.floats(-1, 400), st.sampled_from(
    [0, -0.0, float("inf"), float("nan"), 10 ** 400, True]))
ANNOTATION_VALUES = {
    "image_id": st.sampled_from(["img1", "img2", "é"]),
    "width": SIZES,
    "height": SIZES,
    "box": box_values(),
    "region_key": st.text(max_size=3),
    "descriptions": st.lists(st.one_of(st.text(max_size=3), ODD_VALUES), max_size=3)}
PROPOSAL_VALUES = {
    "image_id": st.sampled_from(["img1", "img2", "é"]),
    "boxes": boxes(),
    "region_keys": st.lists(st.one_of(st.text(max_size=3), ODD_VALUES), max_size=6)}


INF, NAN = float("inf"), float("nan")
# (row, field, value): each edge of a column check, set on one row of the
# fixture's records; None as the value deletes the field
ANNOTATION_EDGES = [
    *[(1, field, v) for field in ("width", "height")
      for v in (INF, -INF, NAN, 0, -0.0, -1, 10 ** 400, True, "320", None)],
    *[(1, "box", v) for v in (
        [-1, 0, 5, 5], [0, -0.5, 5, 5], [0, 0, 320.5, 5], [0, 0, 5, 241], [0, 0, 320, 240.5],
        [-0.0, 0.0, 5, 5], [0, 0, INF, 5], [-INF, 0, 5, 5], [NAN, 0, 5, 5], [0, 0, 5, 5, 1],
        [0, 0, 5], [True, 0, 5, 5], [0, 0, 10 ** 400, 5], [5, 0, 5, 5], "box", None)],
    *[(1, "descriptions", v) for v in ([], [""], ["a", 1], "abc", None)],
    (0, "image_id", 3), (2, "image_id", None), (1, "region_key", None), (1, "region_key", [])]
PROPOSAL_EDGES = [
    *[(1, "boxes", v) for v in (
        [[0, 0, INF, 5]], [[-INF, 0, 5, 5]], [[NAN, 0, 5, 5]], [[0, 0, 5, 5, 1]], [[True, 0, 5, 5]],
        [[0, 0, 10 ** 400, 5]], [[-5, -5, -1, -1]], [], [[0, 0, 5, 5], [0, 0, 5, 5]], None)],
    *[(0, "region_keys", v) for v in (["a", 3], ["a"], ["a", "b", "c"], "ab", None)],
    (2, "image_id", "img1"), (2, "image_id", 7), (0, "image_id", None)]


def edge_params(edges):
    return [pytest.param(*edge, id=f"{edge[1]}-{k}") for k, edge in enumerate(edges)]


def edge_rows(data: bytes, row: int, field: str, value) -> bytes:
    rows = [json.loads(line) for line in data.decode("utf-8").splitlines()]
    if value is None:
        del rows[row][field]
    else:
        rows[row][field] = value
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows).encode("utf-8")


class TestLoadersMatchPerRecordChecks:
    """load_annotations and load_proposals check each field once per column;
    with any field set to an edge value, deleted, or its line spoiled, they
    return the records, or raise the error, that the record-by-record oracle
    does."""

    @pytest.mark.parametrize("row, field, value", edge_params(ANNOTATION_EDGES))
    def test_annotation_edge(self, scratch, annotation_bytes, row, field, value):
        loads_as_per_record(load_annotations, per_record_annotations, scratch / "a.jsonl",
                            edge_rows(annotation_bytes, row, field, value))

    @pytest.mark.parametrize("row, field, value", edge_params(PROPOSAL_EDGES))
    def test_proposal_edge(self, scratch, proposal_bytes, row, field, value):
        loads_as_per_record(load_proposals, per_record_proposals, scratch / "p.jsonl",
                            edge_rows(proposal_bytes, row, field, value))

    @given(st.data())
    def test_annotation_fields(self, scratch, annotation_bytes, data):
        rows = [json.loads(line) for line in annotation_bytes.decode("utf-8").splitlines()]
        loads_as_per_record(load_annotations, per_record_annotations, scratch / "a.jsonl",
                            data.draw(mutated_rows(rows, ANNOTATION_VALUES)))

    @given(st.data(), st.sampled_from([100, 1]))
    def test_proposal_fields(self, scratch, proposal_bytes, data, max_boxes):
        rows = [json.loads(line) for line in proposal_bytes.decode("utf-8").splitlines()]
        mutant = data.draw(mutated_rows(rows, PROPOSAL_VALUES))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(datastore, "MAX_PROPOSALS", max_boxes)
            loads_as_per_record(load_proposals, per_record_proposals, scratch / "p.jsonl",
                                mutant)


class TestCaptionMutations:
    @given(st.data())
    def test_truncation(self, scratch, caption_bytes, data):
        cut = data.draw(st.integers(0, len(caption_bytes) - 1))
        loads_or_names_place(load_captions, scratch / "c.jsonl", caption_bytes[:cut],
                             NAMES_A_LINE)

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, caption_bytes, index, mask):
        loads_or_names_place(load_captions, scratch / "c.jsonl",
                             flip(caption_bytes, index, mask), NAMES_A_LINE)


class TestCheckpointMutations:
    @given(st.data())
    def test_truncation(self, scratch, checkpoint_bytes, data):
        cut = data.draw(st.integers(0, len(checkpoint_bytes) - 1))
        loads_or_names_place(load_checkpoint, scratch / "m.ckpt", checkpoint_bytes[:cut],
                             ANY_MESSAGE)

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, checkpoint_bytes, index, mask):
        loads_or_names_place(load_checkpoint, scratch / "m.ckpt",
                             flip(checkpoint_bytes, index, mask), ANY_MESSAGE)

    @given(st.data())
    def test_changed_length_or_count_field(self, scratch, checkpoint_bytes, checkpoint_fields,
                                           data):
        off, fmt = data.draw(st.sampled_from(checkpoint_fields))
        top = 2 ** (8 * struct.calcsize(fmt)) - 1
        (was,) = struct.unpack_from(fmt, checkpoint_bytes, off)
        value = data.draw(st.one_of(st.integers(0, top),
                                    st.integers(max(0, was - 3), min(top, was + 3))))
        mutant = bytearray(checkpoint_bytes)
        struct.pack_into(fmt, mutant, off, value)
        loads_or_names_place(load_checkpoint, scratch / "m.ckpt", bytes(mutant), ANY_MESSAGE)


def loads_or_names_file(path, data: bytes):
    path.write_bytes(data)
    try:
        _load_config_file(path)
    except ConfigError as e:
        assert str(e).startswith(f"{path}: "), e


class TestConfigFileMutations:
    @given(st.data())
    def test_truncation(self, scratch, config_bytes, data):
        cut = data.draw(st.integers(0, len(config_bytes) - 1))
        loads_or_names_file(scratch / "cfg.json", config_bytes[:cut])

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, config_bytes, index, mask):
        loads_or_names_file(scratch / "cfg.json", flip(config_bytes, index, mask))
