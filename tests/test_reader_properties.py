"""Property tests for the readers of bulk and evaluation inputs: a feature
store, proposals, annotations or captions file that has been cut short or has
one byte changed either loads, or raises a ScrcError that names a byte offset
or a line. A checkpoint mutated the same way, or with a length or count field
changed, either loads or raises a ScrcError. Any other exception fails."""

import json
import math
import re
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from scrc.datastore import (FeatureStore, _parse_box, _parse_boxes,  # noqa: E402
                            load_annotations, load_captions, load_checkpoint,
                            load_feature_store, load_proposals, save_checkpoint,
                            save_feature_store)
from scrc.errors import FormatError, ScrcError  # noqa: E402
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


def loads_or_names_place(loader, path, data: bytes, place=NAMES_A_PLACE):
    path.write_bytes(data)
    try:
        loader(path)
    except ScrcError as e:
        assert place.search(str(e)), f"{type(e).__name__} names no {place.pattern}: {e}"


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
        loads_or_names_place(load_proposals, scratch / "p.jsonl", proposal_bytes[:cut])

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, proposal_bytes, index, mask):
        loads_or_names_place(load_proposals, scratch / "p.jsonl",
                             flip(proposal_bytes, index, mask))


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
        with pytest.raises(FormatError, match=r"^r: box \d+: "):
            _parse_boxes(raw_boxes, "r")
    else:
        got = _parse_boxes(raw_boxes, "r")
        assert got.dtype == np.float64 and np.array_equal(got, want)


class TestAnnotationMutations:
    @given(st.data())
    def test_truncation(self, scratch, annotation_bytes, data):
        cut = data.draw(st.integers(0, len(annotation_bytes) - 1))
        loads_or_names_place(load_annotations, scratch / "a.jsonl", annotation_bytes[:cut],
                             NAMES_A_LINE)

    @given(index=st.integers(0, 10 ** 6), mask=st.integers(1, 255))
    def test_byte_flip(self, scratch, annotation_bytes, index, mask):
        loads_or_names_place(load_annotations, scratch / "a.jsonl",
                             flip(annotation_bytes, index, mask), NAMES_A_LINE)


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
