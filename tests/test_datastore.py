import dataclasses
import errno
import json
import os
import re
import struct
import sys

import numpy as np
import pytest

from scrc import datastore
from scrc.datastore import (FeatureStore, _Cursor, _param_bytes, build_training_tuples,
                            load_annotations,
                            load_captions, load_checkpoint, load_feature_store,
                            load_proposals, save_checkpoint, save_feature_store)
from scrc.cli import _load_config_file
from scrc.errors import ConfigError, FormatError, InputError
from scrc.model import ScrcConfig, ScrcParams
from scrc.nncore import make_rng
from scrc.textproc import build_vocab


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def write_feature_store(path, dim, entries, count=None):
    """A feature store file written by hand, so values may be non-finite and
    the count may disagree with the entries."""
    with open(path, "wb") as f:
        f.write(b"SCRCFEAT" + struct.pack("<III", 1, dim, len(entries) if count is None
                                          else count))
        for key, vec in entries:
            kb = key.encode("utf-8")
            f.write(struct.pack("<H", len(kb)) + kb + np.asarray(vec, "<f4").tobytes())


def annotation_row(**overrides):
    row = {"image_id": "img1", "width": 200, "height": 100,
           "box": [10, 10, 60, 60], "region_key": "img1:r0",
           "descriptions": ["red box"]}
    row.update(overrides)
    return row


def report_size(monkeypatch, size):
    """Makes os.fstat report size bytes, as it does for a file that grows or
    shrinks after it was asked."""
    real = os.fstat

    def fstat(fd):
        st = real(fd)
        return os.stat_result((*st[:6], size, *st[7:]))

    monkeypatch.setattr(os, "fstat", fstat)


def load_outcome(path):
    """A feature store's keys and rows, or the message of the FormatError it raises."""
    try:
        store = load_feature_store(path)
    except FormatError as e:
        return str(e)
    return {key: vec.tolist() for key, vec in store.entries.items()}


class TestFeatureStore:
    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "f.bin"
        save_feature_store(FeatureStore(4), path)
        loaded = load_feature_store(path)
        assert loaded.dim == 4
        assert len(loaded.entries) == 0

    def test_single_entry_roundtrip_bit_exact(self, tmp_path):
        store = FeatureStore(4)
        store.add("img1", [1.0, 2.0, 3.0, 4.0])
        path = tmp_path / "f.bin"
        save_feature_store(store, path)
        loaded = load_feature_store(path)
        assert np.array_equal(loaded.get("img1"), store.get("img1"))
        assert loaded.get("img1").dtype == np.float32

    def test_many_entries_roundtrip(self, tmp_path):
        rng = make_rng(0)
        store = FeatureStore(16)
        for k in range(50):
            store.add(f"key-{k}", rng.normal(size=16).astype(np.float32))
        path = tmp_path / "f.bin"
        save_feature_store(store, path)
        loaded = load_feature_store(path)
        assert list(loaded.entries) == list(store.entries)
        for k in store.entries:
            assert np.array_equal(loaded.get(k), store.get(k))

    def test_truncation_names_offset(self, tmp_path):
        store = FeatureStore(4)
        store.add("img1", [1, 2, 3, 4])
        store.add("img2", [5, 6, 7, 8])
        path = tmp_path / "f.bin"
        save_feature_store(store, path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(data[:-7])
        with pytest.raises(FormatError, match=r"byte \d+"):
            load_feature_store(cut)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 12)
        with pytest.raises(FormatError, match="magic"):
            load_feature_store(path)

    def test_bad_version(self, tmp_path):
        store = FeatureStore(2)
        path = tmp_path / "f.bin"
        save_feature_store(store, path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_feature_store(path)

    def test_duplicate_key_in_file(self, tmp_path):
        path = tmp_path / "f.bin"
        with open(path, "wb") as f:
            f.write(b"SCRCFEAT")
            f.write(struct.pack("<III", 1, 1, 2))
            for _ in range(2):
                f.write(struct.pack("<H", 1) + b"k" + struct.pack("<f", 1.0))
        with pytest.raises(FormatError, match="duplicate key"):
            load_feature_store(path)

    def test_invalid_utf8_key_names_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"SCRCFEAT" + struct.pack("<IIIH", 1, 1, 1, 2) + b"\xff\xfe"
                         + struct.pack("<f", 1.0))
        with pytest.raises(FormatError, match="invalid UTF-8 at byte 22"):
            load_feature_store(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        save_feature_store(FeatureStore(2), path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_feature_store(path)

    def test_trailing_bytes_after_entries_rejected(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_store(path, 2, [("a", [1, 2]), ("b", [3, 4])])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="4 trailing bytes at byte 42$"):
            load_feature_store(path)

    def test_uneven_key_lengths_roundtrip_bit_exact(self, tmp_path):
        keys = ["", "a", "img1:r07", "ключ-é", "k" * 300, "z" * 0xFFFF]
        values = make_rng(0).normal(size=(len(keys), 4)).astype(np.float32)
        values[0] = [0.0, -0.0, 1e-45, -3.4028235e38]  # signed zero, subnormal, extreme
        store = FeatureStore(4)
        for key, vec in zip(keys, values):
            store.add(key, vec)
        path = tmp_path / "f.bin"
        save_feature_store(store, path)
        loaded = load_feature_store(path)
        assert list(loaded.entries) == keys
        for key in keys:
            got, want = loaded.get(key), store.get(key)
            assert got.dtype == np.float32 and got.shape == (4,)
            assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_names_its_key(self, tmp_path, bad):
        vecs = np.ones((5, 3), dtype=np.float32)
        vecs[2, 1] = bad
        vecs[4, 0] = np.nan  # a later bad entry is not the one named
        path = tmp_path / "f.bin"
        write_feature_store(path, 3, [(f"key-{k}" * (k + 1), v) for k, v in enumerate(vecs)])
        with pytest.raises(FormatError, match="non-finite values for key 'key-2key-2key-2'"):
            load_feature_store(path)

    def test_count_the_file_cannot_hold_rejected_before_allocating(self, tmp_path):
        # 0xFFFFFFFF rows of 10^6 floats would be 17 PB: allocating them would fail
        path = tmp_path / "f.bin"
        write_feature_store(path, 10 ** 6, [("a", np.zeros(10 ** 6))], count=0xFFFFFFFF)
        need = 0xFFFFFFFF * (2 + 4 * 10 ** 6)
        with pytest.raises(FormatError, match=f"4294967295 entries of dim 1000000 need at "
                                              f"least {need} bytes, the file has 4000003 "
                                              f"left at byte 20"):
            load_feature_store(path)

    @pytest.mark.parametrize("field, value, message", [
        (8, 9, "unsupported version 9 at byte 8"),
        (12, 0, "zero feature dimension at byte 12"),
    ])
    def test_header_field_errors_name_offset(self, tmp_path, field, value, message):
        path = tmp_path / "f.bin"
        write_feature_store(path, 2, [("a", [1, 2])])
        data = bytearray(path.read_bytes())
        data[field:field + 4] = struct.pack("<I", value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"feature store: {message}$"):
            load_feature_store(path)

    def test_non_finite_value_names_entry_offset(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_store(path, 2, [("a", [1, 2]), ("bb", [3, 4]), ("ccc", [5, np.inf])])
        # header 20 bytes, then entries of 2 + key + 8 bytes
        with pytest.raises(FormatError, match=r"for key 'ccc' in the entry at byte 43$"):
            load_feature_store(path)

    def test_big_endian_host_byteswaps_rows(self, tmp_path, monkeypatch):
        values = np.array([[1.5, -2.0, 3e-3], [0.0, -0.0, 7.0]], dtype=np.float32)
        path = tmp_path / "f.bin"
        write_feature_store(path, 3, [("a", values[0]), ("b", values[1])])
        monkeypatch.setattr(sys, "byteorder", "big")
        loaded = load_feature_store(path)
        assert np.array_equal(loaded.get("a").view(">f4"), values[0])
        assert np.array_equal(loaded.get("b").view(">f4"), values[1])

    @pytest.mark.parametrize("field", [3, 4, 5])  # the second entry's key length, key, vector
    def test_file_that_shrinks_while_read_names_where_the_read_stopped(
            self, tmp_path, monkeypatch, field):
        keys = ["img1:region-07", "ключ-é"]  # a cut at any field passes the count check
        path = tmp_path / "f.bin"
        write_feature_store(path, 3, [(k, np.ones(3)) for k in keys])
        off, size = entry_fields(keys, 3)[field]
        cut = off + max(1, size // 2)
        reported = path.stat().st_size
        path.write_bytes(path.read_bytes()[:cut])
        report_size(monkeypatch, reported)
        with pytest.raises(FormatError) as err:
            load_feature_store(path)
        assert str(err.value) == (f"{path}: feature store: truncated at byte {cut} "
                                  f"(the file shrank while it was read)")

    @pytest.mark.parametrize("field", [3, 4, 5, None])
    def test_file_longer_than_its_reported_size_is_read_to_that_size(
            self, tmp_path, monkeypatch, field):
        keys = ["img1:region-07", "ключ-é"]  # a cut at any field passes the count check
        path = tmp_path / "f.bin"
        write_feature_store(path, 3, [(k, np.arange(3) + i) for i, k in enumerate(keys)])
        data = path.read_bytes()
        if field is None:
            cut = len(data)
        else:
            off, size = entry_fields(keys, 3)[field]
            cut = off + max(1, size // 2)
        path.write_bytes(data[:cut])
        want = load_outcome(path)
        path.write_bytes(data + b"more bytes, written after the size was read")
        report_size(monkeypatch, cut)
        assert load_outcome(path) == want

    def test_missing_key_named(self):
        store = FeatureStore(2)
        with pytest.raises(InputError, match="nope"):
            store.get("nope")

    def test_loaded_store_names_its_path_for_a_missing_key(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_store(path, 2, [("a", [1, 2])])
        with pytest.raises(InputError) as err:
            load_feature_store(path).get("nope")
        assert str(err.value) == f"{path}: feature store: key 'nope' not found"

    def test_duplicate_add_rejected(self):
        store = FeatureStore(2)
        store.add("a", [1, 2])
        with pytest.raises(InputError, match="duplicate"):
            store.add("a", [3, 4])


STRADDLING_KEYS = ["", "a", "img1:r07", "ключ-é", "k" * 23, "k" * 24, "k" * 25, "z" * 300]


def entry_fields(keys, dim):
    """(offset, size) of each field of each entry of a feature store, in file
    order: key length, key, vector."""
    fields, off = [], 20
    for key in keys:
        klen = len(key.encode("utf-8"))
        fields += [(off, 2), (off + 2, klen), (off + 2 + klen, 4 * dim)]
        off += 2 + klen + 4 * dim
    return fields


def truncation_message(keys, dim, cut):
    """What reading the fields one by one, checking each against the file's
    size, reports for a feature store cut to its first cut bytes."""
    need = len(keys) * (2 + 4 * dim)
    if need > cut - 20:
        return (f"feature store: {len(keys)} entries of dim {dim} need at least {need} bytes, "
                f"the file has {cut - 20} left at byte 20")
    for off, size in entry_fields(keys, dim):
        if off + size > cut:
            return f"feature store: truncated at byte {off} (needed {size} more, have {cut - off})"
    raise AssertionError("the cut leaves every field whole")


class TestFeatureStoreChunks:
    """Entries read through a file buffer of a few dozen bytes: the
    monkeypatched FEATURE_CHUNK_BYTES = 24 sets the buffer's size, so that keys
    and vectors straddle buffer refills and some fields are longer than the
    buffer."""

    @pytest.fixture(autouse=True)
    def small_buffer(self, monkeypatch):
        monkeypatch.setattr(datastore, "FEATURE_CHUNK_BYTES", 24)

    @pytest.mark.parametrize("dim", [1, 5, 16])
    def test_straddling_entries_roundtrip_bit_exact(self, tmp_path, dim):
        values = make_rng(dim).normal(size=(len(STRADDLING_KEYS), dim)).astype(np.float32)
        values[0, :1] = -0.0
        values[-1, -1:] = 1e-45  # subnormal
        path = tmp_path / "f.bin"
        write_feature_store(path, dim, list(zip(STRADDLING_KEYS, values)))
        loaded = load_feature_store(path)
        assert list(loaded.entries) == STRADDLING_KEYS
        got = np.stack([loaded.get(k) for k in STRADDLING_KEYS])
        assert np.array_equal(got.view(np.uint32), values.view(np.uint32))

    @pytest.mark.parametrize("dim", [5, 16])
    def test_truncation_names_the_offset_of_the_cut_field(self, tmp_path, dim):
        path = tmp_path / "f.bin"
        write_feature_store(path, dim, [(k, np.ones(dim)) for k in STRADDLING_KEYS])
        data = path.read_bytes()
        cut_path = tmp_path / "cut.bin"
        for cut in range(20, len(data)):
            cut_path.write_bytes(data[:cut])
            with pytest.raises(FormatError) as err:
                load_feature_store(cut_path)
            assert str(err.value) == f"{cut_path}: {truncation_message(STRADDLING_KEYS, dim, cut)}"

    def test_straddling_errors_name_offsets(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_store(path, 2, [("k" * 30, [1, 2]), ("k" * 30, [3, 4])])
        with pytest.raises(FormatError, match=r"duplicate key 'k{30}' at byte 60$"):
            load_feature_store(path)
        data = bytearray(path.read_bytes())
        data[60 + 2 + 29] = 0xFF  # the last byte of the second key
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=r"invalid UTF-8 at byte 91$"):
            load_feature_store(path)

    def test_trailing_bytes_after_straddling_entries(self, tmp_path):
        path = tmp_path / "f.bin"
        write_feature_store(path, 5, [(k, np.ones(5)) for k in STRADDLING_KEYS])
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match=f"4 trailing bytes at byte {size}$"):
            load_feature_store(path)


class TestAnnotations:
    def test_three_valid_lines_in_order(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(region_key=f"img1:r{i}") for i in range(3)])
        records = load_annotations(path)
        assert [r.region_key for r in records] == ["img1:r0", "img1:r1", "img1:r2"]

    def test_multiple_descriptions_kept(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(descriptions=["red box", "crimson square"])])
        records = load_annotations(path)
        assert len(records) == 1
        assert len(records[0].descriptions) == 2

    def test_invalid_box_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(),
                           annotation_row(box=[60, 10, 60, 60])])
        with pytest.raises(FormatError, match="line 2"):
            load_annotations(path)

    def test_box_outside_image_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(box=[10, 10, 250, 60])])
        with pytest.raises(FormatError, match="line 1"):
            load_annotations(path)

    @pytest.mark.parametrize("field", ["width", "height"])
    @pytest.mark.parametrize("raw, message", [
        ("Infinity", "finite and positive"), ("1e400", "finite and positive"),
        ("NaN", "finite and positive"), ("1" + "0" * 400, "beyond float64's range")])
    def test_non_finite_image_size_names_line(self, tmp_path, field, raw, message):
        path = tmp_path / "a.jsonl"
        bad = json.dumps(annotation_row(**{field: 12345})).replace("12345", raw)
        path.write_text(json.dumps(annotation_row()) + "\n" + bad + "\n")
        with pytest.raises(FormatError, match=f"a.jsonl: line 2: .*{message}"):
            load_annotations(path)

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text(json.dumps(annotation_row()) + "\n{oops\n")
        with pytest.raises(FormatError, match="line 2"):
            load_annotations(path)

    def test_invalid_utf8_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row()])
        path.write_bytes(path.read_bytes() + json.dumps(annotation_row()).encode()[:-2]
                         + b"\xff\"}\n")
        with pytest.raises(FormatError, match="a.jsonl: line 2: invalid UTF-8"):
            load_annotations(path)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        row = annotation_row()
        del row["region_key"]
        write_jsonl(path, [row])
        with pytest.raises(FormatError, match="region_key"):
            load_annotations(path)

    def test_empty_descriptions_rejected(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(descriptions=[])])
        with pytest.raises(FormatError, match="descriptions"):
            load_annotations(path)


class TestProposalsAndCaptions:
    def test_proposals_roundtrip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1",
                            "boxes": [[0, 0, 5, 5], [2, 2, 8, 9]],
                            "region_keys": ["a", "b"]}])
        sets = load_proposals(path)
        assert len(sets) == 1
        assert sets[0].region_keys == ["a", "b"]
        assert sets[0].boxes[1].y_max == 9

    def test_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "boxes": [[0, 0, 5, 5]],
                            "region_keys": ["a", "b"]}])
        with pytest.raises(FormatError, match="line 1"):
            load_proposals(path)

    def test_duplicate_image_id_names_both_lines(self, tmp_path):
        path = tmp_path / "p.jsonl"
        row = {"image_id": "img1", "boxes": [[0, 0, 5, 5]], "region_keys": ["a"]}
        write_jsonl(path, [row, dict(row, image_id="img2"), row])
        with pytest.raises(FormatError, match=r"line 3: duplicate image_id 'img1' "
                                              r"\(first on line 1\)"):
            load_proposals(path)

    def test_keeps_top_max_boxes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(datastore, "MAX_PROPOSALS", 5)
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1",
                            "boxes": [[k, 0, k + 1, 1] for k in range(7)],
                            "region_keys": [f"r{k}" for k in range(7)]}])
        sets = load_proposals(path)
        assert len(sets[0].boxes) == 5
        assert sets[0].region_keys == [f"r{k}" for k in range(5)]

    @pytest.mark.parametrize("max_boxes", [100, 2])  # 2: the bad box is past the kept ones
    @pytest.mark.parametrize("bad, message", [
        ([0, True, 5, 5], "box coordinate must be a number, got bool"),
        ([0, "0", 5, 5], "box coordinate must be a number, got str"),
        ([0, 0, 5], r"box must be \[x1, y1, x2, y2\]"),
        ([[0, 0], 0, 5, 5], "box coordinate must be a number, got list"),
        ({"x1": 0}, r"box must be \[x1, y1, x2, y2\]"),
        ([float("nan"), 0, 5, 5], r"box coordinates must be finite, got \(nan, 0.0, 5.0, 5.0\)"),
        ([0, 0, float("inf"), 5], r"box coordinates must be finite, got \(0.0, 0.0, inf, 5.0\)"),
        ([2, 0, 2, 5], r"degenerate box \(2.0, 0.0, 2.0, 5.0\)"),
        ([5, 5, 0, 0], r"degenerate box \(5.0, 5.0, 0.0, 0.0\)"),
        ([0, 0, 10 ** 400, 5], "box coordinate is beyond float64's range"),
    ], ids=["bool", "string", "three", "nested", "object", "nan", "inf", "degenerate",
            "inverted", "huge-int"])
    def test_bad_box_names_line_and_index(self, tmp_path, monkeypatch, bad, message, max_boxes):
        monkeypatch.setattr(datastore, "MAX_PROPOSALS", max_boxes)
        # json.dumps writes nan and inf as the NaN and Infinity tokens json.loads accepts
        boxes = [[k, 0, k + 1, 1] for k in range(5)]
        boxes[2] = bad
        boxes[4] = [1, 1, 0, 0]  # a later bad box is not the one named
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "boxes": [[0, 0, 5, 5]], "region_keys": ["a"]},
                           {"image_id": "img2", "boxes": boxes,
                            "region_keys": [f"r{k}" for k in range(5)]}])
        with pytest.raises(FormatError, match=rf"p\.jsonl: line 2: box 2: {message}"):
            load_proposals(path)

    def test_boxes_built_once_on_first_use(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "boxes": [[0, 0.5, 5, 5], [2, 2, 8, 9]],
                            "region_keys": ["a", "b"]}])
        (pset,) = load_proposals(path)
        assert pset.coords.dtype == np.float64
        assert pset.coords.tolist() == [[0, 0.5, 5, 5], [2, 2, 8, 9]]
        assert "boxes" not in vars(pset)
        boxes = pset.boxes
        assert [b.as_list() for b in boxes] == pset.coords.tolist()
        assert pset.boxes is boxes

    def test_empty_box_list_loads(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_jsonl(path, [{"image_id": "img1", "boxes": [], "region_keys": []}])
        (pset,) = load_proposals(path)
        assert pset.coords.shape == (0, 4)
        assert pset.boxes == []

    def test_integer_of_too_many_digits_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"image_id": "img1", "boxes": [[0, 0, 5, 5]], "region_keys": ["a"]}\n'
                        '{"image_id": "img2", "boxes": [[0, 0, 5, ' + "9" * 5000 + ']], '
                        '"region_keys": ["a"]}\n')
        with pytest.raises(FormatError, match="p.jsonl: line 2: invalid JSON"):
            load_proposals(path)

    def test_deeply_nested_record_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"image_id": "img1", "captions": ["a"]}\n'
                        '{"image_id": "img2", "captions": ' + "[" * 100000 + "]" * 100000
                        + "}\n")
        with pytest.raises(FormatError, match="c.jsonl: line 2: invalid JSON"):
            load_captions(path)

    def test_captions(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"image_id": "img1", "captions": ["a dog", "the dog"]}])
        records = load_captions(path)
        assert records[0].captions == ["a dog", "the dog"]

    def test_empty_captions_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"image_id": "img1", "captions": []}])
        with pytest.raises(FormatError, match="line 1"):
            load_captions(path)


class TestSurrogateEscapes:
    """Python's JSON reader decodes an escaped lone surrogate into a string
    that UTF-8 cannot encode; the readers refuse it at the line that holds it."""

    @pytest.mark.parametrize("loader, good, bad", [
        (load_annotations, annotation_row(),
         annotation_row(descriptions=["red box", "red \ud800 left"])),
        (load_proposals, {"image_id": "img0", "boxes": [], "region_keys": []},
         {"image_id": "img1", "boxes": [[0, 0, 5, 5]], "region_keys": ["\udc00"]}),
        (load_captions, {"image_id": "img0", "captions": ["a dog"]},
         {"image_id": "img1", "captions": ["a \udfff dog"]}),
    ], ids=["annotations", "proposals", "captions"])
    def test_unpaired_surrogate_names_line(self, tmp_path, loader, good, bad):
        path = tmp_path / "f.jsonl"
        write_jsonl(path, [good, bad])
        assert b"\\ud" in path.read_bytes()  # json.dumps escapes the lone surrogate
        with pytest.raises(FormatError, match="f.jsonl: line 2: unpaired surrogate escape"):
            loader(path)

    def test_escaped_surrogate_pair_loads(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(descriptions=["the \U0001F600 on the left"])])
        assert b"\\ud83d\\ude00" in path.read_bytes()
        (record,) = load_annotations(path)
        assert record.descriptions == ["the \U0001F600 on the left"]


class TestTrainingTuples:
    def stores(self):
        region = FeatureStore(3)
        region.add("img1:r0", [1, 0, 0])
        region.add("img1:r1", [0, 1, 0])
        context = FeatureStore(3)
        context.add("img1", [1, 1, 0])
        return region, context

    def test_tuple_count_is_description_count(self, tmp_path):
        region, context = self.stores()
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(descriptions=["one"]),
                           annotation_row(region_key="img1:r1",
                                          descriptions=["a", "b", "c"])])
        vocab = build_vocab(["one a b c"])
        tuples = build_training_tuples(load_annotations(path), region, context, vocab)
        assert len(tuples) == 4

    def test_full_image_box_spatial(self, tmp_path):
        region, context = self.stores()
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(box=[0, 0, 200, 100])])
        vocab = build_vocab(["red box"])
        tuples = build_training_tuples(load_annotations(path), region, context, vocab)
        assert np.allclose(tuples[0].spatial, [-1, -1, 1, 1, 0, 0, 2, 2], atol=1e-12)

    def test_missing_region_key_named(self, tmp_path):
        region, context = self.stores()
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(region_key="img1:r9")])
        with pytest.raises(InputError, match="img1:r9"):
            build_training_tuples(load_annotations(path), region, context, build_vocab([]))

    def test_missing_context_key_named(self, tmp_path):
        region, context = self.stores()
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(image_id="img9", region_key="img1:r0")])
        with pytest.raises(InputError, match="img9"):
            build_training_tuples(load_annotations(path), region, context, build_vocab([]))

    def test_blank_description_rejected(self, tmp_path):
        region, context = self.stores()
        path = tmp_path / "a.jsonl"
        write_jsonl(path, [annotation_row(descriptions=["..."])])
        with pytest.raises(InputError, match="tokenizes to nothing"):
            build_training_tuples(load_annotations(path), region, context, build_vocab([]))


def small_checkpoint_parts(seed=0):
    vocab = build_vocab(["red green left right"])
    config = ScrcConfig(vocab_size=len(vocab), embed_dim=4, hidden_dim=5, feat_dim=3)
    params = ScrcParams.init(config, make_rng(seed))
    return params, config, vocab


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        loaded, lconfig, lvocab = load_checkpoint(path)
        assert lconfig == config
        assert lvocab.tokens == vocab.tokens
        for a, b in zip(params.tensors(), loaded.tensors()):
            assert a.name == b.name
            assert np.array_equal(a.value, b.value)
            assert b.value.dtype == np.float32

    def test_double_roundtrip_same_bytes(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, config, vocab, p1)
        loaded, lconfig, lvocab = load_checkpoint(p1)
        save_checkpoint(loaded, lconfig, lvocab, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_vocab_order_preserved(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        assert load_checkpoint(path)[2].tokens == vocab.tokens

    def test_mode_flags_roundtrip(self, tmp_path):
        vocab = build_vocab(["w"])
        config = ScrcConfig(vocab_size=len(vocab), embed_dim=2, hidden_dim=2, feat_dim=2,
                            mask_spatial=True, mask_context=True)
        params = ScrcParams.init(config, make_rng(1))
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        lconfig = load_checkpoint(path)[1]
        assert lconfig.mask_spatial and lconfig.mask_context

    def test_version_mismatch(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = bytearray(path.read_bytes())
        data[8:12] = struct.pack("<I", 2)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="version"):
            load_checkpoint(path)

    def test_corrupt_tensor_count(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = bytearray(path.read_bytes())
        hlen = struct.unpack("<I", bytes(data[12:16]))[0]
        count_off = 16 + hlen
        data[count_off:count_off + 4] = struct.pack("<I", 9999)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_invalid_utf8_tensor_name_names_offset(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = bytearray(path.read_bytes())
        hlen = struct.unpack("<I", bytes(data[12:16]))[0]
        name_off = 16 + hlen + 4 + 2  # tensor count, then the first name's length
        assert data[name_off:name_off + 1] == b"E"
        data[name_off] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=f"invalid UTF-8 at byte {name_off}"):
            load_checkpoint(path)

    def test_truncated_tensor_data(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(path.read_bytes()[:-11])
        with pytest.raises(FormatError, match=r"byte \d+"):
            load_checkpoint(cut)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_named(self, tmp_path, bad):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        overwrite_float(path, "W_local", 0, bad)
        with pytest.raises(FormatError, match="tensor 'W_local' holds non-finite values"):
            load_checkpoint(path)

    def test_non_finite_gate_view_named(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        overwrite_float(path, "lstm_global.b_o", 2, np.nan)
        with pytest.raises(FormatError, match=r"tensor 'lstm_global\.b_o' holds non-finite"):
            load_checkpoint(path)

    def test_save_refuses_non_finite_tensor_and_keeps_old_file(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        old = path.read_bytes()
        params.lstm_language.W_hf.value[0, 1] = np.inf
        with pytest.raises(InputError) as err:
            save_checkpoint(params, config, vocab, path)
        assert str(err.value) == (f"{path}: tensor 'lstm_language.W_hf' holds non-finite "
                                  f"values; no checkpoint written")
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_save_refuses_float32_overflow_and_writes_nothing(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        wide = ScrcParams(config, dtype=np.float64)
        for a, b in zip(wide.fused_tensors(), params.fused_tensors()):
            a.value[...] = b.value
        wide.E.value[1, 2] = 1e39  # finite in float64, infinite once cast to float32
        path = tmp_path / "m.ckpt"
        with pytest.raises(InputError) as err:
            save_checkpoint(wide, config, vocab, path)
        assert str(err.value) == (f"{path}: tensor 'E' holds values beyond float32's range; "
                                  f"no checkpoint written")
        assert os.listdir(tmp_path) == []
        wide.E.value[1, 2] = 3e38  # the largest float32 is about 3.4e38
        save_checkpoint(wide, config, vocab, path)
        assert load_checkpoint(path)[0].E.value[1, 2] == np.float32(3e38)

    def test_deeply_nested_header_names_file(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = path.read_bytes()
        hlen = struct.unpack("<I", data[12:16])[0]
        header = b"[" * 100000 + b"]" * 100000
        path.write_bytes(data[:12] + struct.pack("<I", len(header)) + header + data[16 + hlen:])
        with pytest.raises(FormatError,
                           match=re.escape(f"{path}: checkpoint: header: invalid JSON")):
            load_checkpoint(path)

    def test_unexpected_tensor_between_expected_is_named(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        prefix, records = split_checkpoint(path.read_bytes())
        extra = (struct.pack("<H", 5) + b"extra" + struct.pack("<B3I", 3, 2, 3, 4)
                 + np.full(24, np.nan, "<f4").tobytes())
        off = len(prefix) + 4 + sum(map(len, records[:3]))
        records.insert(3, extra)
        path.write_bytes(prefix + struct.pack("<I", 40) + b"".join(records))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: checkpoint: tensor 'extra' at byte {off}, "
                                  f"expected 'lstm_language.W_xo'")

    def test_swapped_records_refused_at_the_first(self, tmp_path):
        """Two records of the same shape, swapped: each would load, but
        into the other's tensor."""
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        prefix, records = split_checkpoint(path.read_bytes())
        records[1], records[2] = records[2], records[1]
        path.write_bytes(prefix + struct.pack("<I", 40) + b"".join(records))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == (
            f"{path}: checkpoint: tensor 'lstm_language.W_xf' at byte "
            f"{len(prefix) + 4 + len(records[0])}, expected 'lstm_language.W_xi'")

    def test_renamed_record_refused(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        prefix, records = split_checkpoint(path.read_bytes())
        off = len(prefix) + 4 + sum(map(len, records[:-1]))
        assert records[-1][:3] == struct.pack("<H", 1) + b"r"
        records[-1] = records[-1][:2] + b"q" + records[-1][3:]
        path.write_bytes(prefix + struct.pack("<I", 40) + b"".join(records))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == f"{path}: checkpoint: tensor 'q' at byte {off}, expected 'r'"

    @pytest.mark.parametrize("count", [39, 41])
    def test_tensor_count_off_by_one_refused_before_any_record(self, tmp_path, count):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = bytearray(path.read_bytes())
        count_off = 16 + struct.unpack("<I", bytes(data[12:16]))[0]
        data[count_off:count_off + 4] = struct.pack("<I", count)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == (f"{path}: checkpoint: tensor count {count} at byte "
                                  f"{count_off}, expected 40")

    def test_oversized_header_dims_rejected_before_allocating(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        huge = config.replace(embed_dim=400000, hidden_dim=400000)
        rewrite_header(path, config=dataclasses.asdict(huge))
        size = path.stat().st_size
        hlen = struct.unpack("<I", path.read_bytes()[12:16])[0]
        with pytest.raises(FormatError, match=(
                f"config needs {_param_bytes(huge)} bytes of tensor data, the file has "
                f"{size - 20 - hlen} left at byte {20 + hlen}")):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("embed_dim", 4.0), ("hidden_dim", True),
                                            ("mask_spatial", 1)])
    def test_header_config_of_wrong_type_named(self, tmp_path, key, value):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        rewrite_header(path, config={**dataclasses.asdict(config), key: value})
        with pytest.raises(ConfigError, match=f"config key {key!r} must be"):
            load_checkpoint(path)

    def test_vocabulary_disagreeing_with_config_rejected(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        rewrite_header(path, vocab=list(vocab.tokens[:4]))
        with pytest.raises(FormatError, match=f"vocabulary of 4 tokens, config vocab_size "
                                              f"{config.vocab_size}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("dims", [(4, 5, 3), (7, 2, 9)])
    def test_param_bytes_counts_every_tensor(self, dims):
        config = ScrcConfig(vocab_size=11, embed_dim=dims[0], hidden_dim=dims[1],
                            feat_dim=dims[2])
        assert _param_bytes(config) == sum(
            t.value.nbytes for t in ScrcParams(config).tensors())

    @pytest.mark.parametrize("flags", [{}, {"caption_mode": True},
                                       {"mask_spatial": True, "mask_context": True}])
    def test_header_config_round_trips_every_field(self, tmp_path, flags):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        data = path.read_bytes()
        (hlen,) = struct.unpack("<I", data[12:16])
        written = json.loads(data[16:16 + hlen])["config"]
        assert list(written) == sorted(f.name for f in dataclasses.fields(ScrcConfig))
        assert len(written) == 8
        want = config.replace(**flags)
        rewrite_header(path, config=dataclasses.asdict(want))
        assert load_checkpoint(path)[1] == want

    def test_unknown_header_config_key_named(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        rewrite_header(path, config={**dataclasses.asdict(config), "bogus": 1})
        with pytest.raises(ConfigError,
                           match=re.escape(f"{path}: checkpoint: unknown config key 'bogus'")):
            load_checkpoint(path)

    def test_header_config_that_is_not_an_object(self, tmp_path):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        rewrite_header(path, config=[])
        with pytest.raises(ConfigError, match="config must be a JSON object, got list"):
            load_checkpoint(path)

    def test_header_that_is_not_an_object(self, tmp_path):
        hb = b"[1, 2]"
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SCRCCKPT" + struct.pack("<II", 1, len(hb)) + hb
                         + struct.pack("<I", 0))
        with pytest.raises(FormatError, match="header is not a JSON object"):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"WRONGMAG" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spoil, refusal", [
        (lambda d: b"WRONGMAG" + d[8:], "bad magic"),
        (lambda d: d[:8] + struct.pack("<I", 2) + d[12:], "unsupported version 2"),
        (lambda d: with_header(d, lambda h: h.pop("vocab")), "header missing 'vocab'"),
        (lambda d: with_header(d, lambda h: h.update(format_version=2)),
         "unsupported format_version 2"),
        (lambda d: with_header(d, lambda h: h["vocab"].__setitem__(3, 7)),
         "invalid header: vocabulary token 3 is not a string"),
        (lambda d: with_header(d, lambda h: h.update(vocab=h["vocab"][:4])),
         "vocabulary of 4 tokens"),
        (lambda d: with_header(d, lambda h: h["config"].update(bogus=1)),
         "unknown config key 'bogus'"),
        (lambda d: d[:16] + b"x" + d[17:], "header: invalid JSON"),
        (lambda d: with_records(d, lambda r: r.__setitem__(1, r[0])), "tensor 'E' at byte"),
        (lambda d: with_records(d, lambda r: r.__setitem__(0, r[0][:4] + struct.pack("<I", 1)
                                                          + r[0][8:])),
         "tensor 'E' has shape (1,"),
        (lambda d: with_records(d, lambda r: r.__setitem__(-1, r[-1][:8] + struct.pack("<f", np.nan)
                                                           + r[-1][12:])),
         "tensor 'r' holds non-finite values"),
        (lambda d: with_records(d, lambda r: r.pop()), "tensor count 39 at byte"),
        (lambda d: with_records(d, lambda r: r.__setitem__(0, r[0][:2] + b"\xff" + r[0][3:])),
         "invalid UTF-8 at byte"),
        (lambda d: d[:-11], "truncated at byte"),
        (lambda d: d + b"\0", "1 trailing bytes"),
    ], ids=["magic", "version", "no vocab", "format_version", "token type", "vocab size",
            "unknown config key", "header JSON", "duplicate tensor", "tensor shape",
            "non-finite tensor", "tensor names", "tensor name UTF-8", "truncated", "trailing"])
    def test_every_refusal_starts_with_the_path(self, tmp_path, spoil, refusal):
        params, config, vocab = small_checkpoint_parts()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, config, vocab, path)
        path.write_bytes(spoil(path.read_bytes()))
        with pytest.raises((FormatError, ConfigError)) as err:
            load_checkpoint(path)
        message = str(err.value)
        assert message.startswith(f"{path}: checkpoint: ") and refusal in message, message
        assert message.count(str(path)) == 1, message


def with_header(data: bytes, edit) -> bytes:
    """A checkpoint's bytes with edit applied to its parsed JSON header."""
    hlen = struct.unpack("<I", data[12:16])[0]
    header = json.loads(data[16:16 + hlen])
    edit(header)
    hb = json.dumps(header).encode("utf-8")
    return data[:12] + struct.pack("<I", len(hb)) + hb + data[16 + hlen:]


def with_records(data: bytes, edit) -> bytes:
    """A checkpoint's bytes with edit applied to its list of tensor records."""
    prefix, records = split_checkpoint(data)
    edit(records)
    return prefix + struct.pack("<I", len(records)) + b"".join(records)


def split_checkpoint(data: bytes):
    """(the bytes before the tensor count, one bytes object per tensor record)."""
    hlen = struct.unpack("<I", data[12:16])[0]
    off = 16 + hlen
    (count,) = struct.unpack("<I", data[off:off + 4])
    prefix, off, records = data[:off], off + 4, []
    for _ in range(count):
        start = off
        (nlen,) = struct.unpack("<H", data[off:off + 2])
        off += 2 + nlen
        rank = data[off]
        dims = struct.unpack(f"<{rank}I", data[off + 1:off + 1 + 4 * rank])
        off += 1 + 4 * rank + 4 * int(np.prod(dims))
        records.append(data[start:off])
    assert off == len(data)
    return prefix, records


def overwrite_float(path, name, index, value):
    """Sets float `index` of the named tensor's record in a saved checkpoint."""
    prefix, records = split_checkpoint(path.read_bytes())
    for k, record in enumerate(records):
        (nlen,) = struct.unpack("<H", record[:2])
        if record[2:2 + nlen] == name.encode("utf-8"):
            data = bytearray(record)
            struct.pack_into("<f", data, 3 + nlen + 4 * data[2 + nlen] + 4 * index, value)
            records[k] = bytes(data)
    path.write_bytes(prefix + struct.pack("<I", len(records)) + b"".join(records))


def rewrite_header(path, **fields):
    """Replaces fields of a checkpoint's JSON header, keeping its tensors."""
    data = path.read_bytes()
    hlen = struct.unpack("<I", data[12:16])[0]
    header = {**json.loads(data[16:16 + hlen]), **fields}
    hb = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:12] + struct.pack("<I", len(hb)) + hb + data[16 + hlen:])


class _ShortReads:
    """A file whose readinto fills only half of what is asked, as a file
    that shrinks while it is read does."""

    def __init__(self, f):
        self.f = f

    def fileno(self):
        return self.f.fileno()

    def readinto(self, buf):
        return self.f.readinto(buf[:len(buf) // 2])

    def tell(self):
        return self.f.tell()


class TestReader:
    def test_directory_rejected_by_every_reader(self, tmp_path):
        for reader in (load_feature_store, load_checkpoint, load_annotations, load_proposals,
                       load_captions, _load_config_file):
            with pytest.raises(InputError, match=f"^{tmp_path}: not a regular file$"):
                reader(tmp_path)

    def test_fifo_rejected_without_waiting(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        for loader in (load_feature_store, load_checkpoint):
            with pytest.raises(InputError, match=f"{fifo}: not a regular file"):
                loader(fifo)

    def test_short_read_names_offset(self, tmp_path):
        path = tmp_path / "raw.bin"
        path.write_bytes(bytes(64))
        with open(path, "rb") as f:
            cur = _Cursor(_ShortReads(f), "raw")
            with pytest.raises(FormatError, match=r"raw: truncated at byte 32 \(the file "
                                                  r"shrank"):
                cur.into(np.empty(16, dtype=np.float32))

    def test_big_endian_host_byteswaps(self, tmp_path, monkeypatch):
        values = np.array([1.5, -2.0, 3e-3], dtype=np.float32)
        path = tmp_path / "raw.bin"
        path.write_bytes(values.astype("<f4").tobytes())
        monkeypatch.setattr(sys, "byteorder", "big")
        out = np.empty(3, dtype=np.float32)
        with open(path, "rb") as f:
            _Cursor(f, "raw").into(out)
        # what a big-endian host would hold: the same values in its own byte order
        assert np.array_equal(out.view(">f4"), values)


class _DiskFullAfter:
    """A file whose writes fail once `writes` of them have gone through."""

    def __init__(self, f, writes):
        self.f, self.writes = f, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.writes -= 1
        if self.writes < 0:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.f.write(data)


class TestAtomicWrites:
    @pytest.fixture
    def disk_full(self, monkeypatch):
        real_open = open
        monkeypatch.setattr(datastore, "open",
                            lambda *a, **kw: _DiskFullAfter(real_open(*a, **kw), 3),
                            raising=False)

    def savers(self):
        params, config, vocab = small_checkpoint_parts()
        store = FeatureStore(3)
        for k in range(4):
            store.add(f"k{k}", np.arange(3.0) + k)
        return {"checkpoint": lambda path: save_checkpoint(params, config, vocab, path),
                "feature store": lambda path: save_feature_store(store, path)}

    @pytest.mark.parametrize("kind", ["checkpoint", "feature store"])
    def test_failed_write_keeps_old_file(self, kind, tmp_path, request):
        save = self.savers()[kind]
        path = tmp_path / "out.bin"
        save(path)
        old = path.read_bytes()
        request.getfixturevalue("disk_full")
        with pytest.raises(OSError):
            save(path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind", ["checkpoint", "feature store"])
    def test_failed_new_file_leaves_nothing(self, kind, tmp_path, disk_full):
        with pytest.raises(OSError):
            self.savers()[kind](tmp_path / "out.bin")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "store.bin"
        for dim in (2, 3):
            save_feature_store(FeatureStore(dim), path)
        assert load_feature_store(path).dim == 3
        assert list(tmp_path.iterdir()) == [path]
