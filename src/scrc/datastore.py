"""Ingestion and persistence.

Binary formats (little-endian throughout):

feature store   magic "SCRCFEAT", u32 version=1, u32 dim, u32 count, then
                per entry: u16 key byte-length, key bytes (UTF-8), dim*f32.

checkpoint      magic "SCRCCKPT", u32 version=1, u32 header length, header
                as JSON text (config dict, vocabulary array, format
                version), u32 tensor count, then per tensor: u16 name
                length, name bytes, u8 rank, rank*u32 dims, f32 data.

Dataset files are JSON lines, one record per line:

annotations  {"image_id":str, "width":num, "height":num,
              "box":[x1,y1,x2,y2], "region_key":str, "descriptions":[str,...]}
proposals    {"image_id":str, "boxes":[[x1,y1,x2,y2],...], "region_keys":[str,...]}
captions     {"image_id":str, "captions":[str,...]}
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import FormatError, InputError
from .geometry import BoundingBox, ImageSize, encode_spatial
from .model import ScrcConfig, ScrcParams
from .textproc import TokenSequence, Vocabulary, encode

FEATURE_MAGIC = b"SCRCFEAT"
CHECKPOINT_MAGIC = b"SCRCCKPT"
FORMAT_VERSION = 1

DEFAULT_MAX_PROPOSALS = 100

# The size of load_feature_store's file buffer, which each entry's fields are
# read from. A buffer that stays in L2 reads fastest, and one below glibc's
# 128 KiB mmap threshold leaves malloc's dynamic threshold, and so the speed of
# later allocations, as it was.
FEATURE_CHUNK_BYTES = 1 << 16
_KEY_LEN = struct.Struct("<H")


class FeatureStore:
    """Map from UTF-8 keys to fixed-dimension float32 feature vectors."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise InputError(f"feature dimension must be positive, got {dim}")
        self.dim = dim
        self.entries: dict[str, np.ndarray] = {}

    def add(self, key: str, vec):
        if key in self.entries:
            raise InputError(f"duplicate feature key: {key!r}")
        vec = np.asarray(vec, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise InputError(f"feature {key!r}: expected dim {self.dim}, got shape {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise InputError(f"feature {key!r} contains non-finite values")
        self.entries[key] = vec

    def get(self, key: str) -> np.ndarray:
        try:
            return self.entries[key]
        except KeyError:
            raise InputError(f"feature key not found: {key!r}") from None

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def __len__(self) -> int:
        return len(self.entries)


@contextmanager
def _atomic_write(path):
    """A binary file that replaces path only once it is completely written:
    a temp file in path's directory, moved into place by os.replace and
    removed if writing fails."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def save_feature_store(store: FeatureStore, path):
    with _atomic_write(path) as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<III", FORMAT_VERSION, store.dim, len(store.entries)))
        for key, vec in store.entries.items():
            kb = key.encode("utf-8")
            if len(kb) > 0xFFFF:
                raise InputError(f"feature key too long ({len(kb)} bytes)")
            f.write(struct.pack("<H", len(kb)))
            f.write(kb)
            f.write(vec.astype("<f4", copy=False).tobytes())


def _open_nonblocking(path, flags):
    # open() of a FIFO with no writer would wait for one; _Cursor refuses it
    return os.open(path, flags | getattr(os, "O_NONBLOCK", 0))


class _Cursor:
    """Reads an open regular file front to back. Every read is checked
    against the file's size first, so a truncation raises FormatError naming
    its byte offset before anything is read or allocated."""

    def __init__(self, f, what: str):
        st = os.fstat(f.fileno())
        if not stat.S_ISREG(st.st_mode):
            raise InputError(f"{what} {f.name}: not a regular file")
        self.f = f
        self.size = st.st_size
        self.off = 0
        self.what = what

    def left(self) -> int:
        return self.size - self.off

    def _advance(self, n: int, got: int):
        """Moves past n bytes, of which got were read."""
        if got != n:
            raise FormatError(f"{self.what}: truncated at byte {self.off + got} "
                              f"(the file shrank while it was read)")
        self.off += n

    def _need(self, n: int):
        if n > self.left():
            raise FormatError(
                f"{self.what}: truncated at byte {self.off} "
                f"(needed {n} more, have {self.left()})")

    def skip(self, n: int):
        self._need(n)
        self.f.seek(n, os.SEEK_CUR)
        self.off += n

    def take(self, n: int) -> bytes:
        self._need(n)
        data = self.f.read(n)
        self._advance(n, len(data))
        return data

    def into(self, array: np.ndarray):
        """Fills a C-contiguous float32 array with the next array.nbytes bytes,
        read as little-endian."""
        view = memoryview(array).cast("B")
        self._need(view.nbytes)
        self._advance(view.nbytes, self.f.readinto(view))
        if sys.byteorder == "big":
            array.byteswap(inplace=True)

    def text(self, n: int) -> str:
        """The next n bytes decoded as UTF-8."""
        off = self.off
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.what}: invalid UTF-8 at byte {off + e.start}") from None

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self):
        if self.left():
            raise FormatError(f"{self.what}: {self.left()} trailing bytes at byte {self.off}")


def _read_entries(cur: _Cursor, keys: dict[str, np.ndarray], matrix: np.ndarray):
    """Reads the feature store entries that follow the header, field by field:
    each key into keys, mapped to its row of matrix, and each vector into that
    row. A field that the file's size cannot hold is not read, and one that
    reads short stops the load; either way cur.off moves to the field's first
    byte and cur raises the error that names it."""
    f, size, off = cur.f, cur.size, cur.off
    vec = 4 * matrix.shape[1]
    rows = memoryview(matrix.reshape(-1)).cast("B")
    for i, row in enumerate(matrix):
        if off + 2 > size or len(raw := f.read(2)) != 2:
            cur.off = off
            cur._need(2)
            cur._advance(2, len(raw))
        (klen,) = _KEY_LEN.unpack(raw)
        key_off = off + 2
        if key_off + klen > size or len(raw := f.read(klen)) != klen:
            cur.off = key_off
            cur._need(klen)
            cur._advance(klen, len(raw))
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"feature store: invalid UTF-8 at byte {key_off + e.start}") from None
        if key in keys:
            raise FormatError(f"feature store: duplicate key {key!r} at byte {off}")
        off = key_off + klen
        if off + vec > size or (got := f.readinto(rows[i * vec:(i + 1) * vec])) != vec:
            cur.off = off
            cur._need(vec)
            cur._advance(vec, got)
        keys[key] = row
        off += vec
    cur.off = off
    if sys.byteorder == "big":
        matrix.byteswap(inplace=True)


def load_feature_store(path) -> FeatureStore:
    with open(path, "rb", buffering=FEATURE_CHUNK_BYTES, opener=_open_nonblocking) as f:
        cur = _Cursor(f, "feature store")
        magic = cur.take(len(FEATURE_MAGIC))
        if magic != FEATURE_MAGIC:
            raise FormatError(f"feature store: bad magic {magic!r} at byte 0")
        version, dim, count = cur.unpack("<III")
        if version != FORMAT_VERSION:
            raise FormatError(f"feature store: unsupported version {version} at byte 8")
        if dim == 0:
            raise FormatError("feature store: zero feature dimension at byte 12")
        need = count * (2 + 4 * dim)  # every entry has a key length and dim floats
        if need > cur.left():
            raise FormatError(
                f"feature store: {count} entries of dim {dim} need at least {need} bytes, "
                f"the file has {cur.left()} left at byte {cur.off}")
        store = FeatureStore(dim)
        matrix = np.empty((count, dim), dtype=np.float32)
        entries_off = cur.off
        _read_entries(cur, store.entries, matrix)
        cur.done()
    if not np.isfinite(matrix).all():
        row = int(np.argmin(np.isfinite(matrix).all(axis=1)))
        keys = list(store.entries)
        off = entries_off + sum(2 + len(k.encode("utf-8")) + 4 * dim for k in keys[:row])
        raise FormatError(f"feature store: non-finite values for key {keys[row]!r} "
                          f"in the entry at byte {off}")
    return store


@dataclass
class AnnotationRecord:
    image_id: str
    width: float
    height: float
    box: BoundingBox
    region_key: str
    descriptions: list[str]


@dataclass(eq=False)
class ProposalSet:
    image_id: str
    coords: np.ndarray  # (n, 4) float64 rows of x1, y1, x2, y2
    region_keys: list[str]
    listed: int = 0  # boxes on the file's line, before the top max_boxes were kept

    @cached_property
    def boxes(self) -> list[BoundingBox]:
        """The rows of coords as boxes, built on first use: only the sets that
        are ranked need them."""
        return [BoundingBox(*row) for row in self.coords.tolist()]


@dataclass
class CaptionRecord:
    image_id: str
    captions: list[str]


def _iter_jsonl(path):
    with open(path, "rb") as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(
                    f"{path}: line {lineno}: invalid UTF-8 at byte {e.start} of the line") from None
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except ValueError as e:  # JSONDecodeError, or an integer of too many digits
                raise FormatError(f"{path}: line {lineno}: invalid JSON: {e}") from None
            if not isinstance(obj, dict):
                raise FormatError(f"{path}: line {lineno}: expected a JSON object")
            yield lineno, obj


def _field(obj, name, kind, path, lineno):
    if name not in obj:
        raise FormatError(f"{path}: line {lineno}: missing field {name!r}")
    v = obj[name]
    if kind is float:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise FormatError(f"{path}: line {lineno}: field {name!r} must be a number")
        return float(v)
    if not isinstance(v, kind):
        raise FormatError(f"{path}: line {lineno}: field {name!r} must be {kind.__name__}")
    return v


def _parse_box(raw, where: str) -> BoundingBox:
    if (not isinstance(raw, list) or len(raw) != 4
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in raw)):
        raise FormatError(f"{where}: box must be [x1, y1, x2, y2]")
    try:
        return BoundingBox(*(float(v) for v in raw))
    except (InputError, OverflowError) as e:
        raise FormatError(f"{where}: {e}") from None


def _parse_boxes(raw_boxes: list, where: str) -> np.ndarray:
    """A record's boxes as an (n, 4) float64 array. They are checked as a
    whole; if that finds a bad box, they are checked one by one, which names
    the first."""
    if set(map(type, raw_boxes)) <= {list} and set(map(len, raw_boxes)) <= {4}:
        flat = list(chain.from_iterable(raw_boxes))
        if set(map(type, flat)) <= {int, float}:  # bool is neither
            try:
                coords = np.array(flat, dtype=np.float64).reshape(-1, 4)
            except OverflowError:  # an integer beyond float64's range
                pass
            else:
                if np.isfinite(coords).all() and (coords[:, 2:] > coords[:, :2]).all():
                    return coords
    boxes = [_parse_box(raw, f"{where}: box {k}") for k, raw in enumerate(raw_boxes)]
    return np.array([b.as_list() for b in boxes], dtype=np.float64)


def load_annotations(path) -> list[AnnotationRecord]:
    records = []
    for lineno, obj in _iter_jsonl(path):
        image_id = _field(obj, "image_id", str, path, lineno)
        width = _field(obj, "width", float, path, lineno)
        height = _field(obj, "height", float, path, lineno)
        box = _parse_box(_field(obj, "box", list, path, lineno), f"{path}: line {lineno}")
        region_key = _field(obj, "region_key", str, path, lineno)
        descriptions = _field(obj, "descriptions", list, path, lineno)
        if not descriptions or not all(isinstance(d, str) for d in descriptions):
            raise FormatError(
                f"{path}: line {lineno}: descriptions must be a non-empty list of strings")
        try:
            img = ImageSize(width, height)
            if not img.contains(box):
                raise InputError(f"box {box.as_list()} exceeds the {width}x{height} image")
        except InputError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from None
        records.append(AnnotationRecord(image_id, width, height, box, region_key,
                                        list(descriptions)))
    return records


def load_proposals(path, max_boxes: int = DEFAULT_MAX_PROPOSALS) -> list[ProposalSet]:
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
        coords = _parse_boxes(raw_boxes, f"{path}: line {lineno}")
        # proposal files are ranked; keep the top max_boxes
        sets.append(ProposalSet(image_id, coords[:max_boxes], list(keys[:max_boxes]),
                                len(coords)))
    return sets


def load_captions(path) -> list[CaptionRecord]:
    records = []
    for lineno, obj in _iter_jsonl(path):
        image_id = _field(obj, "image_id", str, path, lineno)
        captions = _field(obj, "captions", list, path, lineno)
        if not captions or not all(isinstance(c, str) for c in captions):
            raise FormatError(
                f"{path}: line {lineno}: captions must be a non-empty list of strings")
        records.append(CaptionRecord(image_id, list(captions)))
    return records


@dataclass
class TrainingTuple:
    """One (object, description) training instance."""

    region_key: str
    image_id: str
    spatial: np.ndarray
    tokens: TokenSequence


def build_training_tuples(records: Sequence[AnnotationRecord], region_store: FeatureStore,
                          context_store: FeatureStore, vocab: Vocabulary) -> list[TrainingTuple]:
    """Expand records into one tuple per (object, description) pair."""
    tuples = []
    for rec in records:
        if rec.region_key not in region_store:
            raise InputError(f"region feature key not found: {rec.region_key!r}")
        if rec.image_id not in context_store:
            raise InputError(f"context feature key not found: {rec.image_id!r}")
        spatial = encode_spatial(rec.box, ImageSize(rec.width, rec.height))
        for desc in rec.descriptions:
            ids = encode(vocab, desc)
            if not ids:
                raise InputError(f"description tokenizes to nothing: {desc!r}")
            tuples.append(TrainingTuple(rec.region_key, rec.image_id, spatial, ids))
    return tuples


def save_checkpoint(params: ScrcParams, config: ScrcConfig, vocab: Vocabulary, path):
    params.check_config(config)
    if len(vocab) != config.vocab_size:
        raise InputError(f"vocabulary size {len(vocab)} != config vocab_size {config.vocab_size}")
    header = {"format_version": FORMAT_VERSION,
              "config": config.to_dict(),
              "vocab": list(vocab.tokens)}
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = params.tensors()
    with _atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(hb)))
        f.write(hb)
        f.write(struct.pack("<I", len(tensors)))
        for t in tensors:
            nb = t.name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", t.value.ndim))
            f.write(struct.pack(f"<{t.value.ndim}I", *t.value.shape))
            f.write(np.ascontiguousarray(t.value, dtype="<f4").tobytes())


def _param_bytes(config: ScrcConfig) -> int:
    """Bytes of float32 data in all of the tensors of a model with this config."""
    V, H = config.vocab_size, config.hidden_dim
    unit_inputs = (config.embed_dim, config.local_input_dim, config.global_input_dim)
    return 4 * (config.embed_dim * V + sum(4 * H * (n + H + 1) for n in unit_inputs)
                + 2 * V * H + V)


def load_checkpoint(path):
    """Returns (params, config, vocab); tensors come back bit-exact."""
    with open(path, "rb", opener=_open_nonblocking) as f:
        cur = _Cursor(f, "checkpoint")
        magic = cur.take(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"checkpoint: bad magic {magic!r} at byte 0")
        version, hlen = cur.unpack("<II")
        if version != FORMAT_VERSION:
            raise FormatError(f"checkpoint: unsupported version {version}")
        try:
            header = json.loads(cur.take(hlen).decode("utf-8"))
        except ValueError as e:  # invalid UTF-8 or JSON, or an integer of too many digits
            raise FormatError(f"checkpoint: invalid header JSON: {e}") from None
        if not isinstance(header, dict):
            raise FormatError("checkpoint: header is not a JSON object")
        for key in ("format_version", "config", "vocab"):
            if key not in header:
                raise FormatError(f"checkpoint: header missing {key!r}")
        if header["format_version"] != FORMAT_VERSION:
            raise FormatError(
                f"checkpoint: unsupported format_version {header['format_version']}")
        try:
            config = ScrcConfig.from_dict(header["config"])
            vocab = Vocabulary(header["vocab"])
        except (TypeError, InputError) as e:
            raise FormatError(f"checkpoint: invalid header: {e}") from None
        if len(vocab) != config.vocab_size:
            raise FormatError(f"checkpoint: vocabulary of {len(vocab)} tokens, config "
                              f"vocab_size {config.vocab_size}")

        (count,) = cur.unpack("<I")
        need = _param_bytes(config)
        if need > cur.left():
            raise FormatError(
                f"checkpoint: the header's config needs {need} bytes of tensor data, "
                f"the file has {cur.left()} left at byte {cur.off}")
        params = ScrcParams(config, dtype=np.float32)
        expected = {t.name: t for t in params.tensors()}
        seen: set[str] = set()
        extra = []
        for _ in range(count):
            rec_off = cur.off
            (nlen,) = cur.unpack("<H")
            name = cur.text(nlen)
            if name in seen:
                raise FormatError(f"checkpoint: duplicate tensor {name!r} at byte {rec_off}")
            seen.add(name)
            (rank,) = cur.unpack("<B")
            dims = cur.unpack(f"<{rank}I")
            t = expected.get(name)
            if t is None:
                extra.append(name)
                cur.skip(4 * math.prod(dims))
            elif dims != t.value.shape:
                raise FormatError(
                    f"checkpoint: tensor {name!r} has shape {dims}, expected {t.value.shape}")
            else:
                cur.into(t.value)
                if not np.isfinite(t.value).all():
                    raise FormatError(f"checkpoint: tensor {name!r} holds non-finite values")
        cur.done()

    missing = set(expected) - seen
    if missing or extra:
        raise FormatError(
            f"checkpoint: tensor names do not match (missing {sorted(missing)}, "
            f"unexpected {sorted(extra)})")
    return params, config, vocab
