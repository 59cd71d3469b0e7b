"""Ingestion and persistence.

Binary formats (little-endian throughout):

feature store   magic "SCRCFEAT", u32 version=1, u32 dim, u32 count, then
                per entry: u16 key byte-length, key bytes (UTF-8), dim*f32.

checkpoint      magic "SCRCCKPT", u32 version=1, u32 header length, header as
                JSON text (config dict, vocabulary array, format version), u32
                tensor count, then per tensor in ScrcParams.tensors() order:
                u16 name length, name bytes, u8 rank, rank*u32 dims, f32 data.

Dataset files are JSON lines, one record per line:

annotations  {"image_id":str, "width":num, "height":num,
              "box":[x1,y1,x2,y2], "region_key":str, "descriptions":[str,...]}
proposals    {"image_id":str, "boxes":[[x1,y1,x2,y2],...], "region_keys":[str,...]}
captions     {"image_id":str, "captions":[str,...]}
"""

from __future__ import annotations

import json
import os
import stat
import struct
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain
from typing import Optional, Sequence, get_type_hints

import numpy as np

from .errors import ConfigError, FormatError, InputError
from .geometry import BoundingBox, ImageSize, encode_spatial
from .model import ScrcConfig, ScrcParams
from .textproc import TokenSequence, Vocabulary, encode_nonempty

FEATURE_MAGIC = b"SCRCFEAT"
CHECKPOINT_MAGIC = b"SCRCCKPT"
FORMAT_VERSION = 1

MAX_PROPOSALS = 100  # proposal files are ranked; each image keeps its top ones

# The size of load_feature_store's file buffer, which each entry's fields are
# read from. A buffer that stays in L2 reads fastest, and one below glibc's
# 128 KiB mmap threshold leaves malloc's dynamic threshold, and so the speed of
# later allocations, as it was.
FEATURE_CHUNK_BYTES = 1 << 16
_KEY_LEN = struct.Struct("<H")


class FeatureStore:
    """Map from UTF-8 keys to fixed-dimension float32 feature vectors."""

    where = "feature store"  # how errors name it; load_feature_store puts its path first

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
            raise InputError(f"{self.where}: key {key!r} not found") from None


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
    except BaseException as e:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(e, OSError) and e.filename == tmp:
            # name the file the caller asked for, not the temp file
            raise OSError(e.errno, e.strerror, path) from e
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


def open_regular(path, flags):
    """Every input file's opener: it never waits (a FIFO would) and admits only a regular file."""
    fd = os.open(path, flags | getattr(os, "O_NONBLOCK", 0))
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise InputError(f"{path}: not a regular file")
    return fd


class _Cursor:
    """Reads a file opened by open_regular front to back. Every read is
    checked against the file's size first, so a truncation raises FormatError
    naming its byte offset before anything is read or allocated."""

    def __init__(self, f, what: str):
        self.f = f
        self.size = os.fstat(f.fileno()).st_size
        self.off = 0
        self.what = what

    def left(self) -> int:
        return self.size - self.off

    def fail(self, off: int, n: int):
        """Raises the error for the n-byte field at byte off: a truncation if
        the file's size cannot hold the field (then nothing was read), else a
        short read, whose end is the file position."""
        if off + n > self.size:
            raise FormatError(f"{self.what}: truncated at byte {off} "
                              f"(needed {n} more, have {self.size - off})")
        raise FormatError(f"{self.what}: truncated at byte {self.f.tell()} "
                          f"(the file shrank while it was read)")

    def take(self, n: int) -> bytes:
        if n > self.left() or len(data := self.f.read(n)) != n:
            self.fail(self.off, n)
        self.off += n
        return data

    def into(self, array: np.ndarray):
        """Fills a C-contiguous float32 array with the next array.nbytes bytes,
        read as little-endian."""
        view = memoryview(array).cast("B")
        if view.nbytes > self.left() or self.f.readinto(view) != view.nbytes:
            self.fail(self.off, view.nbytes)
        self.off += view.nbytes
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

    def magic(self, magic: bytes):
        """Reads and checks the magic and u32 format version that start the file."""
        got = self.take(len(magic))
        if got != magic:
            raise FormatError(f"{self.what}: bad magic {got!r} at byte 0")
        (version,) = self.unpack("<I")
        if version != FORMAT_VERSION:
            raise FormatError(f"{self.what}: unsupported version {version} at byte {len(magic)}")

    def done(self):
        if self.left():
            raise FormatError(f"{self.what}: {self.left()} trailing bytes at byte {self.off}")


def _read_entries(cur: _Cursor, keys: dict[str, np.ndarray], matrix: np.ndarray):
    """Reads the feature store entries that follow the header, field by field:
    each key into keys, mapped to its row of matrix, and each vector into that
    row. A field that the file's size cannot hold is not read, and one that
    reads short stops the load; either way cur.fail raises the error that
    names it."""
    f, size, off = cur.f, cur.size, cur.off
    vec = 4 * matrix.shape[1]
    rows = memoryview(matrix.reshape(-1)).cast("B")
    for i, row in enumerate(matrix):
        if off + 2 > size or len(raw := f.read(2)) != 2:
            cur.fail(off, 2)
        (klen,) = _KEY_LEN.unpack(raw)
        key_off = off + 2
        if key_off + klen > size or len(raw := f.read(klen)) != klen:
            cur.fail(key_off, klen)
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{cur.what}: invalid UTF-8 at byte {key_off + e.start}") from None
        if key in keys:
            raise FormatError(f"{cur.what}: duplicate key {key!r} at byte {off}")
        off = key_off + klen
        if off + vec > size or f.readinto(rows[i * vec:(i + 1) * vec]) != vec:
            cur.fail(off, vec)
        keys[key] = row
        off += vec
    cur.off = off
    if sys.byteorder == "big":
        matrix.byteswap(inplace=True)


def load_feature_store(path) -> FeatureStore:
    where = f"{path}: feature store"
    with open(path, "rb", buffering=FEATURE_CHUNK_BYTES, opener=open_regular) as f:
        cur = _Cursor(f, where)
        cur.magic(FEATURE_MAGIC)
        dim, count = cur.unpack("<II")
        if dim == 0:
            raise FormatError(f"{where}: zero feature dimension at byte 12")
        need = count * (2 + 4 * dim)  # every entry has a key length and dim floats
        if need > cur.left():
            raise FormatError(
                f"{where}: {count} entries of dim {dim} need at least {need} bytes, "
                f"the file has {cur.left()} left at byte {cur.off}")
        store = FeatureStore(dim)
        store.where = where
        matrix = np.empty((count, dim), dtype=np.float32)
        entries_off = cur.off
        _read_entries(cur, store.entries, matrix)
        cur.done()
    if not np.isfinite(matrix).all():
        row = int(np.argmin(np.isfinite(matrix).all(axis=1)))
        keys = list(store.entries)
        off = entries_off + sum(2 + len(k.encode("utf-8")) + 4 * dim for k in keys[:row])
        raise FormatError(f"{where}: non-finite values for key {keys[row]!r} "
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
    listed: int = 0  # boxes on the file's line, before the top MAX_PROPOSALS were kept

    @cached_property
    def boxes(self) -> list[BoundingBox]:
        """The rows of coords as boxes, built on first use: only the sets that
        are ranked need them."""
        return [BoundingBox(*row) for row in self.coords.tolist()]


@dataclass
class CaptionRecord:
    image_id: str
    captions: list[str]


_CONFIG_KINDS = get_type_hints(ScrcConfig)  # the header config's keys and their types
_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "a JSON array", dict: "a JSON object"}


def json_object(text, where: str, error=FormatError) -> dict:
    """Parses a JSON document, given as text or as UTF-8 bytes, that must be
    an object; error names where it came from. Every JSON input is read here."""
    try:
        obj = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, a huge integer, deep nesting
        raise error(f"{where}: invalid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise error(f"{where} is not a JSON object")
    return obj


def json_value(value, kind, what: str, error=FormatError):
    """A parsed JSON value checked against kind: bool, int, float, str, list
    or dict. bool is never a number, and an int is taken as a float."""
    if type(value) is kind:  # the common case: every value of a record that loads
        return value
    types = (int, float) if kind is float else kind
    if not isinstance(value, types) or (isinstance(value, bool) and kind is not bool):
        raise error(f"{what} must be {_KIND_NAMES[kind]}, got {type(value).__name__}")
    if kind is float:
        try:
            return float(value)
        except OverflowError:  # an integer beyond float64's range
            raise error(f"{what} is beyond float64's range") from None
    return value


def json_settings(obj: dict, kinds: dict, where: str) -> dict:
    """A config file's or checkpoint header's settings, checked against kinds."""
    for key in obj:
        if key not in kinds:
            raise ConfigError(f"{where}: unknown config key {key!r}")
    return {key: json_value(value, kinds[key], f"{where}: config key {key!r}", ConfigError)
            for key, value in obj.items()}


def _iter_jsonl(path):
    with open(path, "rb", opener=open_regular) as f:
        for lineno, raw in enumerate(f, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                raise FormatError(
                    f"{path}: line {lineno}: invalid UTF-8 at byte {e.start} of the line") from None
            if not line.strip():
                continue
            obj = json_object(line, f"{path}: line {lineno}")
            if "\\u" in line:  # strict UTF-8 never decodes to a surrogate; an escape can
                try:
                    json.dumps(obj, ensure_ascii=False).encode("utf-8")
                except UnicodeEncodeError:
                    raise FormatError(
                        f"{path}: line {lineno}: unpaired surrogate escape in a string") from None
            yield lineno, obj


def _field(obj, name, kind, path, lineno):
    """obj[name] checked as kind. Every field of every record comes through
    here, so the file and line go into a message only once it is refused."""
    if name not in obj:
        raise FormatError(f"{path}: line {lineno}: missing field {name!r}")
    try:
        return json_value(obj[name], kind, repr(name))
    except FormatError as e:
        raise FormatError(f"{path}: line {lineno}: field {e}") from None


def _strings(obj, name, path, lineno) -> list[str]:
    """obj[name], refused unless it is a list of one or more strings."""
    items = _field(obj, name, list, path, lineno)
    if not items or not all(isinstance(s, str) for s in items):
        raise FormatError(f"{path}: line {lineno}: {name} must be a non-empty list of strings")
    return list(items)


def _parse_box(raw, where: str, lineno: Optional[int] = None) -> BoundingBox:
    """A box from its JSON value. where, and the line if given, go into a
    message only once the box is refused."""
    try:
        if not isinstance(raw, list) or len(raw) != 4:
            raise FormatError("box must be [x1, y1, x2, y2]")
        return BoundingBox(*(json_value(v, float, "box coordinate") for v in raw))
    except (FormatError, InputError) as e:
        place = where if lineno is None else f"{where}: line {lineno}"
        raise FormatError(f"{place}: {e}") from None


def _column(objs: list, name: str, *kinds) -> list:
    """Field name of every record; FormatError unless each has one of a type in
    kinds (a missing field reads as None, which is never one)."""
    if not set(map(type, values := [obj.get(name) for obj in objs])) <= set(kinds):
        raise FormatError(f"field {name!r}")  # a column refusal: the per-record read names it
    return values


def _box_array(raw_boxes: list) -> np.ndarray:
    """Boxes as (n, 4) float64 rows, checked as a whole as BoundingBox checks each
    (a bool is neither an int nor a float): FormatError if one is refused,
    OverflowError for an integer beyond float64's range."""
    if (set(map(type, raw_boxes)) <= {list} and set(map(len, raw_boxes)) <= {4}
            and set(map(type, flat := list(chain.from_iterable(raw_boxes)))) <= {int, float}
            and np.isfinite(coords := np.array(flat, dtype=np.float64).reshape(-1, 4)).all()
            and (coords[:, 2:] > coords[:, :2]).all()):
        return coords
    raise FormatError("box")


def load_annotations(path) -> list[AnnotationRecord]:
    """Records are built only once every column is checked. If a line or a check
    is refused, the file is read again record by record to name the first refusal."""
    try:
        objs = [obj for _, obj in _iter_jsonl(path)]
        sizes = np.array([_column(objs, "width", int, float),
                          _column(objs, "height", int, float)], dtype=np.float64)
        coords = _box_array(_column(objs, "box", list))
        texts = _column(objs, "descriptions", list)
        # a box inside the image makes its size positive, and NaN fails every comparison
        if not (all(texts) and set(map(type, chain.from_iterable(texts))) <= {str}
                and (sizes < np.inf).all()
                and (coords[:, :2] >= 0).all() and (coords[:, 2:] <= sizes.T).all()):
            raise FormatError("annotation")
        return [AnnotationRecord(i, w, h, BoundingBox(*box), k, list(t)) for i, w, h, box, k, t
                in zip(_column(objs, "image_id", str), *sizes.tolist(), coords.tolist(),
                       _column(objs, "region_key", str), texts)]
    except (FormatError, OverflowError) as e:
        refused = e
    for lineno, obj in _iter_jsonl(path):
        _field(obj, "image_id", str, path, lineno)
        width = _field(obj, "width", float, path, lineno)
        height = _field(obj, "height", float, path, lineno)
        box = _parse_box(_field(obj, "box", list, path, lineno), path, lineno)
        _field(obj, "region_key", str, path, lineno)
        _strings(obj, "descriptions", path, lineno)
        try:
            ImageSize(width, height).check(box)
        except InputError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from None
    raise FormatError(f"{path}: {refused}")


def load_proposals(path) -> list[ProposalSet]:
    """Checked once per column, as load_annotations is."""
    try:
        objs = [obj for _, obj in _iter_jsonl(path)]
        ids, raw = _column(objs, "image_id", str), _column(objs, "boxes", list)
        keys, lengths = _column(objs, "region_keys", list), list(map(len, raw))
        if (len(set(ids)) < len(ids) or lengths != list(map(len, keys))
                or not set(map(type, chain.from_iterable(keys))) <= {str}):
            raise FormatError("proposals")
        coords = np.split(_box_array(list(chain.from_iterable(raw))), np.cumsum(lengths)[:-1])
        return [ProposalSet(i, c[:MAX_PROPOSALS], k[:MAX_PROPOSALS], len(c))
                for i, c, k in zip(ids, coords, keys)]
    except (FormatError, OverflowError) as e:
        refused = e
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
        for k, raw in enumerate(raw_boxes):
            _parse_box(raw, f"{path}: line {lineno}: box {k}")
    raise FormatError(f"{path}: {refused}")


def load_captions(path) -> list[CaptionRecord]:
    records = []
    for lineno, obj in _iter_jsonl(path):
        image_id = _field(obj, "image_id", str, path, lineno)
        records.append(CaptionRecord(image_id, _strings(obj, "captions", path, lineno)))
    return records


@dataclass
class TrainingTuple:
    """One (object, description) training instance."""

    region_key: str
    image_id: str
    spatial: np.ndarray
    tokens: TokenSequence


def build_training_tuples(records: Sequence[AnnotationRecord], region_store: FeatureStore,
                          context_store: FeatureStore, vocab: Vocabulary,
                          noun: str = "description") -> list[TrainingTuple]:
    """Expand records into one tuple per (object, description) pair; a store
    lacking a record's key refuses it, and noun names a description that
    tokenizes to nothing, as encode_nonempty's does."""
    tuples = []
    for rec in records:
        region_store.get(rec.region_key)
        context_store.get(rec.image_id)
        spatial = encode_spatial(rec.box, ImageSize(rec.width, rec.height))
        for desc in rec.descriptions:
            ids = encode_nonempty(vocab, desc, noun)
            tuples.append(TrainingTuple(rec.region_key, rec.image_id, spatial, ids))
    return tuples


def save_checkpoint(params: ScrcParams, config: ScrcConfig, vocab: Vocabulary, path):
    """Writes a checkpoint, unless load_checkpoint would refuse it: the first
    tensor that holds a value that is not finite in float32 is named, and
    nothing is written."""
    params.check_config(config)
    if len(vocab) != config.vocab_size:
        raise InputError(f"vocabulary size {len(vocab)} != config vocab_size {config.vocab_size}")
    tensors = params.tensors()
    with np.errstate(over="ignore"):  # beyond float32's range casts to infinity, refused below
        values = [np.ascontiguousarray(t.value, dtype="<f4") for t in tensors]
    for t, value in zip(tensors, values):
        if not np.isfinite(value).all():
            what = ("values beyond float32's range" if np.isfinite(t.value).all()
                    else "non-finite values")
            raise InputError(f"{path}: tensor {t.name!r} holds {what}; no checkpoint written")
    header = {"format_version": FORMAT_VERSION,
              "config": asdict(config),
              "vocab": list(vocab.tokens)}
    hb = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with _atomic_write(path) as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<II", FORMAT_VERSION, len(hb)))
        f.write(hb)
        f.write(struct.pack("<I", len(tensors)))
        for t, value in zip(tensors, values):
            nb = t.name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", value.ndim))
            f.write(struct.pack(f"<{value.ndim}I", *value.shape))
            f.write(value.tobytes())


def _param_bytes(config: ScrcConfig) -> int:
    """Bytes of float32 data in all of the tensors of a model with this config."""
    V, H = config.vocab_size, config.hidden_dim
    unit_inputs = (config.embed_dim, config.local_input_dim, config.global_input_dim)
    return 4 * (config.embed_dim * V + sum(4 * H * (n + H + 1) for n in unit_inputs)
                + 2 * V * H + V)


def load_checkpoint(path):
    """Returns (params, config, vocab); tensors come back bit-exact."""
    where = f"{path}: checkpoint"
    with open(path, "rb", opener=open_regular) as f:
        cur = _Cursor(f, where)
        cur.magic(CHECKPOINT_MAGIC)
        (hlen,) = cur.unpack("<I")
        header = json_object(cur.take(hlen), f"{where}: header")
        for key in ("format_version", "config", "vocab"):
            if key not in header:
                raise FormatError(f"{where}: header missing {key!r}")
        version = json_value(header["format_version"], int, f"{where}: format_version")
        if version != FORMAT_VERSION:
            raise FormatError(f"{where}: unsupported format_version {version}")
        fields = json_settings(json_value(header["config"], dict, f"{where}: config",
                                          ConfigError), _CONFIG_KINDS, where)
        try:
            config = ScrcConfig(**fields)
            vocab = Vocabulary(json_value(header["vocab"], list, f"{where}: vocab"))
        except ConfigError as e:
            raise ConfigError(f"{where}: {e}") from None
        except (TypeError, InputError) as e:  # a config key missing, a bad vocabulary token
            raise FormatError(f"{where}: invalid header: {e}") from None
        if len(vocab) != config.vocab_size:
            raise FormatError(f"{where}: vocabulary of {len(vocab)} tokens, config "
                              f"vocab_size {config.vocab_size}")

        (count,) = cur.unpack("<I")
        need = _param_bytes(config)
        if need > cur.left():
            raise FormatError(
                f"{where}: the header's config needs {need} bytes of tensor data, "
                f"the file has {cur.left()} left at byte {cur.off}")
        params = ScrcParams(config, dtype=np.float32)
        if count != len(tensors := params.tensors()):
            raise FormatError(f"{where}: tensor count {count} at byte {16 + hlen}, "
                              f"expected {len(tensors)}")
        for t in tensors:
            rec_off = cur.off
            (nlen,) = cur.unpack("<H")
            name = cur.text(nlen)
            if name != t.name:
                raise FormatError(f"{where}: tensor {name!r} at byte {rec_off}, "
                                  f"expected {t.name!r}")
            (rank,) = cur.unpack("<B")
            dims = cur.unpack(f"<{rank}I")
            if dims != t.value.shape:
                raise FormatError(
                    f"{where}: tensor {name!r} has shape {dims}, expected {t.value.shape}")
            cur.into(t.value)
            if not np.isfinite(t.value).all():
                raise FormatError(f"{where}: tensor {name!r} holds non-finite values")
        cur.done()
    return params, config, vocab
