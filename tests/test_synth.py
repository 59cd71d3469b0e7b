import errno
import os

import numpy as np
import pytest
from test_evalmetrics import _DiskFullAfter

from scrc import datastore
from scrc.datastore import load_annotations, load_captions, load_feature_store, load_proposals
from scrc.errors import InputError
from scrc.geometry import iou
from scrc.synth import COLORS, MAX_IMAGES, POSITIONS, generate_dataset
from scrc.textproc import build_vocab, encode, UNK_ID


def test_structure_and_correlations(tmp_path):
    out = tmp_path / "data"
    manifest = generate_dataset(out, seed=3, n_images=16)
    records = load_annotations(out / "annotations.jsonl")
    region = load_feature_store(out / "region_features.bin")
    context = load_feature_store(out / "context_features.bin")
    captions = load_captions(out / "captions.jsonl")
    proposals = load_proposals(out / "proposals.jsonl")

    assert manifest["annotations"] == len(records) == 64
    assert region.dim == context.dim == len(COLORS)

    by_image = {}
    for rec in records:
        by_image.setdefault(rec.image_id, []).append(rec)
    for image_id, recs in by_image.items():
        assert len(recs) == 4
        # two colors, two regions each; position recoverable only spatially
        colors = [rec.descriptions[0].split()[0] for rec in recs]
        assert len(set(colors)) == 2
        assert sorted(colors.count(c) for c in set(colors)) == [2, 2]
        positions = [rec.descriptions[0].split()[1] for rec in recs]
        assert sorted(positions) == sorted(POSITIONS)
        for rec, color in zip(recs, colors):
            feat = region.get(rec.region_key)
            expected = np.zeros(len(COLORS), dtype=np.float32)
            expected[COLORS.index(color)] = 1.0
            assert np.array_equal(feat, expected)
        ctx = context.get(image_id)
        assert ctx.sum() == 2.0  # exactly the two colors present


def test_distractor_proposals_never_hit(tmp_path):
    out = tmp_path / "data"
    generate_dataset(out, seed=1, n_images=16)
    records = {r.region_key: r for r in load_annotations(out / "annotations.jsonl")}
    for pset in load_proposals(out / "proposals.jsonl"):
        gt_boxes = [records[k].box for k in pset.region_keys if k in records]
        for box, key in zip(pset.boxes, pset.region_keys):
            if key not in records:  # distractor
                assert all(iou(box, gt) < 0.5 for gt in gt_boxes)


def test_caption_vocab_covers_queries(tmp_path):
    out = tmp_path / "data"
    generate_dataset(out, seed=7, n_images=16)
    captions = load_captions(out / "captions.jsonl")
    vocab = build_vocab(c for rec in captions for c in rec.captions)
    for rec in load_annotations(out / "annotations.jsonl"):
        for desc in rec.descriptions:
            assert UNK_ID not in encode(vocab, desc)


def test_image_count_beyond_the_bound_refused_before_writing(tmp_path):
    out = tmp_path / "data"
    with pytest.raises(InputError, match=f"images must be from 1 to {MAX_IMAGES}, got "
                                         f"{MAX_IMAGES + 1}"):
        generate_dataset(out, seed=0, n_images=MAX_IMAGES + 1)
    assert not out.exists()


class TestAtomicTextFiles:
    """An ENOSPC on the n-th write of one of synth's text files keeps that
    file as it was and leaves no temp file; each other file is whole, either
    the old one or the new one."""

    IMAGES = 40  # annotations.jsonl and proposals.jsonl then span several 8 KB text chunks

    @pytest.fixture
    def disk_full(self, monkeypatch, name, writes):
        real_open = open

        def opener(file, *args, **kwargs):
            f = real_open(file, *args, **kwargs)
            temp_of_name = os.path.basename(file).startswith(f".{name}.")
            return _DiskFullAfter(f, writes) if temp_of_name else f

        monkeypatch.setattr(datastore, "open", opener, raising=False)

    @pytest.mark.parametrize("name, writes", [
        ("annotations.jsonl", 0), ("annotations.jsonl", 1), ("annotations.jsonl", 2),
        ("proposals.jsonl", 0), ("proposals.jsonl", 1), ("captions.jsonl", 0),
        ("config.json", 0)])
    def test_failed_write_keeps_old_file(self, tmp_path, request, name, writes):
        new_dir, out = tmp_path / "new", tmp_path / "out"
        generate_dataset(new_dir, seed=2, n_images=self.IMAGES)
        generate_dataset(out, seed=1, n_images=self.IMAGES)
        old = {path.name: path.read_bytes() for path in out.iterdir()}
        request.getfixturevalue("disk_full")
        with pytest.raises(OSError) as e:
            generate_dataset(out, seed=2, n_images=self.IMAGES)
        assert e.value.errno == errno.ENOSPC
        assert (out / name).read_bytes() == old[name]
        assert sorted(os.listdir(out)) == sorted(old)
        for path in out.iterdir():
            assert path.read_bytes() in (old[path.name], (new_dir / path.name).read_bytes())

    @pytest.mark.parametrize("name, writes", [("annotations.jsonl", 1), ("config.json", 0)])
    def test_failed_new_file_leaves_no_temp_file(self, tmp_path, disk_full, name, writes):
        with pytest.raises(OSError):
            generate_dataset(tmp_path, seed=2, n_images=self.IMAGES)
        assert name not in os.listdir(tmp_path)
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".")]
