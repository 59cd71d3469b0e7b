import numpy as np
import pytest

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
