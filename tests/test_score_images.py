"""Passes across images: score_images against per-image score_image, the
pass sizes, and the step count of an eval command."""

import contextlib
import io
import json
from collections import Counter

import numpy as np
import pytest

import scrc.model
from scrc import cli, datastore, synth
from scrc.model import ScrcConfig, ScrcParams, score_image, score_images
from scrc.nncore import make_rng
from scrc.textproc import build_vocab, encode

from test_score_image import MODES, random_image, random_params, small_config

# (queries, candidates) of each image: every pairing of Q in {1, 3, 6} and N in
# {1, 2, 5}, in runs of equal N that passes share and with N changing between them
SHAPES = [(1, 2), (3, 2), (6, 2), (3, 5), (1, 5), (6, 1), (3, 1), (1, 1), (6, 5), (1, 2),
          (3, 1), (6, 2), (1, 5)]


def random_images(rng, config, shapes=SHAPES):
    return [random_image(rng, config, q, n) for q, n in shapes]


def expected_passes(shapes, columns):
    """(N, query count) of each pass: consecutive queries of images with the
    same N, at most columns // N of them and at least one; and the indices of
    the images that each pass holds queries of."""
    passes, members = [], []
    for k, (queries, count) in enumerate(shapes):
        for _ in range(queries):
            if not (passes and passes[-1][0] == count
                    and passes[-1][1] < max(1, columns // count)):
                passes.append([count, 0])
                members.append(set())
            passes[-1][1] += 1
            members[-1].add(k)
    return [tuple(p) for p in passes], members


@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_equals_per_image_score_image(mode):
    config = small_config(**mode)
    rng = make_rng(51)
    for _ in range(3):
        params = random_params(config, rng)
        images = random_images(rng, config)
        got = list(score_images(params, config, iter(images)))
        assert [g.shape for g in got] == list(SHAPES)
        for scores, image in zip(got, images):
            assert scores.dtype == np.float64
            assert np.max(np.abs(scores - score_image(params, config, *image))) < 1e-12


@pytest.mark.parametrize("columns", (1, 4, 12, 1024))
def test_pass_sizes(monkeypatch, columns):
    """Each _decode call is one pass, and images are pulled only as the
    passes need them, so memory is bounded by a pass and its images."""
    config = small_config()
    rng = make_rng(52)
    params = random_params(config, rng)
    images = random_images(rng, config)
    whole = list(score_images(params, config, images))
    monkeypatch.setattr(scrc.model, "MAX_PASS_COLUMNS", columns)
    passes = []
    decode = scrc.model._decode

    def recording_decode(params, config, queries, feats, *args):
        passes.append((len(np.atleast_2d(feats[0].x_box)), len(queries)))
        return decode(params, config, queries, feats, *args)

    monkeypatch.setattr(scrc.model, "_decode", recording_decode)
    pulled = []

    def source():
        for k, image in enumerate(images):
            pulled.append(k)
            yield image

    want, members = expected_passes(SHAPES, columns)
    for k, scores in enumerate(score_images(params, config, source())):
        assert np.max(np.abs(scores - whole[k])) < 1e-12
        # image k's last pass runs once it is full, or once the next image
        # brings another N, or at the end: so no image beyond is pulled
        last = max(p for p, held in enumerate(members) if k in held)
        assert len(pulled) <= max(members[last]) + 2
    assert passes == want


def eval_dataset(tmp_path, images):
    """A synthetic dataset of equal-N images whose descriptions all have T
    tokens, a checkpoint for it, and T."""
    synth.generate_dataset(tmp_path, 7, n_images=images)
    cfg = json.loads((tmp_path / "config.json").read_text())
    captions = datastore.load_captions(tmp_path / "captions.jsonl")
    vocab = build_vocab(c for rec in captions for c in rec.captions)
    config = ScrcConfig(vocab_size=len(vocab), embed_dim=cfg["embed_dim"],
                        hidden_dim=cfg["hidden_dim"], feat_dim=cfg["feat_dim"])
    datastore.save_checkpoint(ScrcParams.init(config, make_rng(7)), config, vocab,
                              tmp_path / "model.ckpt")
    records = datastore.load_annotations(tmp_path / "annotations.jsonl")
    (steps,) = {len(encode(vocab, d)) for rec in records for d in rec.descriptions}
    return len(records) // images, steps


@pytest.mark.parametrize("scenario,candidates", (("proposals", 8), ("gt", 4)))
@pytest.mark.parametrize("columns", (64, 1024))
def test_eval_steps_grow_with_passes_not_images(tmp_path, monkeypatch, scenario, candidates,
                                                columns):
    """An eval over G images of N candidates and Q queries of T tokens each
    runs each unit's step (T + 1) times per pass, and a pass holds
    columns // N queries from as many images as they come from."""
    images = 5
    queries, tokens = eval_dataset(tmp_path, images)
    monkeypatch.setattr(scrc.model, "MAX_PASS_COLUMNS", columns)
    calls = Counter()
    step = scrc.model.lstm_step

    def counting_step(unit, *args):
        calls[unit.W_x.name.split(".")[0]] += 1
        return step(unit, *args)

    monkeypatch.setattr(scrc.model, "lstm_step", counting_step)
    argv = ["eval", "--scenario", scenario, "--model", str(tmp_path / "model.ckpt"),
            "--annotations", str(tmp_path / "annotations.jsonl"),
            "--proposals", str(tmp_path / "proposals.jsonl"),
            "--region-features", str(tmp_path / "region_features.bin"),
            "--context-features", str(tmp_path / "context_features.bin")]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0
    assert json.loads(out.getvalue())["query_count"] == images * queries
    passes = -(-images * queries // (columns // candidates))
    assert passes < images
    assert calls == {unit: (tokens + 1) * passes
                     for unit in ("lstm_language", "lstm_local", "lstm_global")}
