"""Per-image scoring: one decoder pass over all of an image's queries and
candidates, against per-query score_candidates."""

import numpy as np
import pytest

import scrc.model
from scrc.errors import InputError, ShapeError
from scrc.model import ScoreRequest, ScrcConfig, ScrcParams, score_candidates, score_image
from scrc.nncore import make_rng

MODES = ({}, {"caption_mode": True}, {"mask_context": True}, {"mask_spatial": True})


def small_config(**kw):
    return ScrcConfig(**{"vocab_size": 9, "embed_dim": 3, "hidden_dim": 5, "feat_dim": 4, **kw})


def random_params(config, rng, dtype=np.float64):
    """Parameters with non-zero biases, which init leaves at zero."""
    params = ScrcParams.init(config, rng, radius=0.9, dtype=dtype)
    for t in (params.lstm_language.b, params.lstm_local.b, params.lstm_global.b, params.r):
        t.value[...] = rng.normal(size=t.value.shape)
    return params


def random_image(rng, config, queries, candidates):
    """Queries of distinct lengths drawn from 1-7 tokens, so that a pass pads
    and masks them, and one image's candidate rows and context."""
    lengths = rng.permutation(7)[:queries] + 1
    return ([[int(t) for t in rng.integers(3, config.vocab_size, size=n)] for n in lengths],
            rng.normal(size=(candidates, config.feat_dim)),
            rng.uniform(-1, 1, size=(candidates, config.spatial_dim)),
            rng.normal(size=config.feat_dim))


def per_query(params, config, queries, boxes, spatials, context):
    """The (Q, N) scores from one score_candidates call per query."""
    return np.array([score_candidates(params, config,
                                      [ScoreRequest(q, b, context, s)
                                       for b, s in zip(boxes, spatials)])
                     for q in queries])


@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
@pytest.mark.parametrize("queries", (1, 3, 6))
@pytest.mark.parametrize("candidates", (1, 2, 5))
def test_equals_per_query_score_candidates(mode, queries, candidates):
    config = small_config(**mode)
    rng = make_rng(41)
    for _ in range(3):
        params = random_params(config, rng)
        image = random_image(rng, config, queries, candidates)
        got = score_image(params, config, *image)
        assert got.shape == (queries, candidates) and got.dtype == np.float64
        assert np.max(np.abs(got - per_query(params, config, *image))) < 1e-12


def test_permuting_queries_permutes_rows():
    config = small_config()
    rng = make_rng(42)
    params = random_params(config, rng)
    queries, *candidates = random_image(rng, config, 6, 5)
    scores = score_image(params, config, queries, *candidates)
    perm = rng.permutation(6)
    permuted = score_image(params, config, [queries[i] for i in perm], *candidates)
    assert np.max(np.abs(permuted - scores[perm])) < 1e-12


@pytest.mark.parametrize("columns", (1, 4, 7))
@pytest.mark.parametrize("candidates", (1, 2, 5))
def test_chunked_passes_equal_one_pass(monkeypatch, columns, candidates):
    """Query chunks, and the blocks of steps within each pass, which the
    same bound sizes, give the scores of one pass of one block."""
    config = small_config()
    rng = make_rng(43)
    params = random_params(config, rng)
    image = random_image(rng, config, 6, candidates)
    whole = score_image(params, config, *image)
    monkeypatch.setattr(scrc.model, "MAX_PASS_COLUMNS", columns)
    passes = []
    decode = scrc.model._decode

    def recording_decode(params, config, queries, feats, *args):
        passes.append(len(queries))
        return decode(params, config, queries, feats, *args)

    monkeypatch.setattr(scrc.model, "_decode", recording_decode)
    assert np.max(np.abs(score_image(params, config, *image) - whole)) < 1e-12
    # each pass holds as many queries as fit the bound, and at least one
    chunk = max(1, columns // candidates)
    assert passes == [min(chunk, 6 - lo) for lo in range(0, 6, chunk)]


@pytest.mark.parametrize("candidates", (1, 2, 5))
def test_one_query_equals_score_candidates_bitwise_in_float32(candidates):
    config = small_config()
    rng = make_rng(44)
    params = random_params(config, rng, dtype=np.float32)
    for queries in ([[3, 4, 5, 6]], [[7]]):
        _, boxes, spatials, context = random_image(rng, config, 1, candidates)
        got = score_image(params, config, queries, boxes, spatials, context)
        assert got.tolist() == per_query(params, config, queries, boxes, spatials,
                                         context).tolist()


def test_bad_inputs_rejected():
    config = small_config()
    params = ScrcParams(config)
    queries, boxes, spatials, context = random_image(make_rng(45), config, 3, 2)
    with pytest.raises(InputError, match="empty query"):
        score_image(params, config, [queries[0], [], queries[2]], boxes, spatials, context)
    for args in (([], boxes, spatials), (queries, boxes[:0], spatials[:0])):
        with pytest.raises(InputError, match="at least one query and one candidate"):
            score_image(params, config, *args, context)
    with pytest.raises(ShapeError, match=r"x_spatials?: expected shape \(2, 8\)"):
        score_image(params, config, queries, boxes, spatials[:, :5], context)
