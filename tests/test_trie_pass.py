"""Trie-shaped decoder passes: each live (image, query prefix) steps once.

A pass's step t runs one column per depth-t node of each image's prefix
trie, times N candidates for the local unit. Scores must equal each query
scored on its own, and each unit's step must take exactly the trie's
columns. One-candidate images run as rows instead: one node per live query,
rounded up to whole ROW_BLOCKs."""

from collections import defaultdict

import numpy as np
import pytest

import scrc.model
from scrc.model import (MAX_PASS_COLUMNS, ROW_BLOCK, ScoreRequest, forward_batch, score_image,
                        score_images)
from scrc.nncore import make_rng

from test_score_image import MODES, random_params, small_config

# token ids 3-8 of small_config's vocabulary: queries of 1-7 tokens with shared and
# unshared first words, two identical queries, and queries that are prefixes of others
QUERY_SETS = (
    [[3, 4, 5], [3, 4, 5], [3, 4], [3, 6, 7, 8, 3], [5], [7, 8, 3, 4, 5, 6, 7], [3]],
    [[4, 4], [4, 4, 4, 4], [6, 5, 4], [8], [6, 5, 4, 3, 8, 8]],
    [[5, 5, 5, 5, 5, 5], [5]],
)


def images_of(rng, config, candidates):
    return [(queries, rng.normal(size=(candidates, config.feat_dim)),
             rng.uniform(-1, 1, size=(candidates, config.spatial_dim)),
             rng.normal(size=config.feat_dim))
            for queries in QUERY_SETS]


def expected_columns(candidates):
    """Each pass's columns per step, as lstm_step sees them: (language and
    global, local). A pass takes MAX_PASS_COLUMNS // N queries in order; its
    depth-t nodes are the distinct (image, first t tokens) of its queries of
    at least t tokens. With one candidate, every live query is a row of its
    own, and the rows are rounded up to whole ROW_BLOCKs."""
    queries = [(g, tuple(q)) for g, qs in enumerate(QUERY_SETS) for q in qs]
    per_pass = max(1, MAX_PASS_COLUMNS // candidates)
    columns = []
    for lo in range(0, len(queries), per_pass):
        chunk = queries[lo:lo + per_pass]
        for t in range(max(len(q) for _, q in chunk) + 1):
            live = [(g, q[:t]) for g, q in chunk if len(q) >= t]
            nodes = (len(live) + -len(live) % ROW_BLOCK if candidates == 1
                     else len(set(live)))
            columns.append((nodes, nodes * candidates))
    return columns


@pytest.mark.parametrize("dtype, tolerance", ((np.float32, 1e-5), (np.float64, 1e-12)),
                         ids=("float32", "float64"))
@pytest.mark.parametrize("candidates", (1, 8, 16, 100))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_scores_equal_each_query_alone(monkeypatch, mode, candidates, dtype, tolerance):
    config = small_config(**mode)
    rng = make_rng(61)
    params = random_params(config, rng, dtype)
    images = images_of(rng, config, candidates)
    widths = defaultdict(list)
    step = scrc.model.lstm_step

    def recording_step(unit, *args):
        state, gates = step(unit, *args)
        widths[unit.W_x.name.split(".")[0]].append(state.h.shape[1])
        return state, gates

    monkeypatch.setattr(scrc.model, "lstm_step", recording_step)
    got = list(score_images(params, config, iter(images)))
    want = expected_columns(candidates)
    assert widths["lstm_language"] == [nodes for nodes, _ in want]
    assert widths["lstm_global"] == ([] if config.mask_context else widths["lstm_language"])
    assert widths["lstm_local"] == ([] if config.caption_mode else [cols for _, cols in want])

    monkeypatch.setattr(scrc.model, "lstm_step", step)
    for scores, (queries, *candidate_inputs) in zip(got, images):
        assert scores.shape == (len(queries), candidates)
        for row, query in zip(scores, queries):
            (alone,) = score_image(params, config, [query], *candidate_inputs)
            assert np.max(np.abs(row - alone)) < tolerance
            assert np.array_equal(np.argsort(-row, kind="stable"),
                                  np.argsort(-alone, kind="stable"))
    # the first image's identical queries share every node, so they share every bit
    assert got[0][0].tobytes() == got[0][1].tobytes()


def test_rows_take_the_live_prefix_in_whole_blocks(monkeypatch):
    """A batch of rows runs longest first, so each step's live rows are a
    prefix of its columns; the step takes that prefix rounded up to whole
    ROW_BLOCKs. A batch of at most ROW_BLOCK rows runs ROW_BLOCK columns at
    every step."""
    config = small_config()
    rng = make_rng(62)
    params = random_params(config, rng, np.float32)
    widths = []
    step = scrc.model.lstm_step

    def recording_step(unit, *args):
        state, gates = step(unit, *args)
        if unit is params.lstm_local:
            widths.append(state.h.shape[1])
        return state, gates

    monkeypatch.setattr(scrc.model, "lstm_step", recording_step)
    for lengths in ((1, 7, 3, 5), tuple(range(1, 41))):
        widths.clear()
        forward_batch(params, config, [
            ScoreRequest([int(t) for t in rng.integers(3, 9, size=n)],
                         rng.normal(size=config.feat_dim), rng.normal(size=config.feat_dim),
                         rng.uniform(-1, 1, size=config.spatial_dim)) for n in lengths])
        live = [sum(n >= t for n in lengths) for t in range(max(lengths) + 1)]
        assert widths == [n + -n % ROW_BLOCK for n in live]
