"""The batched decoder core against step-by-step oracles, and the fused
LSTM storage behind the per-gate tensors."""

from collections import Counter

import numpy as np
import pytest

import scrc.model
from scrc.datastore import load_checkpoint, save_checkpoint
from scrc.errors import InputError, ShapeError
from scrc.model import (MAX_PASS_COLUMNS, ROW_BLOCK, ScoreRequest, ScrcConfig, ScrcParams,
                        forward_batch, generate_description, initial_state, prepare_features,
                        score_candidates, sequence_log_prob, step_logits)
from scrc.nncore import SgdOptimizer, log_softmax, make_rng
from scrc.textproc import BOS_ID, EOS_ID, build_vocab

MODES = ({}, {"caption_mode": True}, {"mask_context": True}, {"mask_spatial": True})


def small_config(**kw):
    return ScrcConfig(**{"vocab_size": 7, "embed_dim": 3, "hidden_dim": 5, "feat_dim": 4, **kw})


def walk_score(params, config, req):
    """Score one request by stepping the model token by token."""
    feats = prepare_features(config, req.x_box, req.x_context, req.x_spatial, dtype=params.dtype)
    state = initial_state(config, params.dtype)
    total = 0.0
    query = list(req.query)
    for w_in, w_tgt in zip([BOS_ID] + query, query + [EOS_ID]):
        logits, state = step_logits(params, config, params.E.value[:, w_in].copy(), state, feats)
        total += float(log_softmax(logits)[w_tgt])
    return total


def random_params(config, rng, dtype=np.float64):
    """Parameters with non-zero biases, which init leaves at zero."""
    params = ScrcParams.init(config, rng, radius=0.9, dtype=dtype)
    for t in (params.lstm_language.b, params.lstm_local.b, params.lstm_global.b, params.r):
        t.value[...] = rng.normal(size=t.value.shape)
    return params


def interleaved_requests(rng, config, sizes):
    """Requests from 2 queries x 2 contexts, one group per (query, context)
    with the given sizes, in shuffled order."""
    queries = [[int(t) for t in rng.integers(3, config.vocab_size, size=n)] for n in (2, 4)]
    contexts = [rng.normal(size=config.feat_dim) for _ in range(2)]
    reqs = [ScoreRequest(queries[g // 2], rng.normal(size=config.feat_dim), contexts[g % 2],
                         rng.uniform(-1, 1, size=config.spatial_dim))
            for g, size in enumerate(sizes) for _ in range(size)]
    return [reqs[i] for i in rng.permutation(len(reqs))]


class TestScoreCandidatesEquivalence:
    @pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
    def test_groups_match_stepwise_walk(self, mode):
        config = small_config(**mode)
        rng = make_rng(31)
        for sizes in ((1, 7, 3, 5), (2, 1, 6, 4), (7, 7, 1, 1)):
            params = random_params(config, rng)
            reqs = interleaved_requests(rng, config, sizes)
            got = score_candidates(params, config, reqs)
            want = [walk_score(params, config, r) for r in reqs]
            assert np.max(np.abs(np.subtract(got, want))) < 1e-12

    def test_lone_candidate_equals_sequence_log_prob_bitwise(self):
        config = small_config()
        rng = make_rng(32)
        params = ScrcParams.init(config, rng, radius=0.9)
        reqs = interleaved_requests(rng, config, (1, 1, 1, 1))
        assert score_candidates(params, config, reqs) == [
            sequence_log_prob(params, config, r) for r in reqs]

    def test_errors_name_candidate_index(self):
        config = small_config()
        rng = make_rng(33)
        params = ScrcParams.init(config, rng)
        reqs = interleaved_requests(rng, config, (2, 3, 1, 2))
        bad_query = list(reqs)
        bad_query[5] = ScoreRequest([], reqs[5].x_box, reqs[5].x_context, reqs[5].x_spatial)
        with pytest.raises(InputError, match="candidate 5"):
            score_candidates(params, config, bad_query)
        bad_shape = list(reqs)
        bad_shape[3] = ScoreRequest(reqs[3].query, np.zeros(9), reqs[3].x_context,
                                    reqs[3].x_spatial)
        with pytest.raises(ShapeError, match="candidate 3"):
            score_candidates(params, config, bad_shape)


def random_rows(rng, config, count):
    """count requests of 1-7 tokens each, so that a pass pads and masks them."""
    return [ScoreRequest([int(t) for t in rng.integers(3, config.vocab_size,
                                                       size=rng.integers(1, 8))],
                         rng.normal(size=config.feat_dim), rng.normal(size=config.feat_dim),
                         rng.uniform(-1, 1, size=config.spatial_dim))
            for _ in range(count)]


@pytest.mark.parametrize("count", (3, ROW_BLOCK, ROW_BLOCK + 5))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
@pytest.mark.parametrize("columns", (1, 4, 7, 2 * ROW_BLOCK + 3))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_step_blocks_equal_one_block_on_rows(monkeypatch, columns, dtype, mode, count):
    """A pass of rows split into blocks of steps, as MAX_PASS_COLUMNS bounds
    them, gives the unblocked trace bit for bit: every step's probs, every
    unit's gates and states, and the log-probs. With one column, every
    block is one step, as in beam search. (Score groups: see
    test_score_image.py::test_chunked_passes_equal_one_pass.)"""
    config = small_config(**mode)
    rng = make_rng(47)
    params = random_params(config, rng, dtype)
    requests = random_rows(rng, config, count)
    whole = forward_batch(params, config, requests)
    monkeypatch.setattr(scrc.model, "MAX_PASS_COLUMNS", columns)
    blocked = forward_batch(params, config, requests)
    for name in ("log_probs", "probs"):
        assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()
    for unit, unit_whole in zip(blocked.units, whole.units):
        assert (unit is None) == (unit_whole is None)
        if unit is not None:
            assert unit.counts == unit_whole.counts
            for name in ("gates", "h", "c"):
                assert getattr(unit, name).tobytes() == getattr(unit_whole, name).tobytes()


@pytest.mark.parametrize("candidates", (1, 5, 40))
def test_lstm_steps_do_not_grow_with_candidates(monkeypatch, candidates):
    """Scoring a T-token query runs each unit's step T + 1 times, whatever
    the candidate count, and every step goes through lstm_step, which the
    benchmark's tracer counts per unit."""
    config = small_config()
    rng = make_rng(48)
    params = ScrcParams.init(config, rng)
    calls = Counter()
    step = scrc.model.lstm_step

    def counting_step(unit, *args):
        calls[unit.W_x.name.split(".")[0]] += 1
        return step(unit, *args)

    monkeypatch.setattr(scrc.model, "lstm_step", counting_step)
    query = [3, 4, 5, 6]
    context = rng.normal(size=config.feat_dim)
    score_candidates(params, config, [ScoreRequest(query, rng.normal(size=config.feat_dim),
                                                   context, rng.uniform(-1, 1, size=8))
                                      for _ in range(candidates)])
    assert calls == {"lstm_language": 5, "lstm_local": 5, "lstm_global": 5}


def reference_beam_search(params, config, x_box, x_ctx, x_sp, beam_width, max_len):
    """Beam search that enumerates and sorts every (beam, token) extension,
    stepping each beam on its own."""
    feats = prepare_features(config, x_box, x_ctx, x_sp, dtype=params.dtype)
    logits, state = step_logits(params, config, params.E.value[:, BOS_ID].copy(),
                                initial_state(config, params.dtype), feats)
    live = [((), 0.0, state, log_softmax(logits))]
    finished = []
    while live:
        candidates = []
        for toks, lp, st, dist in live:
            for tid in range(config.vocab_size):
                if tid == BOS_ID or (len(toks) == max_len and tid != EOS_ID):
                    continue
                ext = toks if tid == EOS_ID else toks + (tid,)
                candidates.append((lp + float(dist[tid]), ext, st, tid))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for lp, toks, st, tid in candidates[:beam_width]:
            if tid == EOS_ID:
                finished.append((lp, toks))
            else:
                logits, new_state = step_logits(params, config,
                                                params.E.value[:, tid].copy(), st, feats)
                live.append((toks, lp, new_state, log_softmax(logits)))
    lp, toks = min(finished, key=lambda f: (-f[0], f[1]))
    return list(toks), lp


class TestBatchedBeamSearch:
    @pytest.mark.parametrize("beam_width", (1, 3, 125))
    def test_matches_reference(self, beam_width):
        config = small_config(vocab_size=5)
        rng = make_rng(34)
        for _ in range(15):
            params = random_params(config, rng)
            args = (rng.normal(size=4), rng.normal(size=4), rng.uniform(-1, 1, size=8))
            want_toks, want_lp = reference_beam_search(params, config, *args, beam_width, 3)
            got_toks, got_lp = generate_description(params, config, *args, beam_width, 3)
            assert got_toks == want_toks
            assert abs(got_lp - want_lp) < 1e-12

    @pytest.mark.parametrize("beam_width", (1, 3, 125))
    def test_all_ties_break_lexicographically(self, beam_width):
        config = small_config(vocab_size=5)
        params = ScrcParams(config, dtype=np.float64)
        args = (np.zeros(4), np.zeros(4), np.zeros(8))
        assert generate_description(params, config, *args, beam_width, 4) == \
            reference_beam_search(params, config, *args, beam_width, 4)


class TestFusedStorage:
    def test_gate_tensors_are_contiguous_views(self, tmp_path):
        config = small_config()
        params = ScrcParams.init(config, make_rng(35))
        vocab = build_vocab(["a b c d"])
        save_checkpoint(params, config, vocab, tmp_path / "m.ckpt")
        loaded, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        for p in (params, loaded):
            for unit in (p.lstm_language, p.lstm_local, p.lstm_global):
                fused = {"W_x": unit.W_x, "W_h": unit.W_h, "b_": unit.b}
                for t in unit.tensors():
                    leaf = t.name.rsplit(".", 1)[1]
                    whole = fused[leaf[:3] if leaf.startswith("W") else leaf[:2]]
                    for view, base in ((t.value, whole.value), (t.grad, whole.grad)):
                        assert view.flags.c_contiguous
                        assert np.shares_memory(view, base)

    def test_fused_tensors_hold_every_named_tensor(self):
        params = ScrcParams.init(small_config(), make_rng(38))
        fused = params.fused_tensors()
        assert len(fused) == 13
        assert sum(t.value.size for t in fused) == sum(t.value.size for t in params.tensors())
        for t in params.tensors():
            owners = [f for f in fused if np.shares_memory(t.value, f.value)
                      and np.shares_memory(t.grad, f.grad)]
            assert len(owners) == 1, t.name

    def test_write_through_gate_view_changes_score(self):
        config = small_config()
        rng = make_rng(36)
        params = ScrcParams.init(config, rng, dtype=np.float64)
        req = interleaved_requests(rng, config, (1, 0, 0, 0))[0]
        before = sequence_log_prob(params, config, req)
        params.lstm_local.W_hg.value.reshape(-1)[3] += 0.5
        assert sequence_log_prob(params, config, req) != before

    def test_optimizer_step_updates_fused_array(self):
        config = small_config()
        params = ScrcParams.init(config, make_rng(37), dtype=np.float64)
        unit = params.lstm_global
        before = unit.W_x.value.copy()
        unit.W_xo.grad[...] = 1.0
        SgdOptimizer(params.tensors(), lr=0.1, momentum=0.0).step()
        H = config.hidden_dim
        assert np.array_equal(unit.W_x.value[2 * H:3 * H], before[2 * H:3 * H] - 0.1)
        assert np.array_equal(unit.W_x.value[:2 * H], before[:2 * H])
        assert not np.any(unit.W_x.grad)


def decoder_products(V, E, H, F):
    """(name, rows, columns, the column slice multiplied) of each weight
    that the decoder multiplies by a matrix of columns, at vocabulary V,
    embedding E, hidden H and feature F."""
    local, glob = H + F + 8, H + F
    return [("W_h", 4 * H, H, slice(None)),
            ("language W_x", 4 * H, E, slice(None)),
            ("local W_x state part", 4 * H, local, slice(0, H)),
            ("local W_x fixed part", 4 * H, local, slice(H, None)),
            ("global W_x state part", 4 * H, glob, slice(0, H)),
            ("global W_x fixed part", 4 * H, glob, slice(H, None)),
            ("W_local / W_global", V, H, slice(None))]


# (V, E, H, F): the test models, the synth config, finetune_mid and paper dims
DECODER_DIMS = ((9, 3, 5, 4), (60, 16, 32, 4), (1000, 256, 256, 256), (2000, 1000, 1000, 1000))


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("dims", DECODER_DIMS, ids=lambda d: "x".join(map(str, d)))
def test_matrix_product_column_is_independent_of_width_and_position(dims, dtype):
    """forward_batch runs each row as a column of one matrix product per
    weight, in passes of whole ROW_BLOCKs of columns. A row equals
    sequence_log_prob's bits, whatever its batch, only if a column of each
    product has the same bits at each such width and in each position. Every
    column of W @ X here is the same vector x, so one product checks all
    positions."""
    rng = make_rng(39)
    widths = [ROW_BLOCK * k for k in (1, 2, 4)] + [MAX_PASS_COLUMNS]
    for name, rows, cols, part in decoder_products(*dims):
        W = rng.uniform(-0.1, 0.1, size=(rows, cols)).astype(dtype)[:, part]
        x = rng.uniform(-1, 1, size=W.shape[1]).astype(dtype)
        want = (W @ np.repeat(x[:, None], ROW_BLOCK, axis=1))[:, :1]
        for width in widths:
            got = W @ np.repeat(x[:, None], width, axis=1)
            differ = np.flatnonzero(np.any(got != want, axis=0))
            assert differ.size == 0, (
                f"{name} {W.shape} in {np.dtype(dtype).name}: columns {differ[:8].tolist()} "
                f"of a {width}-column product differ in their bits from column 0 of a "
                f"{ROW_BLOCK}-column one. This BLAS rounds a matrix-product column by the "
                f"product's width or the column's position, so a training row's log-prob "
                f"depends on its batch and forward_batch no longer equals sequence_log_prob "
                f"bit for bit")
