import math

import numpy as np
import pytest

from scrc.errors import ConfigError, ContractError, InputError, ShapeError
from scrc.model import (MAX_GENERATE_LEN, MAX_PASS_COLUMNS, ScoreRequest, ScrcConfig,
                        ScrcParams, backward, forward_batch, forward_trace, generate_description,
                        initial_state, prepare_features, score_candidates, sequence_log_prob,
                        step_logits)
from scrc.nncore import log_softmax, make_rng
from scrc.textproc import BOS_ID, EOS_ID

from oracles import softmax


def tiny_config(**kw):
    base = dict(vocab_size=6, embed_dim=3, hidden_dim=4, feat_dim=3)
    base.update(kw)
    return ScrcConfig(**base)


def random_request(rng, config, qlen=3):
    query = [int(t) for t in rng.integers(3, config.vocab_size, size=qlen)]
    return ScoreRequest(query, rng.normal(size=config.feat_dim),
                        rng.normal(size=config.feat_dim),
                        rng.uniform(-1, 1, size=config.spatial_dim))


def manual_walk(params, config, feats, token_path):
    """Step-by-step scoring oracle: feed <bos> then each token, collecting
    the per-step next-token log distribution."""
    state = initial_state(config, params.dtype)
    dists = []
    for tid in [BOS_ID] + list(token_path):
        logits, state = step_logits(params, config, params.E.value[:, tid].copy(),
                                    state, feats)
        dists.append(log_softmax(logits))
    return dists


class TestStepLogits:
    def test_zero_params_uniform(self):
        config = tiny_config()
        params = ScrcParams(config, dtype=np.float64)
        feats = prepare_features(config, np.ones(3), np.ones(3), np.ones(8),
                                 dtype=np.float64)
        logits, _ = step_logits(params, config, np.zeros(3), initial_state(config, np.float64),
                                feats)
        assert np.array_equal(logits, np.zeros(6))
        assert np.allclose(softmax(logits), 1.0 / 6.0)

    def test_caption_mode_equals_zero_w_local(self):
        config = tiny_config()
        rng = make_rng(3)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        params.W_local.value[...] = 0.0
        cap_config = tiny_config(caption_mode=True)
        req = random_request(rng, config)
        full = sequence_log_prob(params, config, req)
        cap = sequence_log_prob(params, cap_config, req)
        assert abs(full - cap) < 1e-10

    def test_mask_context_ignores_context(self):
        config = tiny_config(mask_context=True)
        rng = make_rng(4)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        req_a = random_request(rng, config)
        req_b = ScoreRequest(req_a.query, req_a.x_box, rng.normal(size=3), req_a.x_spatial)
        assert sequence_log_prob(params, config, req_a) == sequence_log_prob(params, config,
                                                                             req_b)

    def test_mask_spatial_ignores_spatial(self):
        config = tiny_config(mask_spatial=True)
        rng = make_rng(5)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        req_a = random_request(rng, config)
        req_b = ScoreRequest(req_a.query, req_a.x_box, req_a.x_context,
                             rng.uniform(-1, 1, size=8))
        assert sequence_log_prob(params, config, req_a) == sequence_log_prob(params, config,
                                                                             req_b)

    def test_distribution_sums_to_one(self):
        config = tiny_config()
        rng = make_rng(6)
        params = ScrcParams.init(config, rng, radius=1.0, dtype=np.float64)
        feats = prepare_features(config, rng.normal(size=3), rng.normal(size=3),
                                 rng.uniform(-1, 1, size=8), dtype=np.float64)
        state = initial_state(config, np.float64)
        for tid in (BOS_ID, 3, 4, 5):
            logits, state = step_logits(params, config, params.E.value[:, tid].copy(),
                                        state, feats)
            assert abs(float(softmax(logits).sum()) - 1.0) < 1e-6

    def test_feature_shape_errors(self):
        config = tiny_config()
        params = ScrcParams(config)
        with pytest.raises(ShapeError):
            sequence_log_prob(params, config,
                              ScoreRequest([3], np.zeros(5), np.zeros(3), np.zeros(8)))


class TestSequenceLogProb:
    def test_zero_params_single_token(self):
        config = tiny_config()
        params = ScrcParams(config, dtype=np.float64)
        req = ScoreRequest([3], np.zeros(3), np.zeros(3), np.zeros(8))
        expected = 2.0 * math.log(1.0 / 6.0)  # word term plus <eos> term
        assert abs(sequence_log_prob(params, config, req) - expected) < 1e-12

    def test_matches_stepwise_product(self):
        config = tiny_config()
        rng = make_rng(7)
        for _ in range(20):
            params = ScrcParams.init(config, rng, radius=0.8, dtype=np.float64)
            req = random_request(rng, config, qlen=int(rng.integers(1, 5)))
            feats = prepare_features(config, req.x_box, req.x_context, req.x_spatial,
                                     dtype=np.float64)
            dists = manual_walk(params, config, feats, req.query)
            targets = list(req.query) + [EOS_ID]
            product = 1.0
            for dist, tgt in zip(dists, targets):
                product *= math.exp(float(dist[tgt]))
            assert abs(math.exp(sequence_log_prob(params, config, req)) - product) < 1e-10

    def test_concatenation_consistency(self):
        config = tiny_config()
        rng = make_rng(8)
        params = ScrcParams.init(config, rng, radius=0.8, dtype=np.float64)
        req = random_request(rng, config, qlen=2)
        w1, w2 = req.query
        feats = prepare_features(config, req.x_box, req.x_context, req.x_spatial,
                                 dtype=np.float64)
        dists = manual_walk(params, config, feats, [w1, w2])
        manual = float(dists[0][w1]) + float(dists[1][w2]) + float(dists[2][EOS_ID])
        assert abs(sequence_log_prob(params, config, req) - manual) < 1e-10

    def test_empty_query_rejected(self):
        config = tiny_config()
        params = ScrcParams(config)
        with pytest.raises(InputError):
            sequence_log_prob(params, config, ScoreRequest([], np.zeros(3), np.zeros(3),
                                                           np.zeros(8)))

    def test_out_of_range_token_rejected(self):
        config = tiny_config()
        params = ScrcParams(config)
        with pytest.raises(InputError):
            sequence_log_prob(params, config, ScoreRequest([17], np.zeros(3), np.zeros(3),
                                                           np.zeros(8)))

    def test_deterministic(self):
        config = tiny_config()
        rng = make_rng(9)
        params = ScrcParams.init(config, rng, radius=0.5)
        req = random_request(rng, config)
        assert sequence_log_prob(params, config, req) == sequence_log_prob(params, config,
                                                                           req)


class TestScoreCandidates:
    def test_permutation_equivariance(self):
        config = tiny_config()
        rng = make_rng(10)
        params = ScrcParams.init(config, rng, radius=0.5)
        reqs = [random_request(rng, config) for _ in range(5)]
        scores = score_candidates(params, config, reqs)
        perm = [3, 0, 4, 1, 2]
        permuted = score_candidates(params, config, [reqs[i] for i in perm])
        assert permuted == [scores[i] for i in perm]

    def test_duplicates_identical(self):
        config = tiny_config()
        rng = make_rng(11)
        params = ScrcParams.init(config, rng, radius=0.5)
        req = random_request(rng, config)
        scores = score_candidates(params, config, [req, req])
        assert scores[0] == scores[1]

    def test_single_equals_sequence_log_prob(self):
        config = tiny_config()
        rng = make_rng(12)
        params = ScrcParams.init(config, rng, radius=0.5)
        req = random_request(rng, config)
        assert score_candidates(params, config, [req]) == [
            sequence_log_prob(params, config, req)]

    def test_error_names_candidate_index(self):
        config = tiny_config()
        params = ScrcParams(config)
        good = ScoreRequest([3], np.zeros(3), np.zeros(3), np.zeros(8))
        bad = ScoreRequest([], np.zeros(3), np.zeros(3), np.zeros(8))
        with pytest.raises(InputError, match="candidate 1"):
            score_candidates(params, config, [good, bad])

    def test_empty_list_rejected(self):
        with pytest.raises(InputError):
            score_candidates(ScrcParams(tiny_config()), tiny_config(), [])


def fd_max_rel_error(params, config, req, step=1e-3):
    """Worst relative error of the analytic gradient against the five-point
    stencil (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h. Its truncation
    error is O(h^4), so h can be large enough that rounding in the loss stays
    far below the 1e-4 bound even for entries with |grad| near 1e-8."""
    def loss_at(fv, i, x):
        fv[i] = x
        return -sequence_log_prob(params, config, req)

    params.zero_grads()
    trace = forward_trace(params, config, req)
    backward(params, config, trace, trace.targets)
    worst = 0.0
    for t in params.tensors():
        fv, fg = t.value.reshape(-1), t.grad.reshape(-1)
        for i in range(fv.size):
            orig = fv[i]
            near = loss_at(fv, i, orig + step) - loss_at(fv, i, orig - step)
            far = loss_at(fv, i, orig + 2 * step) - loss_at(fv, i, orig - 2 * step)
            fv[i] = orig
            fd = (8 * near - far) / (12 * step)
            worst = max(worst, abs(fd - fg[i]) / max(abs(fd), abs(fg[i]), 1e-8))
    return worst


class TestBackward:
    def test_finite_differences_all_modes(self):
        rng = make_rng(2)
        for kw in ({}, {"caption_mode": True}, {"mask_context": True},
                   {"mask_spatial": True}):
            config = tiny_config(**kw)
            params = ScrcParams.init(config, rng, radius=0.9, dtype=np.float64)
            req = random_request(rng, config)
            assert fd_max_rel_error(params, config, req) < 1e-4, kw

    def test_caption_mode_local_branch_gets_no_gradient(self):
        config = tiny_config(caption_mode=True)
        rng = make_rng(14)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        req = random_request(rng, config)
        params.zero_grads()
        trace = forward_trace(params, config, req)
        backward(params, config, trace, trace.targets)
        for t in params.lstm_local.tensors() + [params.W_local]:
            assert np.array_equal(t.grad, np.zeros_like(t.grad))
        assert np.any(params.W_global.grad != 0)

    def test_mask_context_global_branch_gets_no_gradient(self):
        config = tiny_config(mask_context=True)
        rng = make_rng(15)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        req = random_request(rng, config)
        params.zero_grads()
        trace = forward_trace(params, config, req)
        backward(params, config, trace, trace.targets)
        for t in params.lstm_global.tensors() + [params.W_global]:
            assert np.array_equal(t.grad, np.zeros_like(t.grad))

    def test_mask_spatial_zeroes_spatial_columns(self):
        config = tiny_config(mask_spatial=True)
        rng = make_rng(16)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        req = random_request(rng, config)
        params.zero_grads()
        trace = forward_trace(params, config, req)
        backward(params, config, trace, trace.targets)
        lo = config.hidden_dim + config.feat_dim
        for name in ("W_xi", "W_xf", "W_xo", "W_xg"):
            t = getattr(params.lstm_local, name)
            assert np.array_equal(t.grad[:, lo:], np.zeros_like(t.grad[:, lo:]))
            assert np.any(t.grad[:, :lo] != 0)

    def test_gradient_scale(self):
        config = tiny_config()
        rng = make_rng(17)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        req = random_request(rng, config)
        params.zero_grads()
        trace = forward_trace(params, config, req)
        backward(params, config, trace, trace.targets)
        full = params.E.grad.copy()
        params.zero_grads()
        trace = forward_trace(params, config, req)  # backward spent the first trace
        backward(params, config, trace, trace.targets, scale=0.25)
        assert np.allclose(params.E.grad, 0.25 * full, atol=1e-15)

    def test_wrong_targets_rejected(self):
        config = tiny_config()
        rng = make_rng(18)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        req = random_request(rng, config)
        trace = forward_trace(params, config, req)
        with pytest.raises(ContractError):
            backward(params, config, trace, [3, 3, 3])

    def test_traceless_forward_rejected(self):
        config = tiny_config()
        params = ScrcParams(config, dtype=np.float64)
        req = ScoreRequest([3], np.zeros(3), np.zeros(3), np.zeros(8))
        trace = forward_batch(params, config, [req], keep_trace=False)
        with pytest.raises(ContractError):
            backward(params, config, trace, trace.targets)

    def test_spent_trace_rejected(self):
        config = tiny_config()
        rng = make_rng(19)
        params = ScrcParams.init(config, rng, radius=0.6, dtype=np.float64)
        trace = forward_trace(params, config, random_request(rng, config))
        backward(params, config, trace, trace.targets)
        assert trace.probs is None
        with pytest.raises(ContractError, match="spent"):
            backward(params, config, trace, trace.targets)


def enumerate_argmax(params, config, feats, max_len):
    """Exhaustive oracle over all content sequences up to max_len, scored by
    walking the model step by step and closing with the <eos> term."""
    content = [t for t in range(config.vocab_size) if t not in (BOS_ID, EOS_ID)]

    def seq_score(seq):
        dists = manual_walk(params, config, feats, seq)
        total = 0.0
        for dist, tgt in zip(dists, list(seq) + [EOS_ID]):
            total += float(dist[tgt])
        return total

    best = None
    stack = [()]
    while stack:
        seq = stack.pop()
        cand = (seq_score(seq), seq)
        if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
            best = cand
        if len(seq) < max_len:
            stack.extend(seq + (t,) for t in content)
    return list(best[1]), best[0]


class TestGenerate:
    def test_beam_one_equals_greedy(self):
        config = tiny_config(vocab_size=5)
        rng = make_rng(19)
        for _ in range(20):
            params = ScrcParams.init(config, rng, radius=1.2, dtype=np.float64)
            x_box = rng.normal(size=3)
            x_ctx = rng.normal(size=3)
            x_sp = rng.uniform(-1, 1, size=8)
            feats = prepare_features(config, x_box, x_ctx, x_sp, dtype=np.float64)
            # greedy oracle: follow the argmax token (ties: <eos> first, then
            # lowest id), stopping at <eos> or max_len with a forced <eos>
            state = initial_state(config, np.float64)
            logits, state = step_logits(params, config, params.E.value[:, BOS_ID].copy(),
                                        state, feats)
            dist = log_softmax(logits)
            tokens, total = [], 0.0
            for _ in range(4):
                order = sorted((t for t in range(5) if t != BOS_ID),
                               key=lambda t: (-float(dist[t]), () if t == EOS_ID else (t,)))
                choice = order[0]
                total += float(dist[choice])
                if choice == EOS_ID:
                    break
                tokens.append(choice)
                logits, state = step_logits(params, config,
                                            params.E.value[:, choice].copy(), state, feats)
                dist = log_softmax(logits)
            else:
                total += float(dist[EOS_ID])
            got_tokens, got_lp = generate_description(params, config, x_box, x_ctx, x_sp,
                                                      beam_width=1, max_len=4)
            assert got_tokens == tokens
            assert abs(got_lp - total) < 1e-12

    def test_wide_beam_equals_exhaustive_enumeration(self):
        config = tiny_config(vocab_size=5)
        rng = make_rng(20)
        for _ in range(10):
            params = ScrcParams.init(config, rng, radius=1.5, dtype=np.float64)
            x_box = rng.normal(size=3)
            x_ctx = rng.normal(size=3)
            x_sp = rng.uniform(-1, 1, size=8)
            feats = prepare_features(config, x_box, x_ctx, x_sp, dtype=np.float64)
            want_tokens, want_lp = enumerate_argmax(params, config, feats, max_len=3)
            got_tokens, got_lp = generate_description(params, config, x_box, x_ctx, x_sp,
                                                      beam_width=125, max_len=3)
            assert got_tokens == want_tokens
            assert abs(got_lp - want_lp) < 1e-10

    def test_zero_params_returns_empty(self):
        config = tiny_config(vocab_size=5)
        params = ScrcParams(config, dtype=np.float64)
        tokens, lp = generate_description(params, config, np.zeros(3), np.zeros(3),
                                          np.zeros(8), beam_width=3, max_len=4)
        assert tokens == []
        assert abs(lp - math.log(1.0 / 5.0)) < 1e-12

    def test_score_matches_sequence_log_prob(self):
        config = tiny_config(vocab_size=5)
        rng = make_rng(21)
        params = ScrcParams.init(config, rng, radius=1.0, dtype=np.float64)
        x_box = rng.normal(size=3)
        x_ctx = rng.normal(size=3)
        x_sp = rng.uniform(-1, 1, size=8)
        tokens, lp = generate_description(params, config, x_box, x_ctx, x_sp,
                                          beam_width=8, max_len=4)
        if tokens:
            ref = sequence_log_prob(params, config, ScoreRequest(tokens, x_box, x_ctx, x_sp))
            assert abs(lp - ref) < 1e-12

    def test_never_emits_bos(self):
        config = tiny_config(vocab_size=5)
        rng = make_rng(22)
        for seed in range(10):
            params = ScrcParams.init(config, make_rng(seed), radius=2.0, dtype=np.float64)
            tokens, _ = generate_description(params, config, rng.normal(size=3),
                                             rng.normal(size=3), rng.uniform(-1, 1, 8),
                                             beam_width=4, max_len=5)
            assert BOS_ID not in tokens
            assert len(tokens) <= 5

    def test_bad_args_rejected(self):
        config = tiny_config()
        params = ScrcParams(config)
        with pytest.raises(InputError):
            generate_description(params, config, np.zeros(3), np.zeros(3), np.zeros(8),
                                 beam_width=0, max_len=3)
        with pytest.raises(InputError, match=f"beam_width must be from 1 to {MAX_PASS_COLUMNS}, "
                                             f"got {MAX_PASS_COLUMNS + 1}"):
            generate_description(params, config, np.zeros(3), np.zeros(3), np.zeros(8),
                                 beam_width=MAX_PASS_COLUMNS + 1, max_len=3)
        with pytest.raises(InputError):
            generate_description(params, config, np.zeros(3), np.zeros(3), np.zeros(8),
                                 beam_width=2, max_len=0)

    def test_max_len_bounded(self):
        config = tiny_config()
        params = ScrcParams(config)
        args = (params, config, np.zeros(3), np.zeros(3), np.zeros(8), 2)
        with pytest.raises(InputError, match=f"max_len must be from 1 to {MAX_GENERATE_LEN}, "
                                             f"got {MAX_GENERATE_LEN + 1}"):
            generate_description(*args, max_len=MAX_GENERATE_LEN + 1)
        assert generate_description(*args, max_len=MAX_GENERATE_LEN)[0] == []


class TestConfig:
    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            ScrcConfig(vocab_size=0, embed_dim=2, hidden_dim=2, feat_dim=2)
        with pytest.raises(ConfigError):
            ScrcConfig(vocab_size=5, embed_dim=2, hidden_dim=2, feat_dim=2, spatial_dim=9)

    def test_caption_mode_with_mask_context_rejected(self):
        with pytest.raises(ConfigError, match="caption_mode with mask_context would read "
                                              "neither the box nor the context"):
            tiny_config(caption_mode=True, mask_context=True)

    def test_params_config_mismatch(self):
        params = ScrcParams(tiny_config())
        other = tiny_config(hidden_dim=9)
        with pytest.raises(ConfigError):
            sequence_log_prob(params, other,
                              ScoreRequest([3], np.zeros(3), np.zeros(3), np.zeros(8)))
