"""The batched training core (forward_batch over padded rows, traced and
backpropagated over their live steps) against B = 1 passes of the same core."""

import copy

import numpy as np
import pytest

from scrc.gradcheck import (DEFAULT_CHECK_CONFIG, DEFAULT_CHECK_SEED, accumulate_gradients,
                            check_instance)
from scrc.model import (ScoreRequest, ScrcConfig, ScrcParams, backward, forward_batch,
                        forward_trace, sequence_log_prob)
from scrc import nncore
from scrc.nncore import make_rng
from scrc.textproc import EOS_ID

MODES = ({}, {"caption_mode": True}, {"mask_context": True}, {"mask_spatial": True})


def small_config(**kw):
    return ScrcConfig(**{"vocab_size": 9, "embed_dim": 3, "hidden_dim": 5, "feat_dim": 4, **kw})


def random_params(config, rng, dtype=np.float64):
    """Parameters with non-zero biases, which init leaves at zero."""
    params = ScrcParams.init(config, rng, radius=0.9, dtype=dtype)
    for t in (params.lstm_language.b, params.lstm_local.b, params.lstm_global.b, params.r):
        t.value[...] = rng.normal(size=t.value.shape)
    return params


def mixed_requests(rng, config, lengths=(3, 1, 7, 2, 5, 4)):
    return [ScoreRequest([int(t) for t in rng.integers(3, config.vocab_size, size=n)],
                         rng.normal(size=config.feat_dim), rng.normal(size=config.feat_dim),
                         rng.uniform(-1, 1, size=config.spatial_dim))
            for n in lengths]


def batch_grads(params, config, requests, scale=1.0):
    params.zero_grads()
    trace = forward_batch(params, config, requests)
    backward(params, config, trace, trace.targets, scale=scale)
    return {t.name: t.grad.copy() for t in params.tensors()}


def summed_single_grads(params, config, requests):
    params.zero_grads()
    for req in requests:
        trace = forward_trace(params, config, req)
        backward(params, config, trace, trace.targets)
    return {t.name: t.grad.copy() for t in params.tensors()}


def max_rel_diff(a, b):
    scale = max(max(np.max(np.abs(g)) for g in a.values()), 1e-300)
    return max(np.max(np.abs(a[k] - b[k])) for k in a) / scale


@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_batch_gradients_equal_sum_of_single_rows(mode):
    config = small_config(**mode)
    rng = make_rng(41)
    params = random_params(config, rng)
    requests = mixed_requests(rng, config)
    assert max_rel_diff(batch_grads(params, config, requests),
                        summed_single_grads(params, config, requests)) < 1e-12


def test_scale_multiplies_the_batch_gradient():
    config = small_config()
    rng = make_rng(42)
    params = random_params(config, rng)
    requests = mixed_requests(rng, config)
    full = batch_grads(params, config, requests)
    quarter = batch_grads(params, config, requests, scale=0.25)
    assert max_rel_diff({k: 0.25 * v for k, v in full.items()}, quarter) < 1e-15


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_batch_log_probs_equal_sequence_log_prob_exactly(mode, dtype):
    config = small_config(**mode)
    rng = make_rng(43)
    params = random_params(config, rng, dtype)
    requests = mixed_requests(rng, config)
    trace = forward_batch(params, config, requests, keep_trace=False)
    assert trace.log_probs.tolist() == [sequence_log_prob(params, config, r) for r in requests]


def test_padded_short_row_gives_the_gradient_it_gives_alone():
    config = small_config()
    rng = make_rng(44)
    params = random_params(config, rng)
    short, long = mixed_requests(rng, config, lengths=(1, 7))
    both = batch_grads(params, config, [short, long])
    alone = batch_grads(params, config, [long])
    short_alone = batch_grads(params, config, [short])
    assert max_rel_diff({k: both[k] - alone[k] for k in both}, short_alone) < 1e-12


def assert_padding_unread(mode, fill):
    """The gradients are the same bit for bit whatever fill(shape) writes over
    every padded cell of the trace. The packed probs and unit traces hold no
    padded cell; the ids grid does: the cells after each row's <eos>, which
    are neither a live step's input nor its target."""
    config = small_config(**mode)
    rng = make_rng(45)
    params = random_params(config, rng)
    requests = mixed_requests(rng, config)
    trace = forward_batch(params, config, requests)
    read = np.zeros(trace.ids.shape, dtype=bool)
    read[:-1] |= trace.live
    read[1:] |= trace.live
    pad = ~read
    assert pad.any()
    perturbed = copy.deepcopy(trace)  # backward spends the trace it reads
    params.zero_grads()
    backward(params, config, trace, trace.targets)
    want = {t.name: t.grad.copy() for t in params.tensors()}

    perturbed.ids = perturbed.ids.copy()
    perturbed.ids[pad] = fill(perturbed.ids[pad].shape)
    params.zero_grads()
    backward(params, config, perturbed, perturbed.targets)
    for t in params.tensors():
        assert np.array_equal(t.grad, want[t.name]), t.name


@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_padded_steps_add_exactly_zero(mode):
    """Whatever tokens the padded steps hold, the gradient is the same bit for bit."""
    config = small_config(**mode)
    rng = make_rng(50)
    assert_padding_unread(mode, lambda shape: rng.integers(0, config.vocab_size, size=shape))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_padded_cells_are_never_read(mode):
    """An id past the vocabulary in every padded cell raises nowhere: any
    gather of a padded cell, even one masked out after, would hit IndexError."""
    config = small_config(**mode)
    assert_padding_unread(mode, lambda shape: np.full(shape, config.vocab_size + 7))


@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_trace_holds_only_live_cells(mode):
    """Every unit trace and probs has one row per live (step, row) cell and
    no padded cell, and each step's states on its live rows are those of each
    row's lone trace, bit for bit."""
    config = small_config(**mode)
    rng = make_rng(45)
    params = random_params(config, rng)
    requests = mixed_requests(rng, config)
    trace = forward_batch(params, config, requests)
    cells = int(trace.live.sum())
    assert cells < trace.live.size
    assert trace.probs.shape == (cells, config.vocab_size)
    skipped = (False, config.caption_mode, config.mask_context)
    assert [unit is None for unit in trace.units] == list(skipped)
    for unit in trace.units:
        if unit is not None:
            assert [len(a) for a in (unit.gates, unit.h, unit.c)] == [cells] * 3
            assert unit.counts == trace.live.sum(axis=1).tolist()

    order = sorted(range(len(requests)), key=lambda k: -len(requests[k].query))
    alone = [forward_trace(params, config, requests[k]).steps for k in order]
    for t, record in enumerate(trace.steps):
        rows = [steps[t] for steps in alone if t < len(steps)]
        for name, state in vars(record).items():
            if state is None:
                assert all(getattr(r, name) is None for r in rows)
                continue
            assert state.h.shape == (len(rows), config.hidden_dim)
            for got, want in ((state.h, [getattr(r, name).h for r in rows]),
                              (state.c, [getattr(r, name).c for r in rows])):
                assert got.tobytes() == np.concatenate(want).tobytes()

    params.zero_grads()
    backward(params, config, trace, trace.targets)
    assert np.all(params.E.grad[:, EOS_ID] == 0)  # <eos> is never a live input


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
@pytest.mark.parametrize("mode", MODES, ids=lambda m: next(iter(m), "default"))
def test_any_row_order_gives_each_request_its_log_prob(mode, dtype):
    config = small_config(**mode)
    rng = make_rng(51)
    params = random_params(config, rng, dtype)
    requests = mixed_requests(rng, config, lengths=(3, 1, 7, 2, 5, 4, 7, 1))
    want = [sequence_log_prob(params, config, r) for r in requests]
    grads = []
    for order in ([0, 1, 2, 3, 4, 5, 6, 7], [7, 6, 5, 4, 3, 2, 1, 0], [4, 1, 6, 0, 3, 7, 2, 5]):
        batch = [requests[k] for k in order]
        trace = forward_batch(params, config, batch)
        assert trace.log_probs.tolist() == [want[k] for k in order]
        assert trace.targets == [list(r.query) + [EOS_ID] for r in batch]
        live_rows = trace.live.sum(axis=1)
        assert np.array_equal(trace.live, np.arange(len(batch)) < live_rows[:, None])
        params.zero_grads()
        backward(params, config, trace, trace.targets)
        grads.append({t.name: t.grad.copy() for t in params.tensors()})
    if dtype == np.float64:
        for other in grads[1:]:
            assert max_rel_diff(grads[0], other) < 1e-12


def test_recurrence_runs_only_live_rows(monkeypatch):
    """Each step of each unit's backward recurrence takes that step's live
    rows, and no padded row."""
    config = small_config()
    rng = make_rng(52)
    params = random_params(config, rng)
    trace = forward_batch(params, config, mixed_requests(rng, config, lengths=(1, 7, 3, 5)))
    seen = []

    def recording(gates, *rest):
        seen.append(len(gates))
        return gate_grads(gates, *rest)

    gate_grads = nncore.lstm_gate_grads
    monkeypatch.setattr(nncore, "lstm_gate_grads", recording)
    backward(params, config, trace, trace.targets)
    per_step = trace.live.sum(axis=1).tolist()
    assert per_step == [4, 4, 3, 3, 2, 2, 1, 1]
    assert seen == per_step[::-1] * 3  # local, global, then language


@pytest.mark.parametrize("mode, silent", [
    ({"caption_mode": True}, ("lstm_local", "W_local")),
    ({"mask_context": True}, ("lstm_global", "W_global")),
])
def test_disabled_branches_get_exactly_zero(mode, silent):
    config = small_config(**mode)
    rng = make_rng(46)
    params = random_params(config, rng)
    grads = batch_grads(params, config, mixed_requests(rng, config))
    for name, g in grads.items():
        if name.split(".")[0] in silent:
            assert np.all(g == 0), name
    assert any(np.any(g != 0) for name, g in grads.items() if name.startswith("lstm_language"))


def test_mask_spatial_columns_get_exactly_zero():
    config = small_config(mask_spatial=True)
    rng = make_rng(47)
    params = random_params(config, rng)
    batch_grads(params, config, mixed_requests(rng, config))
    lo = config.hidden_dim + config.feat_dim
    assert np.all(params.lstm_local.W_x.grad[:, lo:] == 0)
    assert np.any(params.lstm_local.W_x.grad[:, :lo] != 0)


def test_gradcheck_runs_a_padded_batch():
    config = DEFAULT_CHECK_CONFIG
    params, requests = check_instance(config, DEFAULT_CHECK_SEED)
    assert len({len(r.query) for r in requests}) > 1
    accumulate_gradients(params, config, requests)
    got = {t.name: t.grad.copy() for t in params.tensors()}
    assert max_rel_diff(got, summed_single_grads(params, config, requests)) < 1e-12


def test_wrong_targets_rejected():
    from scrc.errors import ContractError

    config = small_config()
    rng = make_rng(48)
    params = random_params(config, rng)
    trace = forward_batch(params, config, mixed_requests(rng, config, lengths=(2, 3)))
    with pytest.raises(ContractError):
        backward(params, config, trace, trace.targets[::-1])


def test_rows_out_of_order_rejected():
    from scrc.errors import ContractError

    config = small_config()
    rng = make_rng(49)
    params = random_params(config, rng)
    trace = forward_batch(params, config, mixed_requests(rng, config, lengths=(2, 5)))
    trace.live = trace.live[:, ::-1]  # the shorter row first: its live rows are no prefix
    with pytest.raises(ContractError):
        backward(params, config, trace, trace.targets)
