import math

import numpy as np
import pytest

from scrc.errors import ConfigError, ShapeError, TrainingError
from scrc.nncore import (LstmParams, LstmState, ParamTensor, SgdOptimizer, global_grad_norm,
                         init_uniform, log_softmax, lstm_step, lstm_step_backward, make_rng,
                         sigmoid, softmax)


def rel_err(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


class TestActivations:
    def test_sigmoid_symmetry(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_closed_form(self):
        # sigmoid(ln 3) = 3 / (1 + 3)
        assert rel_err(float(sigmoid(np.array([math.log(3.0)]))[0]), 0.75) < 1e-12

    def test_extreme_inputs_saturate(self):
        x = np.array([-1e3, -37.0, 0.0, 37.0, 1e3])
        s = sigmoid(x)
        assert np.all(np.isfinite(s))
        assert np.all((s >= 0.0) & (s <= 1.0))

    def test_open_interval_for_moderate_inputs(self):
        # float64 tanh saturates to exactly +-1 near |x| = 19; below that the
        # open-interval ranges are strict
        x = np.linspace(-30, 30, 301)
        s = sigmoid(x)
        assert np.all((s > 0.0) & (s < 1.0))


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_shift_invariance_constant(self):
        for c in (-7.0, 0.0, 123.5):
            assert np.allclose(softmax(np.full(4, c)), 0.25, atol=1e-15)

    def test_closed_form(self):
        out = softmax(np.array([math.log(2.0), 0.0]))
        assert rel_err(float(out[0]), 2.0 / 3.0) < 1e-12
        assert rel_err(float(out[1]), 1.0 / 3.0) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.array([]))

    def test_random_logits_sum_and_shift(self):
        rng = make_rng(11)
        for _ in range(200):
            logits = rng.uniform(-50, 50, size=int(rng.integers(1, 12)))
            p = softmax(logits)
            assert np.all(p > 0)
            assert abs(float(p.sum()) - 1.0) < 1e-6
            shift = float(rng.uniform(-100, 100))
            assert np.max(np.abs(softmax(logits + shift) - p)) < 1e-12

    def test_log_softmax_matches(self):
        rng = make_rng(3)
        logits = rng.normal(size=9)
        assert np.allclose(np.exp(log_softmax(logits)), softmax(logits), atol=1e-12)


def tiny_lstm(hidden, input_dim, seed=0, radius=0.8):
    return LstmParams.init("u", hidden, input_dim, make_rng(seed), radius=radius,
                           dtype=np.float64)


class TestLstmStep:
    def test_all_zero(self):
        p = LstmParams("u", 3, 2, dtype=np.float64)
        st, _ = lstm_step(p, np.zeros(2), LstmState.zeros(3, np.float64))
        assert np.array_equal(st.h, np.zeros(3))
        assert np.array_equal(st.c, np.zeros(3))

    def test_candidate_bias_saturation(self):
        # zero weights, b_g = +20: i = f = o = 0.5, g ~ 1, c = 0.5, h = 0.5 tanh(0.5)
        p = LstmParams("u", 2, 2, dtype=np.float64)
        p.b_g.value[...] = 20.0
        st, cache = lstm_step(p, np.zeros(2), LstmState.zeros(2, np.float64))
        assert np.allclose(cache.i, 0.5)
        assert np.allclose(cache.g, 1.0, atol=1e-12)
        assert np.allclose(st.c, 0.5, atol=1e-12)
        assert np.allclose(st.h, 0.5 * math.tanh(0.5), atol=1e-9)

    def test_forget_bias_saturation(self):
        # f-bias -20 with zero prior cell: c equals i * g
        p = tiny_lstm(4, 3, seed=5)
        p.b_f.value[...] = -20.0
        x = make_rng(6).normal(size=3)
        st, cache = lstm_step(p, x, LstmState.zeros(4, np.float64))
        assert np.max(np.abs(st.c - cache.i * cache.g)) < 1e-8

    def test_gate_ranges(self):
        rng = make_rng(7)
        p = tiny_lstm(5, 4, seed=7, radius=1.0)
        prev = LstmState(rng.normal(size=5), rng.normal(size=5))
        for _ in range(50):
            x = rng.normal(size=4) * 2
            prev, cache = lstm_step(p, x, prev)
            for gate in (cache.i, cache.f, cache.o):
                assert np.all((gate > 0) & (gate < 1))
            assert np.all((cache.g > -1) & (cache.g < 1))
            assert np.all((prev.h > -1) & (prev.h < 1))

    def test_gate_equations_elementwise_oracle(self):
        # independent scalar-arithmetic evaluation of the gate equations
        rng = make_rng(42)
        for _ in range(100):
            hidden = int(rng.integers(1, 6))
            input_dim = int(rng.integers(1, 6))
            p = LstmParams.init("u", hidden, input_dim, rng, radius=1.5, dtype=np.float64)
            for b in (p.b_i, p.b_f, p.b_o, p.b_g):
                b.value[...] = rng.normal(size=hidden)
            x = rng.normal(size=input_dim)
            prev = LstmState(rng.normal(size=hidden), rng.normal(size=hidden))
            st, _ = lstm_step(p, x, prev)
            for k in range(hidden):
                def pre(W_x, W_h, b):
                    s = b.value[k]
                    for j in range(input_dim):
                        s += W_x.value[k, j] * x[j]
                    for j in range(hidden):
                        s += W_h.value[k, j] * prev.h[j]
                    return s

                i = 1.0 / (1.0 + math.exp(-pre(p.W_xi, p.W_hi, p.b_i)))
                f = 1.0 / (1.0 + math.exp(-pre(p.W_xf, p.W_hf, p.b_f)))
                o = 1.0 / (1.0 + math.exp(-pre(p.W_xo, p.W_ho, p.b_o)))
                g = math.tanh(pre(p.W_xg, p.W_hg, p.b_g))
                c = f * prev.c[k] + i * g
                assert abs(st.c[k] - c) < 1e-12
                assert abs(st.h[k] - o * math.tanh(c)) < 1e-12

    def test_dim_mismatch(self):
        p = tiny_lstm(3, 2)
        with pytest.raises(ShapeError):
            lstm_step(p, np.zeros(5), LstmState.zeros(3, np.float64))


class TestLstmBackward:
    def test_zero_upstream(self):
        p = tiny_lstm(3, 2)
        x = make_rng(1).normal(size=2)
        _, cache = lstm_step(p, x, LstmState.zeros(3, np.float64))
        dx, dh, dc = lstm_step_backward(p, cache, np.zeros(3), np.zeros(3))
        assert np.array_equal(dx, np.zeros(2))
        assert np.array_equal(dh, np.zeros(3))
        assert np.array_equal(dc, np.zeros(3))
        for t in p.tensors():
            assert np.array_equal(t.grad, np.zeros_like(t.grad))

    def test_single_step_finite_differences(self):
        rng = make_rng(6)
        p = LstmParams.init("u", 4, 3, rng, radius=0.8, dtype=np.float64)
        x = rng.normal(size=3)
        prev = LstmState(rng.normal(size=4) * 0.5, rng.normal(size=4) * 0.5)
        a, b = rng.normal(size=4), rng.normal(size=4)

        def loss():
            st, _ = lstm_step(p, x, prev)
            return float(a @ st.h + b @ st.c)

        for t in p.tensors():
            t.zero_grad()
        _, cache = lstm_step(p, x, prev)
        dx, dh_prev, dc_prev = lstm_step_backward(p, cache, a.copy(), b.copy())

        step = 1e-5
        worst = 0.0
        for t in p.tensors():
            fv, fg = t.value.reshape(-1), t.grad.reshape(-1)
            for i in range(fv.size):
                orig = fv[i]
                fv[i] = orig + step
                up = loss()
                fv[i] = orig - step
                down = loss()
                fv[i] = orig
                worst = max(worst, rel_err(fg[i], (up - down) / (2 * step)))
        for vec, grad in ((x, dx), (prev.h, dh_prev), (prev.c, dc_prev)):
            for i in range(vec.size):
                orig = vec[i]
                vec[i] = orig + step
                up = loss()
                vec[i] = orig - step
                down = loss()
                vec[i] = orig
                worst = max(worst, rel_err(grad[i], (up - down) / (2 * step)))
        assert worst < 1e-7

    def test_two_step_bptt_finite_differences(self):
        rng = make_rng(1)
        p = LstmParams.init("u", 4, 3, rng, radius=0.8, dtype=np.float64)
        xs = [rng.normal(size=3) for _ in range(2)]
        alphas = [rng.normal(size=4) for _ in range(2)]

        def run():
            st = LstmState.zeros(4, np.float64)
            caches, total = [], 0.0
            for t in range(2):
                st, c = lstm_step(p, xs[t], st)
                caches.append(c)
                total += float(alphas[t] @ st.h)
            return total, caches

        for t in p.tensors():
            t.zero_grad()
        _, caches = run()
        dh_next, dc_next = np.zeros(4), np.zeros(4)
        for t in reversed(range(2)):
            _, dh_next, dc_next = lstm_step_backward(p, caches[t], alphas[t] + dh_next,
                                                     dc_next)

        step = 1e-5
        worst = 0.0
        for t in p.tensors():
            fv, fg = t.value.reshape(-1), t.grad.reshape(-1)
            for i in range(fv.size):
                orig = fv[i]
                fv[i] = orig + step
                up = run()[0]
                fv[i] = orig - step
                down = run()[0]
                fv[i] = orig
                worst = max(worst, rel_err(fg[i], (up - down) / (2 * step)))
        assert worst < 1e-6

    def test_mismatched_cache_rejected(self):
        from scrc.errors import ContractError

        p = tiny_lstm(3, 2)
        other = tiny_lstm(3, 4, seed=9)
        x = make_rng(2).normal(size=4)
        _, cache = lstm_step(other, x, LstmState.zeros(3, np.float64))
        with pytest.raises(ContractError):
            lstm_step_backward(p, cache, np.zeros(3), np.zeros(3))


class TestSgd:
    def test_zero_grads_leave_params(self):
        p = ParamTensor.zeros("p", (3,), dtype=np.float64)
        p.value[...] = [1.0, -2.0, 0.5]
        before = p.value.copy()
        opt = SgdOptimizer([p], lr=0.1)
        for _ in range(5):
            opt.step()
        assert np.array_equal(p.value, before)

    def test_scalar_hand_case(self):
        p = ParamTensor.zeros("p", (1,), dtype=np.float64)
        p.value[0] = 1.0
        p.grad[0] = 2.0
        SgdOptimizer([p], lr=0.1, momentum=0.0, clip_norm=np.inf).step()
        assert p.value[0] == pytest.approx(0.8, abs=1e-15)
        assert p.grad[0] == 0.0

    def test_clip_halves_gradient(self):
        p = ParamTensor.zeros("p", (2,), dtype=np.float64)
        p.grad[...] = [12.0, 16.0]  # norm exactly 20
        SgdOptimizer([p], lr=1.0, momentum=0.0, clip_norm=10.0).step()
        assert np.array_equal(p.value, [-6.0, -8.0])

    def test_momentum_accumulates(self):
        p = ParamTensor.zeros("p", (1,), dtype=np.float64)
        opt = SgdOptimizer([p], lr=1.0, momentum=0.5, clip_norm=np.inf)
        p.grad[0] = 1.0
        opt.step()  # v = -1, p = -1
        p.grad[0] = 1.0
        opt.step()  # v = -1.5, p = -2.5
        assert p.value[0] == pytest.approx(-2.5, abs=1e-15)

    def test_nonfinite_grad_names_param(self):
        p = ParamTensor.zeros("weird_param", (2,), dtype=np.float64)
        p.grad[0] = np.nan
        opt = SgdOptimizer([p], lr=0.1)
        with pytest.raises(TrainingError, match="weird_param"):
            opt.step()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_grad_in_a_later_tensor_named(self, bad):
        params = [ParamTensor.zeros(name, (3,)) for name in ("first", "second", "third")]
        params[0].grad[...] = 1.0
        params[1].grad[2] = bad
        params[2].grad[0] = bad
        with pytest.raises(TrainingError, match="non-finite gradient in second$"):
            SgdOptimizer(params, lr=0.1, clip_norm=np.inf).step()

    def test_norm_accumulates_in_float64(self):
        p = ParamTensor.zeros("p", (4,), dtype=np.float32)
        p.grad[...] = [3e20, 4e20, 1e-30, 0.0]  # their squares overflow float32
        want = float(np.sqrt(np.sum(p.grad.astype(np.float64) ** 2)))
        assert global_grad_norm([p]) == pytest.approx(want, rel=1e-15)

    def test_negative_lr_rejected(self):
        p = ParamTensor.zeros("p", (1,))
        with pytest.raises(ConfigError):
            SgdOptimizer([p], lr=-0.1)

    @pytest.mark.parametrize("settings, message", [
        ({"lr": math.nan}, "learning rate"),
        ({"lr": math.inf}, "learning rate"),
        ({"lr": 1e39}, "learning rate"),  # inf once cast to float32
        ({"lr": 0.1, "momentum": math.nan}, "momentum"),
        ({"lr": 0.1, "clip_norm": math.nan}, "clip norm"),
    ])
    def test_non_finite_settings_rejected(self, settings, message):
        p = ParamTensor.zeros("p", (1,))
        with pytest.raises(ConfigError, match=message):
            SgdOptimizer([p], **settings)

    def test_largest_float32_lr_accepted(self):
        p = ParamTensor.zeros("p", (1,))
        SgdOptimizer([p], lr=float(np.finfo(np.float32).max))

    def test_zero_lr_is_noop(self):
        p = ParamTensor.zeros("p", (2,), dtype=np.float64)
        p.value[...] = [1.0, 2.0]
        p.grad[...] = [5.0, -5.0]
        SgdOptimizer([p], lr=0.0).step()
        assert np.array_equal(p.value, [1.0, 2.0])

    def test_global_norm(self):
        a = ParamTensor.zeros("a", (2,), dtype=np.float64)
        b = ParamTensor.zeros("b", (1,), dtype=np.float64)
        a.grad[...] = [3.0, 0.0]
        b.grad[...] = [4.0]
        assert global_grad_norm([a, b]) == pytest.approx(5.0, abs=1e-12)

    def test_deterministic_updates(self):
        def run():
            rng = make_rng(77)
            p = ParamTensor("p", init_uniform(rng, (4, 4), dtype=np.float32),
                            np.zeros((4, 4), dtype=np.float32))
            opt = SgdOptimizer([p], lr=0.05, momentum=0.9, clip_norm=1.0)
            for k in range(20):
                p.grad[...] = np.outer(np.arange(4) - k, np.ones(4)).astype(np.float32)
                opt.step()
            return p.value.copy()

        assert np.array_equal(run(), run())


class TestInitUniform:
    def test_deterministic(self):
        a = init_uniform(make_rng(42), (5, 7), 0.08)
        b = init_uniform(make_rng(42), (5, 7), 0.08)
        assert np.array_equal(a, b)

    def test_range(self):
        m = init_uniform(make_rng(1), (100, 100), 0.08)
        assert np.all(m >= -0.08)
        assert np.all(m <= 0.08)

    def test_mean_near_zero(self):
        m = init_uniform(make_rng(2), (100000,), 0.08, dtype=np.float64)
        assert abs(float(m.mean())) < 0.002

    def test_bad_radius(self):
        with pytest.raises(ConfigError):
            init_uniform(make_rng(0), (2,), 0.0)
