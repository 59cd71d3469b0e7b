"""Dense numeric core: activations, an LSTM cell with exact analytic
gradients, and a momentum SGD optimizer with global-norm gradient clipping.

Tensors are plain numpy arrays (row-major). float32 is the training
precision; gradient verification runs everything in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, ContractError, ShapeError, TrainingError

DEFAULT_INIT_RADIUS = 0.08


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator: one seed, one reproducible draw sequence."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.PCG64(seed))


def sigmoid(x):
    # tanh-based form saturates cleanly instead of overflowing exp for |x| ~ 1e3
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x)))


def softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError(f"softmax expects a non-empty vector, got shape {logits.shape}")
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def feature_axis(x: np.ndarray) -> int:
    """The axis that holds features: 0 of a vector or of (dim, N) columns, 1 of
    a (B, dim, N) stack."""
    return 1 if x.ndim == 3 else 0


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities of a logit vector, of each column of a (V, N) matrix,
    or of each column of each item of a (B, V, N) stack."""
    logits = np.asarray(logits)
    axis = feature_axis(logits)
    if logits.ndim not in (1, 2, 3) or logits.shape[axis] == 0:
        raise ShapeError(
            f"log_softmax expects a non-empty vector, (V, N) matrix or (B, V, N) stack, "
            f"got shape {logits.shape}")
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def init_uniform(rng: np.random.Generator, shape, radius: float = DEFAULT_INIT_RADIUS,
                 dtype=np.float32) -> np.ndarray:
    if radius <= 0:
        raise ConfigError(f"init radius must be positive, got {radius}")
    return rng.uniform(-radius, radius, size=shape).astype(dtype)


@dataclass
class ParamTensor:
    """A learnable array paired with its accumulated gradient."""

    name: str
    value: np.ndarray
    grad: np.ndarray

    def __post_init__(self):
        if self.value.shape != self.grad.shape:
            raise ShapeError(
                f"{self.name}: value {self.value.shape} and grad {self.grad.shape} differ")

    @classmethod
    def zeros(cls, name: str, shape, dtype=np.float32) -> "ParamTensor":
        return cls(name, np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype))

    def zero_grad(self):
        self.grad[...] = 0.0


class LstmParams:
    """Parameters of one LSTM unit.

    Gate pre-activations are W_x. x_t + W_h. h_{t-1} + b_. for the input,
    forget, output and candidate (g) gates; the cell update is
    c_t = f * c_{t-1} + i * g and the output h_t = o * tanh(c_t).

    The gates are stored fused along axis 0 in the order i, f, o, g: W_x
    (4H, input), W_h (4H, H) and b (4H). The per-gate tensors W_xi ... b_g
    that checkpoints name are row-block views of their values and grads.
    """

    def __init__(self, prefix: str, hidden_dim: int, input_dim: int, dtype=np.float32):
        """All-zero parameters."""
        gates = 4 * hidden_dim
        self.W_x = ParamTensor.zeros(f"{prefix}.W_x", (gates, input_dim), dtype)
        self.W_h = ParamTensor.zeros(f"{prefix}.W_h", (gates, hidden_dim), dtype)
        self.b = ParamTensor.zeros(f"{prefix}.b", (gates,), dtype)
        for k, gate in enumerate("ifog"):
            rows = slice(k * hidden_dim, (k + 1) * hidden_dim)
            for whole, name in ((self.W_x, f"W_x{gate}"), (self.W_h, f"W_h{gate}"),
                                (self.b, f"b_{gate}")):
                setattr(self, name, ParamTensor(f"{prefix}.{name}", whole.value[rows],
                                                whole.grad[rows]))

    @classmethod
    def init(cls, prefix: str, hidden_dim: int, input_dim: int, rng: np.random.Generator,
             radius: float = DEFAULT_INIT_RADIUS, dtype=np.float32) -> "LstmParams":
        """Uniform(-radius, radius) weights, zero biases. Draw order is fixed:
        W_xi, W_xf, W_xo, W_xg, then W_hi, W_hf, W_ho, W_hg."""
        unit = cls(prefix, hidden_dim, input_dim, dtype)
        for t in (unit.W_x, unit.W_h):
            t.value[...] = init_uniform(rng, t.value.shape, radius, dtype)
        return unit

    @property
    def hidden_dim(self) -> int:
        return self.W_h.value.shape[1]

    @property
    def input_dim(self) -> int:
        return self.W_x.value.shape[1]

    def fused_tensors(self) -> list[ParamTensor]:
        """W_x, W_h and b: the arrays that the tensors() are views into."""
        return [self.W_x, self.W_h, self.b]

    def tensors(self) -> list[ParamTensor]:
        return [self.W_xi, self.W_xf, self.W_xo, self.W_xg,
                self.W_hi, self.W_hf, self.W_ho, self.W_hg,
                self.b_i, self.b_f, self.b_o, self.b_g]


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_dim: int, dtype=np.float32) -> "LstmState":
        return cls(np.zeros(hidden_dim, dtype=dtype), np.zeros(hidden_dim, dtype=dtype))


@dataclass
class LstmStepCache:
    """Forward intermediates needed to backpropagate one step."""

    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    tanh_c: np.ndarray
    h: np.ndarray


def lstm_step(params: LstmParams, x: np.ndarray, prev: LstmState,
              x_proj: Optional[np.ndarray] = None):
    """One forward step; returns the new state and the backprop cache.

    x and the state are vectors; query-major columns, x (input, Q) and the
    state (H, Q * N), x's column q broadcasting over query q's N columns; or
    stacks of columns ((B, input, N) and (B, H, N)), whose items are
    multiplied one at a time: each item of a (B, input, 1) stack gets
    exactly the vector product. With x_proj, x holds only the leading input
    rows and x_proj the rest's precomputed W_x columns @ input + b (1 or N
    columns, broadcast over the queries), for inputs fixed over a sequence;
    the cache then records only the leading rows.
    """
    hidden, input_dim = params.hidden_dim, params.input_dim
    axis = feature_axis(x)
    k = x.shape[axis] if x.ndim else 0
    if x.ndim not in (1, 2, 3) or not (k == input_dim if x_proj is None else 0 < k < input_dim):
        raise ShapeError(f"lstm input: expected ({input_dim},), got {x.shape}")
    if (prev.h.ndim != x.ndim or prev.h.shape[axis] != hidden
            or prev.c.shape != prev.h.shape or (x.ndim == 2 and prev.h.shape[1] % x.shape[1])):
        raise ShapeError(
            f"lstm state: expected ({hidden},), got h {prev.h.shape} c {prev.c.shape}")
    pre = params.W_h.value @ prev.h
    if x_proj is None:
        x_proj = params.b.value if pre.ndim == 1 else params.b.value[:, None]
    if pre.ndim == 2:  # views of pre, which the matrix product made C-contiguous
        pre.reshape(len(pre), x.shape[1], -1)[...] += (params.W_x.value[:, :k] @ x)[:, :, None]
        pre.reshape(len(pre), -1, x_proj.shape[1])[...] += x_proj[:, None]
    else:
        pre += params.W_x.value[:, :k] @ x
        pre += x_proj
    lead = (slice(None),) * axis  # gate j is lead + (slice(j * hidden, (j + 1) * hidden),)
    sig = sigmoid(pre[lead + (slice(0, 3 * hidden),)])
    i, f, o = (sig[lead + (slice(j * hidden, (j + 1) * hidden),)] for j in range(3))
    g = np.tanh(pre[lead + (slice(3 * hidden, None),)])
    c = f * prev.c + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = LstmStepCache(x, prev.h, prev.c, i, f, o, g, c, tanh_c, h)
    return LstmState(h, c), cache


def lstm_gate_grads(i, f, o, g, c_prev, tanh_c, dh, dc):
    """Gradients of one step's gate pre-activations, fused i, f, o, g along
    the last axis, and of c_{t-1}; dh and dc flow into h_t and c_t. The
    arrays are (H,) vectors or (B, H) rows."""
    o_pre = dh * tanh_c * o * (1.0 - o)
    dc_total = dc + dh * o * (1.0 - tanh_c ** 2)
    i_pre = dc_total * g * i * (1.0 - i)
    f_pre = dc_total * c_prev * f * (1.0 - f)
    g_pre = dc_total * i * (1.0 - g ** 2)
    return np.concatenate([i_pre, f_pre, o_pre, g_pre], axis=-1), dc_total * f


def lstm_step_backward(params: LstmParams, cache: LstmStepCache,
                       dh: np.ndarray, dc: np.ndarray):
    """Backpropagate one step of a vector forward pass.

    dh and dc are the loss gradients flowing into h_t and c_t. Parameter
    gradients accumulate into params; returns (dx, dh_prev, dc_prev).
    """
    hidden, input_dim = params.hidden_dim, params.input_dim
    if cache.x.shape != (input_dim,) or cache.h_prev.shape != (hidden,):
        raise ContractError(
            f"cache (input {cache.x.shape}, hidden {cache.h_prev.shape}) does not match "
            f"parameters (input ({input_dim},), hidden ({hidden},))")
    if dh.shape != (hidden,) or dc.shape != (hidden,):
        raise ShapeError(f"upstream grads must have shape ({hidden},)")

    pre, dc_prev = lstm_gate_grads(cache.i, cache.f, cache.o, cache.g, cache.c_prev,
                                   cache.tanh_c, dh, dc)
    params.W_x.grad += np.outer(pre, cache.x)
    params.W_h.grad += np.outer(pre, cache.h_prev)
    params.b.grad += pre
    return params.W_x.value.T @ pre, params.W_h.value.T @ pre, dc_prev


@dataclass
class LstmTrace:
    """One unit's activations over T steps of B rows: gates (T, B, 4H) holds
    the activated i, f, o, g, and c (T + 1, B, H) the cells, starting with
    the zero state."""

    gates: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, steps: int, rows: int, hidden_dim: int, dtype) -> "LstmTrace":
        return cls(np.zeros((steps, rows, 4 * hidden_dim), dtype=dtype),
                   np.zeros((steps + 1, rows, hidden_dim), dtype=dtype))

    def record(self, t: int, cache: LstmStepCache):
        """Store step t of a forward pass over a (B, ., 1) stack."""
        np.concatenate([cache.i, cache.f, cache.o, cache.g], axis=1, out=self.gates[t, :, :, None])
        self.c[t + 1] = cache.c[:, :, 0]

    def h(self) -> np.ndarray:
        """h_0 .. h_T (T + 1, B, H): the zero state, then o * tanh(c), which
        is how the forward pass computed them, bit for bit."""
        hidden = self.c.shape[2]
        h = np.zeros_like(self.c)
        np.multiply(self.gates[:, :, 2 * hidden:3 * hidden], np.tanh(self.c[1:]), out=h[1:])
        return h


def lstm_bptt(params: LstmParams, trace: LstmTrace, dh: np.ndarray,
              reuse_trace: bool = False) -> np.ndarray:
    """Backpropagate through time a forward pass over (T, B) steps and rows.

    dh (T * B, H) is the loss gradient flowing into each step's h from
    outside the unit. W_h and b gradients accumulate into params, each as
    one product over all T * B rows; returns the gate pre-activation
    gradients (T * B, 4H), from which the caller forms W_x's gradient and
    the input gradients. Rows whose dh is zero from some step on add
    exactly zero from that step on. With reuse_trace, the gradients
    overwrite trace.gates.
    """
    steps, rows, gates = trace.gates.shape
    hidden = gates // 4
    dh = dh.reshape(steps, rows, hidden)
    h_prev = trace.h()[:-1]  # read before the gates may be overwritten
    grads = trace.gates if reuse_trace else np.empty_like(trace.gates)
    dh_next = dc_next = np.zeros((rows, hidden), dtype=trace.gates.dtype)
    for t in reversed(range(steps)):
        i, f, o, g = (trace.gates[t, :, k * hidden:(k + 1) * hidden] for k in range(4))
        grads[t], dc_next = lstm_gate_grads(i, f, o, g, trace.c[t], np.tanh(trace.c[t + 1]),
                                            dh[t] + dh_next, dc_next)
        dh_next = grads[t] @ params.W_h.value
    grads = grads.reshape(steps * rows, gates)
    params.W_h.grad += grads.T @ h_prev.reshape(steps * rows, hidden)
    params.b.grad += grads.sum(axis=0)
    return grads


def global_grad_norm(params: list[ParamTensor]) -> float:
    """The 2-norm of all of the gradients, accumulated in float64. It is not
    finite if some gradient is not."""
    total = 0.0
    for p in params:
        g = p.grad.reshape(-1)
        total += float(np.einsum("i,i->", g, g, dtype=np.float64))
    return math.sqrt(total)


def check_sgd_settings(lr: float, momentum: float, clip_norm: float):
    """Raises ConfigError unless lr is non-negative and finite in float32, the
    training precision, momentum is in [0, 1), and clip_norm is positive (inf
    turns clipping off). NaN passes none of these checks."""
    # lr = 0 is allowed as a degenerate no-op (useful for invariance tests)
    if not 0 <= lr <= float(np.finfo(np.float32).max):
        raise ConfigError(f"learning rate must be non-negative and finite in float32, got {lr}")
    if not 0 <= momentum < 1:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    if not clip_norm > 0:
        raise ConfigError(f"clip norm must be positive, got {clip_norm}")


class SgdOptimizer:
    """SGD with momentum and global-norm gradient clipping.

    step(): rescale all gradients if their global norm exceeds clip_norm,
    then per parameter v = momentum*v - lr*g; value += v; gradients are
    zeroed afterwards. clip_norm=inf disables clipping.
    """

    def __init__(self, params: list[ParamTensor], lr: float,
                 momentum: float = 0.9, clip_norm: float = 10.0):
        check_sgd_settings(lr, momentum, clip_norm)
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        norm = global_grad_norm(self.params)
        if not math.isfinite(norm):
            for p in self.params:
                if not np.isfinite(p.grad).all():
                    raise TrainingError(f"non-finite gradient in {p.name}")
        scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
        for p, v in zip(self.params, self._velocity):
            v *= self.momentum
            v -= (self.lr * scale) * p.grad
            p.value += v
            p.grad[...] = 0.0
