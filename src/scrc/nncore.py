"""Dense numeric core: activations, an LSTM cell with exact analytic
gradients, and a momentum SGD optimizer with global-norm gradient clipping.

Tensors are plain numpy arrays (row-major). float32 is the training
precision; gradient verification runs everything in float64.
"""

from __future__ import annotations

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


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities of a logit vector, or of each column of a (V, N) matrix."""
    logits = np.asarray(logits)
    if logits.ndim not in (1, 2) or logits.shape[0] == 0:
        raise ShapeError(
            f"log_softmax expects a non-empty vector or (V, N) matrix, got shape {logits.shape}")
    shifted = logits - logits.max(axis=0)
    return shifted - np.log(np.exp(shifted).sum(axis=0))


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

    x and the state are vectors, or columns ((input, N) and (H, N); one x
    column broadcasts). With x_proj, x holds only the leading input columns
    and x_proj the rest's precomputed W_x columns @ input + b, for inputs
    fixed over a sequence; the cache then records only the leading columns.
    """
    hidden, input_dim = params.hidden_dim, params.input_dim
    k = x.shape[0] if x.ndim else 0
    if x.ndim not in (1, 2) or not (k == input_dim if x_proj is None else 0 < k < input_dim):
        raise ShapeError(f"lstm input: expected ({input_dim},), got {x.shape}")
    if prev.h.shape[:1] != (hidden,) or prev.h.ndim != x.ndim or prev.c.shape != prev.h.shape:
        raise ShapeError(
            f"lstm state: expected ({hidden},), got h {prev.h.shape} c {prev.c.shape}")
    pre = params.W_x.value[:, :k] @ x + params.W_h.value @ prev.h
    if x_proj is None:
        x_proj = params.b.value if pre.ndim == 1 else params.b.value[:, None]
    pre += x_proj
    i, f, o = np.split(sigmoid(pre[:3 * hidden]), 3)
    g = np.tanh(pre[3 * hidden:])
    c = f * prev.c + i * g
    tanh_c = np.tanh(c)
    h = o * tanh_c
    cache = LstmStepCache(x.copy(), prev.h.copy(), prev.c.copy(), i, f, o, g, c, tanh_c, h)
    return LstmState(h, c), cache


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

    o_pre = dh * cache.tanh_c * cache.o * (1.0 - cache.o)
    dc_total = dc + dh * cache.o * (1.0 - cache.tanh_c ** 2)
    i_pre = dc_total * cache.g * cache.i * (1.0 - cache.i)
    f_pre = dc_total * cache.c_prev * cache.f * (1.0 - cache.f)
    g_pre = dc_total * cache.i * (1.0 - cache.g ** 2)
    pre = np.concatenate([i_pre, f_pre, o_pre, g_pre])

    params.W_x.grad += np.outer(pre, cache.x)
    params.W_h.grad += np.outer(pre, cache.h_prev)
    params.b.grad += pre
    return params.W_x.value.T @ pre, params.W_h.value.T @ pre, dc_total * cache.f


def global_grad_norm(params: list[ParamTensor]) -> float:
    total = 0.0
    for p in params:
        total += float(np.sum(np.asarray(p.grad, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


class SgdOptimizer:
    """SGD with momentum and global-norm gradient clipping.

    step(): rescale all gradients if their global norm exceeds clip_norm,
    then per parameter v = momentum*v - lr*g; value += v; gradients are
    zeroed afterwards. clip_norm=inf disables clipping.
    """

    def __init__(self, params: list[ParamTensor], lr: float,
                 momentum: float = 0.9, clip_norm: float = 10.0):
        # lr = 0 is allowed as a degenerate no-op (useful for invariance tests)
        if lr < 0:
            raise ConfigError(f"learning rate must be non-negative, got {lr}")
        if momentum < 0 or momentum >= 1:
            raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
        if clip_norm <= 0:
            raise ConfigError(f"clip norm must be positive, got {clip_norm}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.clip_norm = clip_norm
        self._velocity = [np.zeros_like(p.value) for p in self.params]

    def step(self):
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise TrainingError(f"non-finite gradient in {p.name}")
        scale = 1.0
        if np.isfinite(self.clip_norm):
            norm = global_grad_norm(self.params)
            if norm > self.clip_norm:
                scale = self.clip_norm / norm
        for p, v in zip(self.params, self._velocity):
            v *= self.momentum
            v -= (self.lr * scale) * p.grad
            p.value += v
            p.grad[...] = 0.0
