"""Dense numeric core: activations, an LSTM cell with exact analytic
gradients, and a momentum SGD optimizer with global-norm gradient clipping.

Tensors are plain numpy arrays (row-major). float32 is the training
precision; gradient verification runs everything in float64.
"""

from __future__ import annotations

import itertools
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


def sigmoid(x, out=None):
    # tanh-based form saturates cleanly instead of overflowing exp for |x| ~ 1e3
    out = np.tanh(np.multiply(0.5, x, out), out)
    return np.multiply(0.5, np.add(1.0, out, out), out)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities of a logit vector, or of each column of a (V, N) matrix."""
    logits = np.asarray(logits)
    if logits.ndim not in (1, 2) or len(logits) == 0:
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
        if math.prod(shape) * np.dtype(dtype).itemsize > np.iinfo(np.intp).max:
            raise ConfigError(f"{name}: shape {shape} is beyond the largest array numpy can hold")
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
        self._views = []  # W_xi ... W_xg, W_hi ... W_hg, b_i ... b_g: the checkpoint's order
        for whole, stem in ((self.W_x, "W_x"), (self.W_h, "W_h"), (self.b, "b_")):
            for k, gate in enumerate("ifog"):
                rows = slice(k * hidden_dim, (k + 1) * hidden_dim)
                view = ParamTensor(f"{prefix}.{stem}{gate}", whole.value[rows], whole.grad[rows])
                setattr(self, stem + gate, view)
                self._views.append(view)

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
        """The 12 per-gate views, in the order checkpoints write them."""
        return self._views


@dataclass
class LstmState:
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, hidden_dim: int, dtype=np.float32) -> "LstmState":
        return cls(np.zeros(hidden_dim, dtype=dtype), np.zeros(hidden_dim, dtype=dtype))


def lstm_step(params: LstmParams, x: np.ndarray, prev: Optional[LstmState],
              x_proj: Optional[np.ndarray] = None):
    """One forward step over query-major columns; returns the new state and
    the activated gates (4H, Q * N), fused i, f, o, g along axis 0 as the
    weights are. prev None is the zero state: the step then skips W_h @ h
    and f * c, which would add exactly zero.

    x is the step's input product (4H, Q), W_x's leading columns @ the
    input, and the state is (H, Q * N), query q's N columns taking x's
    column q. x_proj, by default b, is the rest of the pre-activation, for
    inputs fixed over a sequence: W_x's other columns @ those inputs + b,
    (4H, 1 or Q, 1 or N), broadcast over the gates viewed as (4H, Q, N). An
    input vector (input,) with an (H,) state is the one-column case.
    """
    hidden, input_dim = params.hidden_dim, params.input_dim
    if x.shape == (input_dim,):
        column = None if prev is None else LstmState(prev.h[:, None], prev.c[:, None])
        state, gates = lstm_step(params, (params.W_x.value @ x)[:, None], column)
        return LstmState(state.h[:, 0], state.c[:, 0]), gates[:, 0]
    if not (x.ndim == 2 and len(x) == 4 * hidden):
        raise ShapeError(f"lstm input: expected ({input_dim},) or ({4 * hidden}, Q), "
                         f"got {x.shape}")
    if prev is not None and (prev.h.ndim != 2 or len(prev.h) != hidden
                             or prev.c.shape != prev.h.shape or prev.h.shape[1] % x.shape[1]):
        raise ShapeError(f"lstm state: expected ({hidden}, Q * N) for Q = {x.shape[1]}, "
                         f"got h {prev.h.shape} c {prev.c.shape}")
    x = x[:, :, None]
    x_proj = params.b.value[:, None, None] if x_proj is None else x_proj
    if prev is None:
        gates = (x + x_proj).reshape(len(x), -1)
    else:
        gates = params.W_h.value @ prev.h
        # a view of gates, which the matrix product made C-contiguous
        view = gates.reshape(len(gates), x.shape[1], -1)
        view += x
        view += x_proj
    ifo, g = gates[:3 * hidden], gates[3 * hidden:]
    sigmoid(ifo, ifo)
    np.tanh(g, g)
    i, f, o = ifo[:hidden], ifo[hidden:2 * hidden], ifo[2 * hidden:]
    # each product and sum as in f * c + i * g and o * tanh(c), with fewer temporaries
    c = i * g
    if prev is not None:
        c += f * prev.c
    h = np.tanh(c)
    h *= o
    return LstmState(h, c), gates


def lstm_gate_grads(gates, c_prev, tanh_c, dh, dc):
    """Gradients of one step's gate pre-activations, fused i, f, o, g along
    the last axis as in gates, and of c_{t-1}; dh and dc flow into h_t and
    c_t. gates is (4H,) or (B, 4H) rows, and the rest (H,) or (B, H)."""
    hidden = gates.shape[-1] // 4
    i, f, o, g = (gates[..., k * hidden:(k + 1) * hidden] for k in range(4))
    o_pre = dh * tanh_c * o * (1.0 - o)
    dc_total = dc + dh * o * (1.0 - tanh_c ** 2)
    i_pre = dc_total * g * i * (1.0 - i)
    f_pre = dc_total * c_prev * f * (1.0 - f)
    g_pre = dc_total * i * (1.0 - g ** 2)
    return np.concatenate([i_pre, f_pre, o_pre, g_pre], axis=-1), dc_total * f


def lstm_step_backward(params: LstmParams, x: np.ndarray, prev: LstmState, state: LstmState,
                       gates: np.ndarray, dh: np.ndarray, dc: np.ndarray):
    """Backpropagate one step of a vector forward pass: x, prev and the
    state and gates lstm_step returned for them.

    dh and dc are the loss gradients flowing into h_t and c_t. Parameter
    gradients accumulate into params; returns (dx, dh_prev, dc_prev).
    """
    hidden, input_dim = params.hidden_dim, params.input_dim
    if x.shape != (input_dim,) or prev.h.shape != (hidden,) or gates.shape != (4 * hidden,):
        raise ContractError(
            f"step (input {x.shape}, hidden {prev.h.shape}, gates {gates.shape}) does not "
            f"match parameters (input ({input_dim},), hidden ({hidden},))")
    if dh.shape != (hidden,) or dc.shape != (hidden,):
        raise ShapeError(f"upstream grads must have shape ({hidden},)")

    pre, dc_prev = lstm_gate_grads(gates, prev.c, np.tanh(state.c), dh, dc)
    params.W_x.grad += np.outer(pre, x)
    params.W_h.grad += np.outer(pre, prev.h)
    params.b.grad += pre
    return params.W_x.value.T @ pre, params.W_h.value.T @ pre, dc_prev


def packed_slices(counts) -> list[slice]:
    """Each step's rows in the packed layout of a pass whose step t has
    counts[t] live rows: the live (step, row) cells in step order, so step
    t's rows follow step t - 1's."""
    ends = itertools.accumulate(counts)
    return [slice(end - n, end) for end, n in zip(ends, counts)]


@dataclass
class LstmTrace:
    """One unit's activations over a pass whose step t has its first
    counts[t] rows live, in the packed layout (packed_slices) of the L live
    cells: gates (L, 4H) holds the activated i, f, o, g, and h and c (L, H)
    the outputs and cells. The zero state before step 0 is not stored."""

    counts: list[int]
    gates: np.ndarray
    h: np.ndarray
    c: np.ndarray

    @classmethod
    def zeros(cls, counts, hidden_dim: int, dtype) -> "LstmTrace":
        cells = sum(counts)
        return cls(list(counts), *(np.zeros((cells, k * hidden_dim), dtype) for k in (4, 1, 1)))

    def record(self, t: int, state: LstmState, gates: np.ndarray):
        """Store step t of a forward pass over columns, of which the first
        counts[t] are its live rows: the state and gates lstm_step returned."""
        start, rows = sum(self.counts[:t]), self.counts[t]
        step = slice(start, start + rows)
        self.gates[step] = gates.T[:rows]
        self.h[step] = state.h.T[:rows]
        self.c[step] = state.c.T[:rows]


def packed_row_sums(packed: np.ndarray, counts) -> np.ndarray:
    """Each row's sum over its live steps of a packed (L, ...) array, in step
    order: (counts[0], ...)."""
    steps = packed_slices(counts)
    total = packed[steps[0]].copy()
    for step in steps[1:]:
        total[:step.stop - step.start] += packed[step]
    return total


def lstm_bptt(params: LstmParams, trace: LstmTrace, dh: np.ndarray) -> np.ndarray:
    """Backpropagate through time the forward pass that trace recorded. Its
    counts never rise from step to step, as when rows run longest first, so
    step t's h_{t-1} and c_{t-1} are the first counts[t] rows of step t - 1;
    step 0's are zero.

    dh (L, H) is the loss gradient flowing into each live step's h from
    outside the unit; the pass adds the recurrent gradient into it. Step t's
    gate gradients and W_h products take its counts[t] rows. W_h and b
    gradients accumulate into params, each as one product over the live
    steps; returns the gate pre-activation gradients (L, 4H), from which the
    caller forms W_x's gradient and the input gradients. The gradients
    overwrite trace.gates in place.
    """
    counts, grads = trace.counts, trace.gates
    cells, hidden = trace.h.shape
    if (not counts or sorted(counts, reverse=True) != counts or counts[-1] < 0
            or sum(counts) != cells or grads.shape != (cells, 4 * hidden)
            or dh.shape != (cells, hidden)):
        raise ContractError(f"live rows per step {counts} do not fit a trace of {cells} cells "
                            f"and gradients {dh.shape}, or rise from step to step")
    steps = packed_slices(counts)
    dc = np.zeros((counts[0], hidden), dtype=grads.dtype)
    dh_next = np.zeros((0, hidden), dtype=grads.dtype)
    for t in reversed(range(len(steps))):
        step, n = steps[t], counts[t]
        c_prev = trace.c[steps[t - 1]][:n] if t else np.zeros_like(dc)
        # rows that end at step t take no gradient from step t + 1; their dc rows are still zero
        dh_t = dh[step]
        dh_t[:len(dh_next)] += dh_next
        grads[step], dc[:n] = lstm_gate_grads(grads[step], c_prev, np.tanh(trace.c[step]),
                                              dh_t, dc[:n])
        if t:  # h_{-1} is the zero state, which takes no gradient
            dh_next = grads[step] @ params.W_h.value
    # the h_{t-1} cell of each cell of steps 1 on; step 0's is zero and adds nothing
    prev = np.arange(counts[0], cells) - np.repeat(np.array(counts[:-1], int), counts[1:])
    params.W_h.grad += grads[counts[0]:].T @ trace.h[prev]
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
            # the gradient is zeroed below, so it can hold lr * scale * g
            v -= np.multiply(p.grad, self.lr * scale, out=p.grad)
            p.value += v
            p.grad[...] = 0.0
