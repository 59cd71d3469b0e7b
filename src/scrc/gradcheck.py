"""Finite-difference verification of the analytic gradients.

Builds a tiny float64 model plus a small batch of scoring requests, then
compares every parameter element's analytic gradient of the summed negative
log-likelihood against a five-point difference of the same loss.

The stencil (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h has a
truncation error of O(h^4), so the step can be h = 1e-3. Rounding in the
loss then adds only about ulp(loss)/h, far below the 1e-4 bound even for
gradients near the 1e-8 floor of the relative error. A two-point difference
needs h near 1e-5 to keep its O(h^2) error down, and at that step its
rounding read above 1e-4 on correct gradients at some seeds. On the pinned
default instance (init radius, request count, seed) a correct implementation
reads below 1e-5, while a gradient off by a factor of 1.0005 reads above
1e-4.
"""

from __future__ import annotations

import numpy as np

from .model import ScoreRequest, ScrcConfig, ScrcParams, backward, forward_batch
from .nncore import make_rng

DEFAULT_CHECK_CONFIG = ScrcConfig(vocab_size=12, embed_dim=6, hidden_dim=8, feat_dim=5)
DEFAULT_CHECK_SEED = 92
CHECK_INIT_RADIUS = 0.9
CHECK_REQUESTS = 6
CHECK_STEP = 1e-3
REL_ERROR_FLOOR = 1e-8


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), REL_ERROR_FLOOR)


def check_instance(config: ScrcConfig, seed: int):
    """Deterministic (params, requests) pair for gradient verification."""
    rng = make_rng(seed)
    params = ScrcParams.init(config, rng, radius=CHECK_INIT_RADIUS, dtype=np.float64)
    requests = []
    for k in range(CHECK_REQUESTS):
        qlen = 3 + (k % 3)
        query = [int(t) for t in rng.integers(3, config.vocab_size, size=qlen)]
        requests.append(ScoreRequest(query,
                                     rng.normal(size=config.feat_dim),
                                     rng.normal(size=config.feat_dim),
                                     rng.uniform(-1.0, 1.0, size=config.spatial_dim)))
    return params, requests


def batch_loss(params: ScrcParams, config: ScrcConfig, requests) -> float:
    """The summed negative log-likelihood, from one forward pass over the
    requests; each row equals sequence_log_prob's bit for bit."""
    return -sum(forward_batch(params, config, requests, keep_trace=False).log_probs.tolist())


def accumulate_gradients(params: ScrcParams, config: ScrcConfig, requests):
    """Analytic gradients of batch_loss: the requests run as one padded batch."""
    params.zero_grads()
    trace = forward_batch(params, config, requests)
    backward(params, config, trace, trace.targets)


def finite_difference_check(seed: int) -> dict:
    """Checks the pinned instance DEFAULT_CHECK_CONFIG at seed. Returns
    {"max_rel_error", "worst_tensor", "elements_checked"}."""
    config, step = DEFAULT_CHECK_CONFIG, CHECK_STEP
    params, requests = check_instance(config, seed)
    accumulate_gradients(params, config, requests)

    worst = 0.0
    worst_tensor = ""
    checked = 0
    def loss_at(flat_v, idx, x):
        flat_v[idx] = x
        return batch_loss(params, config, requests)

    for t in params.tensors():
        flat_v = t.value.reshape(-1)
        flat_g = t.grad.reshape(-1)
        for idx in range(flat_v.size):
            orig = flat_v[idx]
            near = loss_at(flat_v, idx, orig + step) - loss_at(flat_v, idx, orig - step)
            far = loss_at(flat_v, idx, orig + 2 * step) - loss_at(flat_v, idx, orig - 2 * step)
            flat_v[idx] = orig
            fd = (8.0 * near - far) / (12.0 * step)
            err = relative_error(float(flat_g[idx]), fd)
            checked += 1
            if err > worst:
                worst = err
                worst_tensor = t.name
    return {"max_rel_error": worst, "worst_tensor": worst_tensor, "elements_checked": checked}
