"""Reference computations that only the tests use: a softmax over a logit
vector and the mean negative log-likelihood of a set of requests."""

from typing import Sequence

import numpy as np

from scrc.errors import InputError, ShapeError
from scrc.model import ScoreRequest, ScrcConfig, ScrcParams, sequence_log_prob


def softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.asarray(logits)
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError(f"softmax expects a non-empty vector, got shape {logits.shape}")
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def mean_loss(params: ScrcParams, config: ScrcConfig,
              requests: Sequence[ScoreRequest]) -> float:
    """Mean negative log-likelihood over the requests (no gradients)."""
    if not requests:
        raise InputError("no requests to evaluate")
    return -sum(sequence_log_prob(params, config, r) for r in requests) / len(requests)
