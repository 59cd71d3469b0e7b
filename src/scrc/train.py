"""The three-phase pipeline: caption pretraining, weight transfer into the
local branch, and retrieval fine-tuning, with deterministic minibatching.

Each minibatch runs as one forward pass over its sequences as padded rows,
longest first, and one backward pass through time over their live steps
only (model.forward_batch and backward), with gradients scaled by
1/batch_size; then one optimizer step is taken, so the step minimizes the
mean per-tuple negative log-likelihood. The
reported loss sums the rows' log-likelihoods in batch order, as the
per-sequence scorer computes them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .datastore import CaptionRecord, FeatureStore, TrainingTuple
from .errors import ConfigError, InputError
from .model import ScoreRequest, ScrcConfig, ScrcParams, backward, forward_batch
from .nncore import SgdOptimizer, check_sgd_settings
from .textproc import Vocabulary, encode_nonempty


@dataclass
class TrainConfig:
    lr: float
    steps: int
    seed: int
    batch_size: int = 16
    momentum: float = 0.9
    clip_norm: float = 10.0

    def __post_init__(self):
        check_sgd_settings(self.lr, self.momentum, self.clip_norm)
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


@dataclass
class TrainReport:
    phase: str
    steps: int
    batch_size: int
    interval_losses: list[float] = field(default_factory=list)
    final_loss: float = float("nan")
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


def make_batches(items: Sequence, batch_size: int, seed: int, epoch: int) -> list[list]:
    """Deterministic per-(seed, epoch) shuffled partition; the last batch may
    be short; every item appears exactly once."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if seed < 0 or epoch < 0:
        raise ConfigError("seed and epoch must be non-negative")
    perm = np.random.default_rng([seed, epoch]).permutation(len(items))
    return [[items[i] for i in perm[lo:lo + batch_size]]
            for lo in range(0, len(items), batch_size)]


def _run_sgd(params: ScrcParams, config: ScrcConfig, requests: list[ScoreRequest],
             cfg: TrainConfig, phase: str) -> TrainReport:
    if not requests:
        raise InputError("empty training set")
    opt = SgdOptimizer(params.fused_tensors(), lr=cfg.lr, momentum=cfg.momentum,
                       clip_norm=cfg.clip_norm)
    interval = max(1, cfg.steps // 10)
    report = TrainReport(phase, cfg.steps, cfg.batch_size)
    window: list[float] = []
    t0 = time.perf_counter()
    # each epoch's batches are drawn once the previous epoch's run out
    batches = itertools.chain.from_iterable(
        make_batches(requests, cfg.batch_size, cfg.seed, epoch) for epoch in itertools.count())
    for step, batch in enumerate(itertools.islice(batches, cfg.steps), 1):
        trace = forward_batch(params, config, batch)
        backward(params, config, trace, trace.targets, scale=1.0 / len(batch))
        last_loss = -sum(trace.log_probs.tolist()) / len(batch)
        del trace  # its buffers need not outlive the backward pass
        opt.step()
        window.append(last_loss)
        if step % interval == 0 or step == cfg.steps:
            report.interval_losses.append(sum(window) / len(window))
            window = []
    report.final_loss = last_loss
    report.wall_time_s = time.perf_counter() - t0
    return report


def caption_requests(captions: Sequence[CaptionRecord], context_store: FeatureStore,
                     vocab: Vocabulary, noun: str = "caption") -> list[ScoreRequest]:
    """noun names a caption that tokenizes to nothing, as encode_nonempty's does."""
    return [ScoreRequest(encode_nonempty(vocab, caption, noun), None,
                         context_store.get(rec.image_id), None)
            for rec in captions for caption in rec.captions]


def tuple_requests(tuples: Sequence[TrainingTuple], region_store: FeatureStore,
                   context_store: FeatureStore) -> list[ScoreRequest]:
    return [ScoreRequest(t.tokens, region_store.get(t.region_key),
                         context_store.get(t.image_id), t.spatial)
            for t in tuples]


def pretrain_captioning(params: ScrcParams, config: ScrcConfig,
                        captions: Sequence[CaptionRecord], context_store: FeatureStore,
                        vocab: Vocabulary, cfg: TrainConfig,
                        noun: str = "caption") -> TrainReport:
    """Maximize caption likelihood given context features. The local branch
    receives no gradient and keeps its initialization bit for bit; noun is caption_requests'."""
    if not config.caption_mode:
        raise ConfigError("pretraining requires caption_mode")
    return _run_sgd(params, config, caption_requests(captions, context_store, vocab, noun), cfg,
                    "pretrain")


def transfer_weights(params: ScrcParams, config: ScrcConfig):
    """Copy the global branch into the local branch, in place.

    Recurrent weights and biases copy directly; input weights copy over the
    [language-state, feature] columns with the trailing spatial columns set
    to zero; the local prediction matrix becomes a copy of the global one.
    The global branch is untouched.
    """
    local, glob = params.lstm_local, params.lstm_global
    shared = glob.input_dim
    if local.input_dim != shared + config.spatial_dim or local.hidden_dim != glob.hidden_dim:
        raise ConfigError(
            f"cannot transfer: local input dim {local.input_dim} != "
            f"global input dim {shared} + {config.spatial_dim} spatial")
    local.W_x.value[:, :shared] = glob.W_x.value
    local.W_x.value[:, shared:] = 0.0
    local.W_h.value[...] = glob.W_h.value
    local.b.value[...] = glob.b.value
    params.W_local.value[...] = params.W_global.value


def finetune_retrieval(params: ScrcParams, config: ScrcConfig,
                       tuples: Sequence[TrainingTuple], region_store: FeatureStore,
                       context_store: FeatureStore, cfg: TrainConfig) -> TrainReport:
    """Minimize the summed negative log-likelihood of every (object,
    description) tuple, all parameters trainable subject to the masks."""
    if config.caption_mode:
        raise ConfigError("fine-tuning requires full (non-caption) mode")
    return _run_sgd(params, config, tuple_requests(tuples, region_store, context_store), cfg,
                    "finetune")
