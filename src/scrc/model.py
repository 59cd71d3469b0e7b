"""The retrieval scorer: word-sequence likelihood conditioned on a region
descriptor, its spatial layout, and whole-image context.

Three LSTM units run in lockstep over the token sequence. A language unit
consumes the embedded words; at every step a local unit consumes
[language state, region feature, spatial descriptor] and a global unit
consumes [language state, context feature]. A linear two-branch head turns
their states into next-word logits:

    logits_t = W_local h_local_t + W_global h_global_t + r

A candidate's score is the log-likelihood of the query under this model,
with a <bos> marker feeding the first step and an <eos> term closing the
sum so that scores of different-length sequences are comparable.

Mode flags:
  caption_mode  - drop the W_local term and skip the local unit entirely;
                  the model then scores/generates from context alone.
  mask_context  - drop the W_global term (the global unit is skipped since
                  its output would be unused).
  mask_spatial  - zero the spatial entries of the local unit's input.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, InputError, ShapeError
from .geometry import SPATIAL_DIM
from .nncore import (DEFAULT_INIT_RADIUS, LstmParams, LstmState, LstmStepCache,
                     ParamTensor, init_uniform, log_softmax, lstm_step, lstm_step_backward)
from .textproc import BOS_ID, EOS_ID

_CONFIG_KEYS = ("vocab_size", "embed_dim", "hidden_dim", "feat_dim", "spatial_dim",
                "caption_mode", "mask_spatial", "mask_context")


@dataclass(frozen=True)
class ScrcConfig:
    vocab_size: int
    embed_dim: int
    hidden_dim: int
    feat_dim: int
    spatial_dim: int = SPATIAL_DIM
    caption_mode: bool = False
    mask_spatial: bool = False
    mask_context: bool = False

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "feat_dim"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.spatial_dim != SPATIAL_DIM:
            raise ConfigError(f"spatial_dim is fixed at {SPATIAL_DIM}, got {self.spatial_dim}")
        if self.vocab_size < 3:
            raise ConfigError("vocab_size must cover the three reserved tokens")

    @property
    def local_input_dim(self) -> int:
        return self.hidden_dim + self.feat_dim + self.spatial_dim

    @property
    def global_input_dim(self) -> int:
        return self.hidden_dim + self.feat_dim

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in _CONFIG_KEYS}

    @classmethod
    def from_dict(cls, d: dict) -> "ScrcConfig":
        unknown = set(d) - set(_CONFIG_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    def replace(self, **changes) -> "ScrcConfig":
        return dataclasses.replace(self, **changes)


class ScrcParams:
    """All learnable weights: embedding, three LSTM units, prediction head."""

    def __init__(self, config: ScrcConfig, dtype=np.float32):
        """All-zero parameters."""
        V, H = config.vocab_size, config.hidden_dim
        self.E = ParamTensor.zeros("E", (config.embed_dim, V), dtype)
        self.lstm_language = LstmParams("lstm_language", H, config.embed_dim, dtype)
        self.lstm_local = LstmParams("lstm_local", H, config.local_input_dim, dtype)
        self.lstm_global = LstmParams("lstm_global", H, config.global_input_dim, dtype)
        self.W_local = ParamTensor.zeros("W_local", (V, H), dtype)
        self.W_global = ParamTensor.zeros("W_global", (V, H), dtype)
        self.r = ParamTensor.zeros("r", (V,), dtype)

    @classmethod
    def init(cls, config: ScrcConfig, rng: np.random.Generator,
             radius: float = DEFAULT_INIT_RADIUS, dtype=np.float32) -> "ScrcParams":
        """Uniform weights, zero biases. Draw order: E, language unit, local
        unit, global unit, W_local, W_global (r is a bias, zero)."""
        params = cls(config, dtype)
        units = (params.lstm_language, params.lstm_local, params.lstm_global)
        for t in ([params.E] + [w for unit in units for w in (unit.W_x, unit.W_h)]
                  + [params.W_local, params.W_global]):
            t.value[...] = init_uniform(rng, t.value.shape, radius, dtype)
        return params

    def tensors(self) -> list[ParamTensor]:
        return ([self.E] + self.lstm_language.tensors() + self.lstm_local.tensors()
                + self.lstm_global.tensors() + [self.W_local, self.W_global, self.r])

    def zero_grads(self):
        for t in self.tensors():
            t.zero_grad()

    @property
    def dtype(self):
        return self.E.value.dtype

    def check_config(self, config: ScrcConfig):
        if (self.E.value.shape != (config.embed_dim, config.vocab_size)
                or self.lstm_language.input_dim != config.embed_dim
                or self.lstm_language.hidden_dim != config.hidden_dim
                or self.lstm_local.input_dim != config.local_input_dim
                or self.lstm_global.input_dim != config.global_input_dim
                or self.W_local.value.shape != (config.vocab_size, config.hidden_dim)):
            raise ConfigError("parameter shapes do not match the configuration")


@dataclass
class ScoreRequest:
    """One (query, candidate) scoring instance. The feature vectors may be
    None for branches the active mode never reads."""

    query: Sequence[int]
    x_box: Optional[np.ndarray]
    x_context: Optional[np.ndarray]
    x_spatial: Optional[np.ndarray]


@dataclass
class PreparedFeatures:
    x_box: np.ndarray
    x_spatial: np.ndarray
    x_context: np.ndarray


@dataclass
class DecoderState:
    lang: LstmState
    local: LstmState
    glob: LstmState


def initial_state(config: ScrcConfig, dtype=np.float32,
                  columns: Optional[int] = None) -> DecoderState:
    """All-zero (H,) vectors, or columns: `columns` local, one per other unit."""
    H = config.hidden_dim
    shared, local = ((H,), (H,)) if columns is None else ((H, 1), (H, columns))
    return DecoderState(LstmState.zeros(shared, dtype), LstmState.zeros(local, dtype),
                        LstmState.zeros(shared, dtype))


def prepare_features(config: ScrcConfig, x_box, x_context, x_spatial,
                     dtype=np.float32) -> PreparedFeatures:
    """Validate feature dimensions and apply the mask flags."""
    def coerce(v, dim, name, required):
        if v is None:
            if required:
                raise InputError(f"{name} is required in this mode")
            return np.zeros(dim, dtype=dtype)
        v = np.asarray(v, dtype=dtype)
        if v.shape != (dim,):
            raise ShapeError(f"{name}: expected shape ({dim},), got {v.shape}")
        return v

    need_local = not config.caption_mode
    need_global = not config.mask_context
    box = coerce(x_box, config.feat_dim, "x_box", need_local)
    ctx = coerce(x_context, config.feat_dim, "x_context", need_global)
    sp = (np.zeros(config.spatial_dim, dtype=dtype) if config.mask_spatial
          else coerce(x_spatial, config.spatial_dim, "x_spatial", need_local))
    return PreparedFeatures(box, sp, ctx)


@dataclass
class StepRecord:
    input_id: int
    cache_lang: LstmStepCache
    cache_local: Optional[LstmStepCache]
    cache_glob: Optional[LstmStepCache]
    probs: np.ndarray


@dataclass
class ForwardTrace:
    """Per-step caches of one scoring pass, sufficient for backprop."""

    targets: list[int]
    steps: list[StepRecord]
    log_prob: float


def _fix(params: ScrcParams, config: ScrcConfig, feats: PreparedFeatures):
    """The local and global units' fixed inputs, and r shaped like a column of
    logits. Vectors keep the raw inputs, which the backprop caches need;
    columns hold each unit's input projection plus bias (None if skipped)."""
    local_in = np.concatenate([feats.x_box, feats.x_spatial])
    if feats.x_context.ndim == 1:
        return local_in, feats.x_context, params.r.value
    H = config.hidden_dim
    local = glob = None
    if not config.caption_mode:
        unit = params.lstm_local
        local = unit.W_x.value[:, H:] @ local_in + unit.b.value[:, None]
    if not config.mask_context:
        unit = params.lstm_global
        glob = unit.W_x.value[:, H:] @ feats.x_context + unit.b.value[:, None]
    return local, glob, params.r.value[:, None]


def _unit_step(unit: LstmParams, h_lang: np.ndarray, prev: LstmState, fixed: np.ndarray):
    """Step a local or global unit, whose input is [h_lang, fixed part]."""
    if h_lang.ndim == 1:
        return lstm_step(unit, np.concatenate([h_lang, fixed]), prev)
    return lstm_step(unit, h_lang, prev, fixed)


def _advance(params: ScrcParams, config: ScrcConfig, x_word: np.ndarray,
             state: DecoderState, fixed: tuple):
    """The decoder core's step: logits, new state and unit caches. On
    columns, the language and global units run one per query or beam and
    the local unit one per candidate or beam; logits are (V, columns)."""
    fixed_local, fixed_glob, r = fixed
    lang, cache_lang = lstm_step(params.lstm_language, x_word, state.lang)
    local, cache_local = state.local, None
    glob, cache_glob = state.glob, None
    logits = r.copy()
    if not config.mask_context:
        glob, cache_glob = _unit_step(params.lstm_global, lang.h, state.glob, fixed_glob)
        logits = params.W_global.value @ glob.h + logits
    if not config.caption_mode:
        local, cache_local = _unit_step(params.lstm_local, lang.h, state.local, fixed_local)
        logits = params.W_local.value @ local.h + logits
    return logits, DecoderState(lang, local, glob), (cache_lang, cache_local, cache_glob)


def step_logits(params: ScrcParams, config: ScrcConfig, x_word: np.ndarray,
                state: DecoderState, feats: PreparedFeatures):
    """Advance one step: next-word logits and the updated decoder state."""
    logits, new_state, _ = _advance(params, config, x_word, state, _fix(params, config, feats))
    return logits, new_state


def _check_query(config: ScrcConfig, query: Sequence[int]) -> list[int]:
    ids = list(query)
    if not ids:
        raise InputError("empty query")
    for t in ids:
        if not 0 <= t < config.vocab_size:
            raise InputError(f"token id {t} out of range for vocab size {config.vocab_size}")
    return ids


def _decode(params: ScrcParams, config: ScrcConfig, query: list[int],
            feats: PreparedFeatures, keep_trace: bool):
    """Sum the target log-probs of <bos> + query in float64; returns (sum,
    step records). feats are vectors, or columns for N candidates (x_context
    (dim, 1)): the sum is then (N,), or (1,) if no unit reads the box."""
    columns = feats.x_box.shape[1] if feats.x_box.ndim == 2 else None
    fixed = _fix(params, config, feats)
    state = initial_state(config, params.dtype, columns)
    steps: list[StepRecord] = []
    total = np.float64(0.0)
    for w_in, w_tgt in zip([BOS_ID] + query, query + [EOS_ID]):
        x_word = params.E.value[:, w_in if columns is None else [w_in]]
        logits, state, caches = _advance(params, config, x_word, state, fixed)
        logp = log_softmax(logits)
        total = total + logp[w_tgt]
        if keep_trace:
            steps.append(StepRecord(w_in, *caches, np.exp(logp)))
    return total, steps


def _forward(params: ScrcParams, config: ScrcConfig, request: ScoreRequest,
             keep_trace: bool) -> ForwardTrace:
    params.check_config(config)
    query = _check_query(config, request.query)
    feats = prepare_features(config, request.x_box, request.x_context, request.x_spatial,
                             dtype=params.dtype)
    total, steps = _decode(params, config, query, feats, keep_trace)
    return ForwardTrace(query + [EOS_ID], steps, float(total))


def sequence_log_prob(params: ScrcParams, config: ScrcConfig, request: ScoreRequest) -> float:
    """log p(query, <eos> | features): the sum over steps of the target
    word's log-probability, starting from the <bos> marker."""
    return _forward(params, config, request, keep_trace=False).log_prob


def forward_trace(params: ScrcParams, config: ScrcConfig, request: ScoreRequest) -> ForwardTrace:
    return _forward(params, config, request, keep_trace=True)


def score_candidates(params: ScrcParams, config: ScrcConfig,
                     requests: Sequence[ScoreRequest]) -> list[float]:
    """Score each request; output order matches input order. Per group of
    requests sharing query and context, the language and global units and
    the W_global h_global + r term run once, and the local unit and W_local
    head run on all the group's candidates as one matrix product per step.
    """
    if not requests:
        raise InputError("empty candidate list")
    params.check_config(config)
    groups: dict[tuple, list[tuple[int, PreparedFeatures]]] = {}
    for idx, req in enumerate(requests):
        try:
            query = _check_query(config, req.query)
            feats = prepare_features(config, req.x_box, req.x_context, req.x_spatial,
                                     dtype=params.dtype)
        except (ShapeError, InputError) as e:
            raise type(e)(f"candidate {idx}: {e}") from e
        groups.setdefault((tuple(query), feats.x_context.tobytes()), []).append((idx, feats))

    scores = [0.0] * len(requests)
    for (query, _), members in groups.items():
        # a lone candidate runs as vectors, exactly as sequence_log_prob does
        feats = members[0][1] if len(members) == 1 else PreparedFeatures(
            np.stack([f.x_box for _, f in members], axis=1),
            np.stack([f.x_spatial for _, f in members], axis=1),
            members[0][1].x_context[:, None])
        total, _ = _decode(params, config, list(query), feats, keep_trace=False)
        for (idx, _), score in zip(members, np.broadcast_to(total, (len(members),))):
            scores[idx] = float(score)
    return scores


def backward(params: ScrcParams, config: ScrcConfig, trace: ForwardTrace,
             targets: Sequence[int], scale: float = 1.0):
    """Accumulate gradients of scale * (-log-likelihood) into params.

    Branches disabled by the mode flags receive exactly zero gradient; so do
    the spatial input columns of the local unit when mask_spatial is set.
    """
    params.check_config(config)
    if list(targets) != trace.targets:
        raise ContractError("trace was produced for a different target sequence")
    if not trace.steps or len(trace.steps) != len(trace.targets):
        raise ContractError("trace lacks per-step caches; use forward_trace")
    hidden = config.hidden_dim
    zeros = np.zeros(hidden, dtype=params.dtype)  # only ever read
    dh_lang_next = dc_lang_next = dh_local_next = dc_local_next = zeros
    dh_glob_next = dc_glob_next = zeros

    for t in reversed(range(len(trace.steps))):
        rec = trace.steps[t]
        dlogits = rec.probs.copy()
        dlogits[trace.targets[t]] -= 1.0
        if scale != 1.0:
            dlogits *= scale
        params.r.grad += dlogits
        dh_lang = dh_lang_next
        if not config.caption_mode:
            h_local = rec.cache_local.h
            params.W_local.grad += np.outer(dlogits, h_local)
            dh_local = params.W_local.value.T @ dlogits + dh_local_next
            dx_local, dh_local_next, dc_local_next = lstm_step_backward(
                params.lstm_local, rec.cache_local, dh_local, dc_local_next)
            dh_lang = dh_lang + dx_local[:hidden]
        if not config.mask_context:
            h_glob = rec.cache_glob.h
            params.W_global.grad += np.outer(dlogits, h_glob)
            dh_glob = params.W_global.value.T @ dlogits + dh_glob_next
            dx_glob, dh_glob_next, dc_glob_next = lstm_step_backward(
                params.lstm_global, rec.cache_glob, dh_glob, dc_glob_next)
            dh_lang = dh_lang + dx_glob[:hidden]
        dx_lang, dh_lang_next, dc_lang_next = lstm_step_backward(
            params.lstm_language, rec.cache_lang, dh_lang, dc_lang_next)
        params.E.grad[:, rec.input_id] += dx_lang


def generate_description(params: ScrcParams, config: ScrcConfig, x_box, x_context,
                         x_spatial, beam_width: int, max_len: int):
    """Beam-search for the most likely token sequence given the features.

    Every hypothesis terminates with the <eos> term (hypotheses reaching
    max_len are forced to take it), so all scores are directly comparable
    with sequence scoring. Ties break toward the lexicographically smaller
    token-id sequence. Returns (token ids, log-probability).

    Live beams advance as one batch; each round sorts only the extensions
    at or above the beam_width-th best, which hold all a full sort would pick.
    """
    if beam_width < 1:
        raise InputError(f"beam_width must be >= 1, got {beam_width}")
    if max_len < 1:
        raise InputError(f"max_len must be >= 1, got {max_len}")
    params.check_config(config)
    feats = prepare_features(config, x_box, x_context, x_spatial, dtype=params.dtype)
    fixed = _fix(params, config, PreparedFeatures(feats.x_box[:, None], feats.x_spatial[:, None],
                                                  feats.x_context[:, None]))
    state = initial_state(config, params.dtype, columns=1)
    content = np.array([t for t in range(config.vocab_size) if t != BOS_ID])
    beams = [(0.0, (), 0, BOS_ID)]  # (log-prob, tokens, parent column, last token)
    finished: list[tuple[float, tuple[int, ...]]] = []
    while beams:
        parents = [b[2] for b in beams]
        state = DecoderState(*(LstmState(s.h[:, parents], s.c[:, parents])
                               for s in (state.lang, state.local, state.glob)))
        logits, state, _ = _advance(params, config, params.E.value[:, [b[3] for b in beams]],
                                    state, fixed)
        choices = content if len(beams[0][1]) < max_len else np.array([EOS_ID])
        totals = (np.array([b[0] for b in beams])[:, None]
                  + log_softmax(logits).T[:, choices]).ravel()
        cut = totals.size - min(beam_width, totals.size)
        kept = []
        for flat in np.flatnonzero(totals >= np.partition(totals, cut)[cut]):
            parent, col = divmod(int(flat), len(choices))
            tid = int(choices[col])
            toks = beams[parent][1] + (() if tid == EOS_ID else (tid,))
            kept.append((float(totals[flat]), toks, parent, tid))
        kept.sort(key=lambda c: (-c[0], c[1]))
        finished += [c[:2] for c in kept[:beam_width] if c[3] == EOS_ID]
        beams = [c for c in kept[:beam_width] if c[3] != EOS_ID]

    best_lp, best_toks = min(finished, key=lambda f: (-f[0], f[1]))
    return list(best_toks), best_lp
