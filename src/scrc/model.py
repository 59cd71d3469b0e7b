"""The retrieval scorer: word-sequence likelihood conditioned on a region
descriptor, its spatial layout, and whole-image context.

Three LSTM units run over the token sequence. A language unit consumes the
embedded words; at every step a local unit consumes [language state, region
feature, spatial descriptor] and a global unit consumes [language state,
context feature]. The units run one after another over a block of steps,
the language unit first. A linear two-branch head turns their states into
next-word logits:

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
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, ContractError, InputError, ShapeError
from .geometry import SPATIAL_DIM
from .nncore import (DEFAULT_INIT_RADIUS, LstmParams, LstmState, LstmTrace, ParamTensor,
                     init_uniform, log_softmax, lstm_bptt, lstm_step, packed_row_sums,
                     packed_slices)
from .textproc import BOS_ID, EOS_ID


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
        if self.caption_mode and self.mask_context:
            raise ConfigError("caption_mode with mask_context would read neither the box "
                              "nor the context")

    @property
    def local_input_dim(self) -> int:
        return self.hidden_dim + self.feat_dim + self.spatial_dim

    @property
    def global_input_dim(self) -> int:
        return self.hidden_dim + self.feat_dim

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

    def fused_tensors(self) -> list[ParamTensor]:
        """The 13 arrays that hold every weight; tensors() are views into them."""
        units = (self.lstm_language, self.lstm_local, self.lstm_global)
        return ([self.E] + [t for unit in units for t in unit.fused_tensors()]
                + [self.W_local, self.W_global, self.r])

    def zero_grads(self):
        for t in self.fused_tensors():
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
    """Each unit's state; None is the zero state."""

    lang: Optional[LstmState]
    local: Optional[LstmState]
    glob: Optional[LstmState]


def initial_state(config: ScrcConfig, dtype=np.float32) -> DecoderState:
    """All-zero (H,) vectors."""
    return DecoderState(*(LstmState.zeros(config.hidden_dim, dtype) for _ in range(3)))


def prepare_features(config: ScrcConfig, x_box, x_context, x_spatial,
                     dtype=np.float32, count: Optional[int] = None) -> PreparedFeatures:
    """Validate feature dimensions and apply the mask flags. With count,
    x_box and x_spatial hold one row per candidate, (count, dim)."""
    def coerce(v, shape, name, required):
        if v is None:
            if required:
                raise InputError(f"{name} is required in this mode")
            return np.zeros(shape, dtype=dtype)
        v = np.asarray(v, dtype=dtype)
        if v.shape != shape:
            raise ShapeError(f"{name}: expected shape {shape}, got {v.shape}")
        return v

    need_local = not config.caption_mode
    need_global = not config.mask_context
    rows = () if count is None else (count,)
    box = coerce(x_box, rows + (config.feat_dim,), "x_box", need_local)
    ctx = coerce(x_context, (config.feat_dim,), "x_context", need_global)
    sp = (np.zeros(rows + (config.spatial_dim,), dtype=dtype) if config.mask_spatial
          else coerce(x_spatial, rows + (config.spatial_dim,), "x_spatial", need_local))
    return PreparedFeatures(box, sp, ctx)


@dataclass
class StepRecord:
    """Each unit's state after one step of a trace (None for a skipped unit)."""

    cache_lang: LstmState
    cache_local: Optional[LstmState]
    cache_glob: Optional[LstmState]


@dataclass
class ForwardTrace:
    """One forward pass over B rows. Row b feeds ids[:-1, b] (<bos> and its
    query) and predicts ids[1:, b] (its query and <eos>); ids is padded with
    <eos> to T + 1 = the longest query length plus 2, and live (T, B) marks
    each row's real steps. With caches, units holds the language, local and
    global units' activations (None for a skipped unit), fixed each row's
    [box, spatial] and context inputs, and probs (L, V) each live step's
    next-word distribution, all in the packed layout of the L live cells:
    enough for backprop, which spends them. forward_batch runs the rows
    longest first, so that each step's live rows are a prefix; its targets
    and log_probs stay in request order."""

    targets: Optional[list[list[int]]]  # forward_batch's; None from a scoring pass
    log_probs: np.ndarray
    ids: np.ndarray
    live: np.ndarray
    units: Optional[tuple] = None
    fixed: Optional[tuple] = None
    probs: Optional[np.ndarray] = None

    @property
    def steps(self) -> list[StepRecord]:
        """Per step, each unit's state after it on the step's live rows."""
        return [StepRecord(*(None if u is None else LstmState(u.h[step], u.c[step])
                             for u in self.units))
                for step in packed_slices(self.units[0].counts)]


# A pass of rows is a whole number of blocks of this many columns at each step.
# BLAS rounds a product's column by where it falls in its kernel's blocking;
# whole blocks make each row's bits the same in any batch (pinned in
# tests/test_decoder_core.py).
ROW_BLOCK = 16


class Nodes(NamedTuple):
    """One step's columns of a decoder pass, one per node: the column of
    the previous step's state that each one follows (None: that step's
    columns in order), and the image of the fixed inputs that each one
    takes (None: the fixed inputs as they are). A slice is a prefix of
    columns, taken as a view."""

    count: int
    parents: Union[np.ndarray, slice, None] = None
    images: Union[np.ndarray, slice, None] = None


def _prefix(index: np.ndarray):
    """index, or slice(k) when it is 0, 1, ..., k - 1."""
    return slice(len(index)) if np.array_equal(index, np.arange(len(index))) else index


def _follow(state: Optional[LstmState], parents, per: int) -> Optional[LstmState]:
    """The columns of state, per of them to a node, of the parent nodes."""
    if state is None or parents is None:
        return state
    if isinstance(parents, slice):
        return LstmState(state.h[:, :parents.stop * per], state.c[:, :parents.stop * per])
    if per == 1:  # fancy indexing is the faster gather of a few columns
        return LstmState(state.h[:, parents], state.c[:, parents])
    return LstmState(*(np.take(a.reshape(len(a), -1, per), parents, axis=1).reshape(len(a), -1)
                       for a in (state.h, state.c)))


def _at(fixed: Optional[np.ndarray], images):
    """The (4H, G, .) fixed inputs of the nodes' images; one image broadcasts."""
    if fixed is None or images is None or fixed.shape[1] == 1:
        return fixed
    return fixed[:, images] if isinstance(images, slice) else np.take(fixed, images, axis=1)


def _fix(params: ScrcParams, config: ScrcConfig, feats: PreparedFeatures):
    """lstm_step's x_proj for the local and global units (None if skipped):
    one matrix product each over a pass's G images, feats holding N candidates
    each, (dim, G * N), giving (4H, G, N), and one x_context each, (dim, G),
    giving (4H, G, 1); and r as a column. Each step takes its nodes' images."""
    H, count = config.hidden_dim, feats.x_context.shape[1]
    local = glob = None
    if not config.caption_mode:
        unit = params.lstm_local
        local = (unit.W_x.value[:, H:] @ np.concatenate([feats.x_box, feats.x_spatial])
                 + unit.b.value[:, None]).reshape(4 * H, count, -1)
    if not config.mask_context:
        unit = params.lstm_global
        glob = (unit.W_x.value[:, H:] @ feats.x_context + unit.b.value[:, None])[:, :, None]
    return local, glob, params.r.value[:, None]


def step_logits(params: ScrcParams, config: ScrcConfig, x_word: np.ndarray,
                state: DecoderState, feats: PreparedFeatures):
    """Advance one step from vectors: next-word logits and the updated
    decoder state. The step runs as a one-step block of ROW_BLOCK columns,
    as sequence_log_prob's steps do."""
    def row(v):
        return np.repeat(v[:, None], ROW_BLOCK, axis=1)

    fixed = _fix(params, config, PreparedFeatures(*map(row, vars(feats).values())))
    state = DecoderState(*(LstmState(row(s.h), row(s.c)) for s in vars(state).values()))
    (logits,) = _block(params, config, row(x_word), [Nodes(ROW_BLOCK)], fixed, state)
    return logits[:, 0], DecoderState(*(LstmState(s.h[:, 0], s.c[:, 0])
                                        for s in vars(state).values()))


def _check_query(config: ScrcConfig, query: Sequence[int]) -> list[int]:
    ids = list(query)
    if not ids:
        raise InputError("empty query")
    for t in ids:
        if not 0 <= t < config.vocab_size:
            raise InputError(f"token id {t} out of range for vocab size {config.vocab_size}")
    return ids


def _token_grid(queries: list[list[int]]):
    """(T + 1, Q) token ids, <bos> + query + <eos> down each column and <eos>
    after it; and the (T, Q) mask of the steps each query runs."""
    lengths = np.array([len(q) + 1 for q in queries])
    ids = np.full((lengths.max() + 1, len(queries)), EOS_ID)
    ids[0] = BOS_ID
    for b, q in enumerate(queries):
        ids[1:len(q) + 1, b] = q
    return ids, np.arange(len(ids) - 1)[:, None] < lengths


def _trie(ids: np.ndarray, live: np.ndarray, image: np.ndarray, vocab: int, rows: bool):
    """The prefix trie of a pass's queries, with ids and live from _token_grid
    and each query's image. Step t's nodes are the distinct (image, <bos> +
    first t tokens) prefixes of the queries that run step t, ordered by
    parent and word. Rows, an image each, share no prefix: one node per
    running row, in row order, the count rounded up to whole ROW_BLOCKs with
    dummy nodes that feed <eos> and follow the column of their own index.
    Returns each step's Nodes, its nodes' input words, and its picks: the
    queries that run it, their nodes and their target words."""
    steps, words, picks = [], [], []
    node = image.copy()
    for t, running in enumerate(live):
        run = slice(None) if running.all() else np.flatnonzero(running)
        if rows:
            parents, word = node[run], ids[t, run]
            at = np.arange(len(parents))
            count = len(at) + -len(at) % ROW_BLOCK
            parents = np.concatenate([parents, np.arange(len(at), count)])
            word = np.concatenate([word, np.full(count - len(at), EOS_ID)])
        else:
            keys, at = np.unique(node[run] * vocab + ids[t, run], return_inverse=True)
            parents, word = np.divmod(keys, vocab)
            count = len(keys)
        images = parents if t == 0 else images[parents]
        steps.append(Nodes(count, _prefix(parents) if t else None, _prefix(images)))
        words.append(word)
        picks.append((run, at, ids[t + 1, run]))
        node[run] = at
    return steps, words, picks


def _recur(unit: LstmParams, inputs: np.ndarray, prev: Optional[LstmState], fixed,
           steps: Sequence[Nodes], cols: list[slice], trace: Optional[LstmTrace], first: int):
    """Run a unit over a block of steps from their input products (4H, .),
    step k's at columns cols[k]: the last state, and every step's h at its
    columns. trace records step first + k."""
    h = np.empty((unit.hidden_dim, inputs.shape[1]), inputs.dtype)
    for t, (nodes, step) in enumerate(zip(steps, cols), first):
        prev, gates = lstm_step(unit, inputs[:, step], _follow(prev, nodes.parents, 1),
                                _at(fixed, nodes.images))
        h[:, step] = prev.h
        if trace is not None:
            trace.record(t, prev, gates)
    return prev, h


def _block(params: ScrcParams, config: ScrcConfig, words: np.ndarray, steps: Sequence[Nodes],
           fixed: tuple, state: DecoderState, units=(None,) * 3, first: int = 0):
    """Run a block of steps from their embedded words (E, C), one column per
    node, step k's steps[k].count columns after step k - 1's: a query
    prefix, a row or a beam. Yield each step's logits, (V, count * N) with
    N candidates per node when scoring, or (V, count) without the local
    unit. state, whose None fields are zero states, advances in place: each
    node follows its parent's columns. units' traces record steps first on.
    Each unit's input products over the block are one matrix product over
    its ragged step slices, as is W_global h_global + r; the local unit and
    the W_local head run step by step, so no (nodes * N)-column array
    outlives its step."""
    fixed_local, fixed_glob, r = fixed
    H = config.hidden_dim
    cols = packed_slices([nodes.count for nodes in steps])
    state.lang, h_lang = _recur(params.lstm_language, params.lstm_language.W_x.value @ words,
                                state.lang, None, steps, cols, units[0], first)
    context = np.broadcast_to(r, (len(r), h_lang.shape[1]))
    if not config.mask_context:
        state.glob, h_glob = _recur(params.lstm_global,
                                    params.lstm_global.W_x.value[:, :H] @ h_lang, state.glob,
                                    fixed_glob, steps, cols, units[2], first)
        context = params.W_global.value @ h_glob + r
    local_in = None if config.caption_mode else params.lstm_local.W_x.value[:, :H] @ h_lang
    for t, (nodes, step) in enumerate(zip(steps, cols), first):
        logits = context[:, step]
        if local_in is not None:
            state.local, gates = lstm_step(
                params.lstm_local, local_in[:, step],
                _follow(state.local, nodes.parents, fixed_local.shape[2]),
                _at(fixed_local, nodes.images))
            if units[1] is not None:
                units[1].record(t, state.local, gates)
            # a node's context column broadcasts over its candidates
            logits = params.W_local.value @ state.local.h
            logits.reshape(len(logits), nodes.count, -1)[...] += context[:, step, None]
        yield logits


def _blocks(counts: list[int]) -> Iterator[tuple[int, int]]:
    """(first, stop) of each block of consecutive steps whose columns fit
    MAX_PASS_COLUMNS, or of one step."""
    first, used = 0, 0
    for t, count in enumerate(counts):
        if t > first and used + count > MAX_PASS_COLUMNS:
            yield first, t
            first, used = t, 0
        used += count
    yield first, len(counts)


def _decode(params: ScrcParams, config: ScrcConfig, queries: list[list[int]],
            feats: Sequence[PreparedFeatures], keep_trace: bool = False) -> ForwardTrace:
    """Sum the target log-probs of <bos> + query + <eos> in float64, in step
    order: (Q, N). feats[q] is query q's image, x_box and x_spatial rows of
    its N candidates (the same N for all) and x_context; consecutive queries
    with the same feats share it. The pass steps each node of its prefix
    trie once (_trie): step t's columns are its depth-t nodes, so queries of
    an image share the columns of their common prefix, and a query picks
    its target's log-prob from its node's log_softmax column at each step.
    One-candidate images run as rows: one image per query, so no shared
    prefix, and each step's live rows rounded up to whole ROW_BLOCKs, with
    zero dummy images at step 0; the dummy columns count in no sum and no
    trace. The steps run in _blocks whose node columns fit MAX_PASS_COLUMNS,
    from the zero state."""
    single = len(np.atleast_2d(feats[0].x_box)) == 1
    new = [single or k == 0 or f is not feats[k - 1] for k, f in enumerate(feats)]
    images = [f for f, first in zip(feats, new) if first]
    pad = -len(images) % ROW_BLOCK if single else 0
    cols = PreparedFeatures(*(
        np.concatenate([*map(np.atleast_2d, field), np.zeros((pad, field[0].shape[-1]),
                                                               params.dtype)]).T
        for field in zip(*(vars(f).values() for f in images))))
    ids, live = _token_grid(queries)
    steps, words, picks = _trie(ids, live, np.cumsum(new) - 1, config.vocab_size, single)
    fixed = _fix(params, config, cols)
    rows, count = len(queries), cols.x_box.shape[1] // cols.x_context.shape[1]
    units, probs = (None, None, None), None
    if keep_trace:
        counts = live.sum(axis=1).tolist()
        units = tuple(None if skip else LstmTrace.zeros(counts, config.hidden_dim, params.dtype)
                      for skip in (False, config.caption_mode, config.mask_context))
        probs = np.zeros((sum(counts), config.vocab_size), dtype=params.dtype)
        packed = packed_slices(counts)
    total = np.zeros((rows, count))
    state = DecoderState(None, None, None)
    for first, stop in _blocks([nodes.count for nodes in steps]):
        # take's C-ordered copy, unlike E[:, ids]'s F-ordered one, keeps W_x @ words fast
        embedded = np.take(params.E.value, np.concatenate(words[first:stop]), axis=1)
        for t, logits in enumerate(_block(params, config, embedded, steps[first:stop], fixed,
                                          state, units, first), first):
            logp = log_softmax(logits)
            run, at, targets = picks[t]
            total[run] += logp.reshape(len(logp), steps[t].count, -1)[targets, at]
            if keep_trace:
                probs[packed[t]] = np.exp(logp[:, :counts[t]]).T
    fixed_rows = (np.concatenate([cols.x_box, cols.x_spatial])[:, :rows].T,
                  cols.x_context[:, :rows].T) if keep_trace else None
    return ForwardTrace(None, total, ids, live, units if keep_trace else None, fixed_rows, probs)


def forward_batch(params: ScrcParams, config: ScrcConfig, requests: Sequence[ScoreRequest],
                  keep_trace: bool = True) -> ForwardTrace:
    """One forward pass over the requests, one column per row, with per-row
    log probabilities equal to sequence_log_prob's bit for bit. The rows run
    longest first, in a stable sort, so that each step's live rows are a
    prefix of the columns, which the trace records packed. The trace's
    targets and log_probs are in request order."""
    if not requests:
        raise InputError("empty batch")
    params.check_config(config)
    queries = [_check_query(config, r.query) for r in requests]
    feats = [prepare_features(config, r.x_box, r.x_context, r.x_spatial, dtype=params.dtype)
             for r in requests]
    order = sorted(range(len(queries)), key=lambda k: -len(queries[k]))
    trace = _decode(params, config, [queries[k] for k in order], [feats[k] for k in order],
                    keep_trace)
    log_probs = np.empty(len(order))
    log_probs[order] = trace.log_probs[:, 0]
    return dataclasses.replace(trace, targets=[q + [EOS_ID] for q in queries],
                               log_probs=log_probs)


def sequence_log_prob(params: ScrcParams, config: ScrcConfig, request: ScoreRequest) -> float:
    """log p(query, <eos> | features): the sum over steps of the target
    word's log-probability, starting from the <bos> marker."""
    return float(forward_batch(params, config, [request], keep_trace=False).log_probs[0])


def forward_trace(params: ScrcParams, config: ScrcConfig, request: ScoreRequest) -> ForwardTrace:
    return forward_batch(params, config, [request], keep_trace=True)


# Columns of one decoder pass: queries x candidates when scoring, so at most
# this many trie nodes x candidates at any step, and beams when generating. An
# image with more is scored in query chunks, so memory does not grow with its
# query count; a wider beam is refused.
MAX_PASS_COLUMNS = 1024
# Tokens of a generated description before the forced <eos>: each is a decoder
# step, so an unbounded max_len could run without end.
MAX_GENERATE_LEN = 1024


def score_candidates(params: ScrcParams, config: ScrcConfig,
                     requests: Sequence[ScoreRequest]) -> list[float]:
    """Score each request; output order matches input order. Each group of
    requests sharing query and context is an image of score_images with one
    query, so the language and global units and the W_global h_global + r
    term run once per group, and groups of equal size share passes.
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
    images = (([query], np.stack([f.x_box for _, f in members]),
               np.stack([f.x_spatial for _, f in members]), members[0][1].x_context)
              for (query, _), members in groups.items())
    for members, total in zip(groups.values(), score_images(params, config, images)):
        for (idx, _), score in zip(members, total[0].tolist()):
            scores[idx] = score
    return scores


def score_image(params: ScrcParams, config: ScrcConfig, queries: Sequence[Sequence[int]],
                x_boxes, x_spatials, x_context) -> np.ndarray:
    """Score each of Q queries against each of an image's N candidates:
    (Q, N) float64 log p(query, <eos> | box, spatial code, context). x_boxes
    is (N, feat) and x_spatials (N, 8), one row per candidate."""
    return next(score_images(params, config, [(queries, x_boxes, x_spatials, x_context)]))


def score_images(params: ScrcParams, config: ScrcConfig, images) -> Iterator[np.ndarray]:
    """score_image over an iterable of (queries, x_boxes, x_spatials, x_context),
    yielding each image's scores in turn. A decoder pass takes consecutive
    queries of images with the same N, MAX_PASS_COLUMNS // N of them or one; a
    new N starts the next, so memory is bounded by one pass and its images.
    Within a pass, each image's queries share the nodes of their common
    prefixes (_decode); an image split across two passes shares none across
    them."""
    params.check_config(config)
    waiting, batch = [], []  # unyielded images' scores; the pass: (query, feats, scores, row)

    def run():
        if batch:
            total = _decode(params, config, [b[0] for b in batch], [b[1] for b in batch])
            for (_, _, scores, row), got in zip(batch, total.log_probs):
                scores[row] = got
        batch.clear()

    for queries, x_boxes, x_spatials, x_context in images:
        queries, count = [_check_query(config, q) for q in queries], len(x_boxes)
        if not queries or not count:
            raise InputError("scoring needs at least one query and one candidate")
        feats = prepare_features(config, x_boxes, x_context, x_spatials, params.dtype, count)
        if batch and len(batch[0][1].x_box) != count:
            run()
        waiting.append(np.empty((len(queries), count)))
        for row, query in enumerate(queries):
            batch.append((query, feats, waiting[-1], row))
            if len(batch) == max(1, MAX_PASS_COLUMNS // count):
                run()
        while waiting and not (batch and batch[0][2] is waiting[0]):
            yield waiting.pop(0)
    run()
    yield from waiting


def backward(params: ScrcParams, config: ScrcConfig, trace: ForwardTrace,
             targets: Sequence[list[int]], scale: float = 1.0):
    """Accumulate gradients of scale * (-log-likelihood), summed over the
    trace's rows, into params: one backward pass through time over the
    trace's packed layout, the L live (step, row) cells in step order, and
    one matrix product over those L steps per weight gradient.

    Branches disabled by the mode flags receive exactly zero gradient; so
    do the spatial input columns of the local unit when mask_spatial is set.
    Gradients overwrite the trace's probs and gate buffers in place, which
    saves their copies; the trace is then spent.
    """
    params.check_config(config)
    if list(targets) != trace.targets:
        raise ContractError("trace was produced for a different target sequence")
    if trace.probs is None:
        raise ContractError("trace lacks per-step caches or backward spent them; use forward_trace")
    live = trace.live
    if not np.array_equal(live, np.arange(live.shape[1]) < live.sum(axis=1)[:, None]):
        raise ContractError("trace rows do not run longest first; use forward_batch")
    H = config.hidden_dim

    dlogits = trace.probs
    trace.probs = None
    dlogits[np.arange(len(dlogits)), trace.ids[1:][live]] -= 1.0
    if scale != 1.0:
        dlogits *= scale
    params.r.grad += dlogits.sum(axis=0)
    lang, local, glob = trace.units
    dh_lang = np.zeros_like(lang.h)
    for unit, W, unit_trace, fixed in ((params.lstm_local, params.W_local, local, trace.fixed[0]),
                                       (params.lstm_global, params.W_global, glob, trace.fixed[1])):
        if unit_trace is None:
            continue
        W.grad += dlogits.T @ unit_trace.h
        grads = lstm_bptt(unit, unit_trace, dlogits @ W.value)
        unit.W_x.grad[:, :H] += grads.T @ lang.h
        # the fixed inputs are the same at every step of a row
        unit.W_x.grad[:, H:] += packed_row_sums(grads, unit_trace.counts).T @ fixed
        dh_lang += grads @ unit.W_x.value[:, :H]
        del grads  # one gradient buffer alive at a time keeps the peak memory down
    del dlogits
    grads = lstm_bptt(params.lstm_language, lang, dh_lang)
    inputs = trace.ids[:-1][live]
    params.lstm_language.W_x.grad += grads.T @ params.E.value.T[inputs]
    np.add.at(params.E.grad.T, inputs, grads @ params.lstm_language.W_x.value)


def check_beam(beam_width: int, max_len: int):
    """Refuse a beam width or description length that generate_description cannot run."""
    if not 1 <= beam_width <= MAX_PASS_COLUMNS:
        raise InputError(f"beam_width must be from 1 to {MAX_PASS_COLUMNS}, got {beam_width}")
    if not 1 <= max_len <= MAX_GENERATE_LEN:
        raise InputError(f"max_len must be from 1 to {MAX_GENERATE_LEN}, got {max_len}")


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
    check_beam(beam_width, max_len)
    params.check_config(config)
    feats = prepare_features(config, x_box, x_context, x_spatial, dtype=params.dtype)
    fixed = _fix(params, config, PreparedFeatures(feats.x_box[:, None], feats.x_spatial[:, None],
                                                  feats.x_context[:, None]))
    state = DecoderState(None, None, None)
    content = np.delete(np.arange(config.vocab_size), BOS_ID)
    beams = [(0.0, (), 0, BOS_ID)]  # (log-prob, tokens, parent column, last token)
    finished: list[tuple[float, tuple[int, ...]]] = []
    while beams:
        (logits,) = _block(params, config, np.take(params.E.value, [b[3] for b in beams], axis=1),
                           [Nodes(len(beams), np.array([b[2] for b in beams]))], fixed, state)
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
