"""The benchmark's own reference checker.

A float64 numpy scorer that reads the weights by their checkpoint tensor
names ("E", "lstm_local.W_xi", ..., "r") and nothing else of the package,
so it keeps working when the package's model code is rewritten. It
re-scores a fixed sample of each workload's outputs outside the timed
region; every check returns a list of problems, empty when the output is
right.

The language and global units do not depend on the candidate, so they run
once per query; the local unit runs on all candidates as one matrix
product.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

BOS_ID, EOS_ID = 1, 2
GATES = ("i", "f", "o", "g")

# float32 program against float64 reference: summed log-probabilities of
# up to 11 steps over vocabularies of a few thousand words.
SCORE_ATOL = 1e-3
SCORE_RTOL = 1e-4


def score_tolerance(score: float) -> float:
    return SCORE_ATOL + SCORE_RTOL * abs(score)


def spatial_descriptor(box, width: float, height: float) -> np.ndarray:
    """The 8-d layout [x_min, y_min, x_max, y_max, x_center, y_center, w, h]
    with both image sides mapped to [-1, 1]."""
    x0, x1 = (2.0 * box[0] / width - 1.0, 2.0 * box[2] / width - 1.0)
    y0, y1 = (2.0 * box[1] / height - 1.0, 2.0 * box[3] / height - 1.0)
    return np.array([x0, y0, x1, y1, (x0 + x1) / 2, (y0 + y1) / 2, x1 - x0, y1 - y0])


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


class ReferenceScorer:
    def __init__(self, weights: Mapping[str, np.ndarray]):
        def w(name):
            return np.asarray(weights[name], dtype=np.float64)

        def unit(prefix):
            return (np.vstack([w(f"{prefix}.W_x{g}") for g in GATES]),
                    np.vstack([w(f"{prefix}.W_h{g}") for g in GATES]),
                    np.concatenate([w(f"{prefix}.b_{g}") for g in GATES]))

        self.E = w("E")
        self.lang = unit("lstm_language")
        self.local = unit("lstm_local")
        self.glob = unit("lstm_global")
        self.W_local, self.W_global, self.r = w("W_local"), w("W_global"), w("r")
        self.hidden = self.lang[1].shape[1]

    @staticmethod
    def _step(pre, c):
        """Gate pre-activations (4H, N) and cell (H, N) -> (h, c)."""
        i, f, o, g = np.split(pre, 4)
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        return _sigmoid(o) * np.tanh(c), c

    def score_many(self, tokens: Sequence[int], x_boxes, x_spatials, x_context) -> np.ndarray:
        """log p(tokens, <eos> | candidate) for N candidates sharing the
        query and the image: x_boxes (N, F), x_spatials (N, 8), x_context (F,)."""
        H = self.hidden
        boxes = np.asarray(x_boxes, dtype=np.float64)
        spatials = np.asarray(x_spatials, dtype=np.float64)
        ctx = np.asarray(x_context, dtype=np.float64)
        n = boxes.shape[0]
        Wx_l, Wh_l, b_l = self.lang
        Wx_c, Wh_c, b_c = self.local
        Wx_g, Wh_g, b_g = self.glob
        # input projections that stay constant over the sequence
        local_const = (Wx_c[:, H:] @ np.hstack([boxes, spatials]).T) + b_c[:, None]
        glob_const = Wx_g[:, H:] @ ctx + b_g
        h_l = c_l = np.zeros(H)
        h_g = c_g = np.zeros(H)
        h_c = c_c = np.zeros((H, n))
        total = np.zeros(n)
        inputs = [BOS_ID] + list(tokens)
        targets = list(tokens) + [EOS_ID]
        for w_in, w_tgt in zip(inputs, targets):
            h_l, c_l = self._step(Wx_l @ self.E[:, w_in] + Wh_l @ h_l + b_l, c_l)
            h_g, c_g = self._step(Wx_g[:, :H] @ h_l + Wh_g @ h_g + glob_const, c_g)
            pre = local_const + (Wx_c[:, :H] @ h_l)[:, None] + Wh_c @ h_c
            h_c, c_c = self._step(pre, c_c)
            logits = self.W_local @ h_c + (self.W_global @ h_g + self.r)[:, None]
            shift = logits.max(axis=0)
            log_z = shift + np.log(np.exp(logits - shift).sum(axis=0))
            total += logits[w_tgt] - log_z
        return total

    def score(self, tokens, x_box, x_spatial, x_context) -> float:
        return float(self.score_many(tokens, [x_box], [x_spatial], x_context)[0])

    def mean_nll(self, samples) -> float:
        """Mean negative log-likelihood of (tokens, x_box, x_spatial, x_context)."""
        return -sum(self.score(*s) for s in samples) / len(samples)


def check_ranking(scores: Sequence[float], top1: int, reference: Sequence[float]) -> list[str]:
    """The program's scores match the reference and its top-1 candidate is
    the reference's best (up to a tie within tolerance)."""
    problems = []
    if len(scores) != len(reference):
        return [f"{len(scores)} scores for {len(reference)} candidates"]
    for idx, (got, want) in enumerate(zip(scores, reference)):
        if not abs(got - want) <= score_tolerance(want):
            problems.append(f"candidate {idx}: score {got!r}, reference {want!r}")
    best = int(np.argmax(reference))
    if reference[top1] < reference[best] - score_tolerance(reference[best]):
        problems.append(f"top-1 is candidate {top1}, reference best is {best}")
    return problems


def check_log_prob(log_prob: float, reference: float) -> list[str]:
    if not abs(log_prob - reference) <= score_tolerance(reference):
        return [f"log_prob {log_prob!r}, reference {reference!r}"]
    return []


def check_training(losses: Sequence[float], nll_before: float, nll_after: float) -> list[str]:
    problems = [f"non-finite training loss {v!r}" for v in losses if not math.isfinite(v)]
    if not nll_after < nll_before:
        problems.append(f"training NLL did not fall: {nll_before!r} -> {nll_after!r}")
    return problems


def check_eval_report(report: dict, query_count: int) -> list[str]:
    """The proposals-scenario report covers every query and its recalls are
    ordered fractions; every synthetic ground-truth box is a proposal."""
    problems = []
    if report.get("scenario") != "proposals":
        problems.append(f"scenario {report.get('scenario')!r}")
    if report.get("query_count") != query_count:
        problems.append(f"query_count {report.get('query_count')!r}, expected {query_count}")
    r1, r10, oracle = (report.get(k) for k in ("r_at_1", "r_at_10", "oracle"))
    if not all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in (r1, r10, oracle)):
        problems.append(f"metrics out of range: {report}")
    elif not r1 <= r10 <= oracle == 1.0:
        problems.append(f"metrics inconsistent: r_at_1 {r1}, r_at_10 {r10}, oracle {oracle}")
    return problems
