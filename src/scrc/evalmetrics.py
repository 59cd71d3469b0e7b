"""Retrieval evaluation: P@1 over annotated boxes, and R@k / Oracle over
proposal boxes with hits at IoU >= 0.5."""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .datastore import _atomic_write
from .errors import InputError
from .geometry import IOU_HIT_THRESHOLD, iou

RECALL_KS = (1, 10)  # the paper's R@1 and R@10


def rank_rows(scores: np.ndarray) -> np.ndarray:
    """The ranking rule: each row's candidate indices by score descending,
    equal scores in input order (a stable sort of -scores). The first
    non-finite score, in row order, is refused by its candidate index."""
    if not (finite := np.isfinite(scores)).all():
        raise InputError(f"non-finite score at candidate {np.argmin(finite) % scores.shape[-1]}")
    return np.argsort(-scores, axis=-1, kind="stable")


def rank_candidates(scores: Sequence[float]) -> list[int]:
    """Indices sorted by score descending; equal scores keep input order."""
    return rank_rows(np.asarray(scores, dtype=np.float64)).tolist()


@dataclass
class RankedResult:
    """One query's candidates as (n, 4) box rows in descending-score order,
    and its ground-truth box as a (4,) row."""

    query: str
    image_id: str
    boxes: np.ndarray
    gt_box: np.ndarray

    @classmethod
    def build(cls, query: str, image_id: str, boxes, scores: Sequence[float],
              gt_box) -> "RankedResult":
        """boxes and gt_box are box coordinates or BoundingBoxes."""
        boxes = np.asarray(boxes, dtype=np.float64)
        if len(boxes) != len(scores):
            raise InputError(f"{len(boxes)} boxes but {len(scores)} scores")
        if not len(boxes):
            raise InputError(f"query {query!r}: empty candidate list")
        return cls(query, image_id, boxes[rank_candidates(scores)],
                   np.asarray(gt_box, dtype=np.float64))


@dataclass
class MetricsReport:
    scenario: str
    query_count: int
    p_at_1: Optional[float] = None
    r_at_k: Optional[dict[int, float]] = None
    oracle: Optional[float] = None

    def to_dict(self) -> dict:
        out = {key: v for key, v in asdict(self).items() if v is not None}
        out.update((f"r_at_{k}", v) for k, v in out.pop("r_at_k", {}).items())
        return out


def _hits(results: Sequence[RankedResult], scenario: str):
    """The hit table from one IoU over every ranked box: a (len(RECALL_KS) + 1,
    len(results)) array, each result's hit within each k of RECALL_KS and then
    its hit anywhere, and each result's rank-1 IoU. A hit is the ground-truth
    box itself for "gt_boxes", and an IoU of at least IOU_HIT_THRESHOLD otherwise."""
    if not results:
        raise InputError("no results to evaluate")
    counts = [len(r.boxes) for r in results]
    if not all(counts):  # reduceat would read an empty segment as its next box
        raise InputError(f"query {results[counts.index(0)].query!r}: empty candidate list")
    boxes = np.concatenate([r.boxes for r in results])
    gts = np.repeat([r.gt_box for r in results], counts, axis=0)
    overlaps = iou(boxes, gts)
    flags = (boxes == gts).all(axis=1) if scenario == "gt_boxes" else overlaps >= IOU_HIT_THRESHOLD
    starts = np.cumsum([0] + counts[:-1])
    rank = np.arange(len(boxes)) - np.repeat(starts, counts)
    return (np.array([np.logical_or.reduceat(flags & (rank < k), starts)
                      for k in (*RECALL_KS, np.inf)]), overlaps[starts])


def eval_gt_scenario(results: Sequence[RankedResult]) -> MetricsReport:
    """P@1 over annotated-box candidate sets: the top-ranked box must be the
    ground-truth box itself (exact coordinates, not IoU)."""
    hits, _ = _hits(results, "gt_boxes")
    if not hits[-1].all():
        r = results[int(np.argmin(hits[-1]))]
        raise InputError(
            f"query {r.query!r} on {r.image_id!r}: ground-truth box not in candidates")
    return MetricsReport("gt_boxes", len(results),
                         p_at_1=int(hits[RECALL_KS.index(1)].sum()) / len(results))


def eval_proposal_scenario(results: Sequence[RankedResult]) -> MetricsReport:
    """R@k for k in RECALL_KS (any hit among the k best-scored proposals) and
    Oracle (any hit among all proposals, independent of scores)."""
    hits, _ = _hits(results, "proposals")
    rates = (hits.sum(axis=1) / len(results)).tolist()
    return MetricsReport("proposals", len(results), r_at_k=dict(zip(RECALL_KS, rates)),
                         oracle=rates[-1])


def write_per_query_csv(results: Sequence[RankedResult], scenario: str, path):
    """One row per query, replacing path only once complete: rank-1 IoU against
    ground truth plus hit flags (identity for gt_boxes, IoU-based otherwise)."""
    hits, rank1 = _hits(results, scenario)
    with _atomic_write(path) as f, io.TextIOWrapper(f, encoding="utf-8", newline="") as text:
        writer = csv.writer(text)
        writer.writerow(["query", "image_id", "rank1_iou",
                         *(f"hit_at_{k}" for k in RECALL_KS), "hit_any"])
        for r, overlap, *flags in zip(results, rank1.tolist(), *hits.astype(int).tolist()):
            writer.writerow([r.query, r.image_id, f"{overlap:.6f}", *flags])
