"""Retrieval evaluation: P@1 over annotated boxes, and R@k / Oracle over
proposal boxes with hits at IoU >= 0.5."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError
from .geometry import IOU_HIT_THRESHOLD, BoundingBox, iou

RECALL_KS = (1, 10)  # the paper's R@1 and R@10


def rank_candidates(scores: Sequence[float]) -> list[int]:
    """Indices sorted by score descending; equal scores keep input order."""
    for idx, s in enumerate(scores):
        if not math.isfinite(s):
            raise InputError(f"non-finite score at candidate {idx}")
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


@dataclass
class RankedResult:
    """One query's candidates in descending-score order."""

    query: str
    image_id: str
    boxes: list[BoundingBox]
    scores: list[float]
    gt_box: BoundingBox

    @classmethod
    def build(cls, query: str, image_id: str, boxes: Sequence[BoundingBox],
              scores: Sequence[float], gt_box: BoundingBox) -> "RankedResult":
        if len(boxes) != len(scores):
            raise InputError(f"{len(boxes)} boxes but {len(scores)} scores")
        if not boxes:
            raise InputError(f"query {query!r}: empty candidate list")
        order = rank_candidates(scores)
        return cls(query, image_id, [boxes[i] for i in order],
                   [scores[i] for i in order], gt_box)


@dataclass
class MetricsReport:
    scenario: str
    query_count: int
    p_at_1: Optional[float] = None
    r_at_k: Optional[dict[int, float]] = None
    oracle: Optional[float] = None

    def to_dict(self) -> dict:
        out = {"scenario": self.scenario, "query_count": self.query_count}
        if self.p_at_1 is not None:
            out["p_at_1"] = self.p_at_1
        if self.r_at_k is not None:
            for k, v in sorted(self.r_at_k.items()):
                out[f"r_at_{k}"] = v
        if self.oracle is not None:
            out["oracle"] = self.oracle
        return out


def eval_gt_scenario(results: Sequence[RankedResult]) -> MetricsReport:
    """P@1 over annotated-box candidate sets: the top-ranked box must be the
    ground-truth box itself (exact coordinates, not IoU)."""
    if not results:
        raise InputError("no results to evaluate")
    hits = 0
    for r in results:
        if r.gt_box not in r.boxes:
            raise InputError(
                f"query {r.query!r} on {r.image_id!r}: ground-truth box not in candidates")
        hits += r.boxes[0] == r.gt_box
    return MetricsReport("gt_boxes", len(results), p_at_1=hits / len(results))


def _overlaps(results: Sequence[RankedResult]) -> list[list[float]]:
    """Each result's ranked boxes' IoU with its ground truth, from one array IoU."""
    pairs = np.fromiter((b.as_list() + gt for r in results for gt in [r.gt_box.as_list()]
                         for b in r.boxes), (float, 8))
    ious = iter(iou(pairs[:, :4], pairs[:, 4:]).tolist())
    return [[next(ious) for _ in r.boxes] for r in results]


def eval_proposal_scenario(results: Sequence[RankedResult]) -> MetricsReport:
    """R@k for k in RECALL_KS (any hit among the k best-scored proposals) and
    Oracle (any hit among all proposals, independent of scores)."""
    if not results:
        raise InputError("no results to evaluate")
    r_hits = {k: 0 for k in RECALL_KS}
    oracle_hits = 0
    for r, overlaps in zip(results, _overlaps(results)):
        if not r.boxes:
            raise InputError(f"query {r.query!r}: empty candidate list")
        flags = [v >= IOU_HIT_THRESHOLD for v in overlaps]
        for k in RECALL_KS:
            r_hits[k] += any(flags[:k])
        oracle_hits += any(flags)
    n = len(results)
    return MetricsReport("proposals", n,
                         r_at_k={k: v / n for k, v in r_hits.items()},
                         oracle=oracle_hits / n)


def write_per_query_csv(results: Sequence[RankedResult], scenario: str, path):
    """One row per query: rank-1 IoU against ground truth plus hit flags
    (identity-based for the annotated-box scenario, IoU-based otherwise)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["query", "image_id", "rank1_iou", "hit_at_1", "hit_at_10", "hit_any"])
        for r, overlaps in zip(results, _overlaps(results)):
            flags = ([b == r.gt_box for b in r.boxes] if scenario == "gt_boxes"
                     else [v >= IOU_HIT_THRESHOLD for v in overlaps])
            writer.writerow([r.query, r.image_id, f"{overlaps[0]:.6f}",
                             int(any(flags[:1])), int(any(flags[:10])), int(any(flags))])
