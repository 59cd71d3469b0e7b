"""Bounding-box arithmetic: the 8-d normalized spatial descriptor and
IoU-based hit testing.

Boxes are continuous rectangles in pixel coordinates with the origin at the
top-left corner; no pixel-grid rounding is applied anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

SPATIAL_DIM = 8

IOU_HIT_THRESHOLD = 0.5


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        vals = (self.x_min, self.y_min, self.x_max, self.y_max)
        if not all(math.isfinite(v) for v in vals):
            raise InputError(f"box coordinates must be finite, got {vals}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise InputError(f"degenerate box {vals}: max corner must exceed min corner")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]


@dataclass(frozen=True)
class ImageSize:
    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise InputError(
                f"image size must be finite and positive, got {self.width}x{self.height}")

    def check(self, box: BoundingBox):
        if not (box.x_min >= 0 and box.y_min >= 0
                and box.x_max <= self.width and box.y_max <= self.height):
            raise InputError(
                f"box {box.as_list()} not contained in {self.width}x{self.height} image")


def encode_spatial(box: BoundingBox, img: ImageSize) -> np.ndarray:
    """8-d descriptor [x_min, y_min, x_max, y_max, x_center, y_center, w, h]
    in image-centered coordinates where both image sides span [-1, 1]."""
    img.check(box)
    # dividing first keeps 2.0 * x from overflowing; doubling is exact either way
    x0 = 2.0 * (box.x_min / img.width) - 1.0
    y0 = 2.0 * (box.y_min / img.height) - 1.0
    x1 = 2.0 * (box.x_max / img.width) - 1.0
    y1 = 2.0 * (box.y_max / img.height) - 1.0
    return np.array([x0, y0, x1, y1,
                     (x0 + x1) / 2.0, (y0 + y1) / 2.0,
                     x1 - x0, y1 - y0], dtype=np.float64)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def is_hit(candidate: BoundingBox, gt: BoundingBox) -> bool:
    """True iff the candidate overlaps the ground truth by at least 50% IoU."""
    return iou(candidate, gt) >= IOU_HIT_THRESHOLD
