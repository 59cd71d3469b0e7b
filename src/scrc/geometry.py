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

    def as_list(self) -> list[float]:
        return [self.x_min, self.y_min, self.x_max, self.y_max]

    def __array__(self, dtype=None, copy=None):
        """A new (4,) row: numpy reads a box, or a list of boxes, as coordinates."""
        return np.array(self.as_list(), dtype=dtype)


@dataclass(frozen=True)
class ImageSize:
    width: float
    height: float

    def __post_init__(self):
        if not (0 < self.width < math.inf and 0 < self.height < math.inf):
            raise InputError(
                f"image size must be finite and positive, got {self.width}x{self.height}")

    def check(self, box):
        """Refuse a BoundingBox, or the first row of (n, 4) box coordinates,
        that the image does not contain; a row is named by its index."""
        x0, y0, x1, y1 = corners = _corners(box)
        inside = (x0 >= 0) & (y0 >= 0) & (x1 <= self.width) & (y1 <= self.height)
        if inside is not True and not np.all(inside):
            k = int(np.argmin(inside))
            raise InputError(f"{'' if isinstance(box, BoundingBox) else f'box {k}: '}box "
                             f"{np.reshape(corners, (4, -1))[:, k].tolist()} not contained in "
                             f"{self.width}x{self.height} image")


def _corners(box):
    """A BoundingBox's x_min, y_min, x_max, y_max, or the (n, 4) rows' columns."""
    return box.as_list() if isinstance(box, BoundingBox) else np.transpose(box)


def encode_spatial(box, img: ImageSize) -> np.ndarray:
    """8-d descriptor [x_min, y_min, x_max, y_max, x_center, y_center, w, h]
    in image-centered coordinates where both image sides span [-1, 1]: (8,)
    for a BoundingBox, or (n, 8) for (n, 4) box coordinates."""
    img.check(box)
    x_min, y_min, x_max, y_max = _corners(box)
    # dividing first keeps 2.0 * x from overflowing; doubling is exact either way
    x0 = 2.0 * (x_min / img.width) - 1.0
    y0 = 2.0 * (y_min / img.height) - 1.0
    x1 = 2.0 * (x_max / img.width) - 1.0
    y1 = 2.0 * (y_max / img.height) - 1.0
    return np.array([x0, y0, x1, y1,
                     (x0 + x1) / 2.0, (y0 + y1) / 2.0,
                     x1 - x0, y1 - y0], dtype=np.float64).T


def iou(a, b):
    """IoU of two BoundingBoxes, or row by row of (n, 4) box coordinates. Each
    pair is first scaled by the power of two that brings its largest coordinate
    into [0.5, 1): exact, and its areas can then neither overflow nor underflow."""
    corners = np.array(np.broadcast_arrays(*_corners(a), *_corners(b)))
    _, exp = np.frexp(np.abs(corners).max(axis=0))
    ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 = np.ldexp(corners, -exp)
    inter = (np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0)
             * np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0))
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def is_hit(candidate, gt):
    """True iff the candidate overlaps the ground truth by at least 50% IoU."""
    return iou(candidate, gt) >= IOU_HIT_THRESHOLD
