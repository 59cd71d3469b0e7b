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

_CORNER_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])  # x_min, y_min kept, x_max, y_max negated


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        # one chained comparison per axis; NaN fails every comparison
        if not (-math.inf < self.x_min < self.x_max < math.inf
                and -math.inf < self.y_min < self.y_max < math.inf):
            vals = (self.x_min, self.y_min, self.x_max, self.y_max)
            if not all(math.isfinite(v) for v in vals):
                raise InputError(f"box coordinates must be finite, got {vals}")
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
        if one := isinstance(box, BoundingBox):  # in Python floats: cheaper than numpy for one box
            if (box.x_min >= 0 and box.y_min >= 0 and box.x_max <= self.width
                    and box.y_max <= self.height):
                return
        rows = np.reshape(box.as_list() if one else box, (-1, 4))
        # every corner in one comparison: 0 <= x_min, and x_max <= width as -x_max >= -width
        inside = rows * _CORNER_SIGNS >= (0, 0, -self.width, -self.height)
        if not inside.all():
            k = int(np.argmin(inside.all(axis=1)))
            raise InputError(f"{'' if one else f'box {k}: '}box {rows[k].tolist()} not "
                             f"contained in {self.width}x{self.height} image")


def encode_spatial(box, img: ImageSize) -> np.ndarray:
    """8-d descriptor [x_min, y_min, x_max, y_max, x_center, y_center, w, h]
    in image-centered coordinates where both image sides span [-1, 1]: (8,)
    for a BoundingBox, or (n, 8) for (n, 4) box coordinates."""
    img.check(box)
    scale = (img.width, img.height) * 2
    # dividing first keeps 2.0 * x from overflowing; doubling is exact either way
    if isinstance(box, BoundingBox):  # in Python floats: cheaper than numpy for one box
        x0, y0, x1, y1 = (2.0 * (v / s) - 1.0 for v, s in zip(box.as_list(), scale))
        return np.array([x0, y0, x1, y1, (x0 + x1) / 2.0, (y0 + y1) / 2.0, x1 - x0, y1 - y0])
    c = 2.0 * (np.asarray(box, dtype=np.float64) / scale) - 1.0
    return np.concatenate((c, (c[:, :2] + c[:, 2:]) / 2.0, c[:, 2:] - c[:, :2]), axis=1)


def iou(a, b):
    """IoU of two BoundingBoxes, or row by row of (n, 4) box coordinates. Each
    pair is first scaled by the power of two that brings its largest coordinate
    into [0.5, 1): exact, and its areas can then neither overflow nor underflow."""
    corners = np.array(np.broadcast_arrays(*np.transpose(a), *np.transpose(b)))
    _, exp = np.frexp(np.abs(corners).max(axis=0))
    ax0, ay0, ax1, ay1, bx0, by0, bx1, by1 = np.ldexp(corners, -exp)
    inter = (np.maximum(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0)
             * np.maximum(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0))
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def is_hit(candidate, gt):
    """True iff the candidate overlaps the ground truth by at least 50% IoU."""
    return iou(candidate, gt) >= IOU_HIT_THRESHOLD
