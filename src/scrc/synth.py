"""Synthetic desk-scale dataset generator.

Every image has four regions at left/right/top/bottom positions, colored
with two colors that each appear twice. Region features are a one-hot color
block, so color is readable from the feature vector alone while position is
recoverable only from the spatial descriptor. Queries are "<color>
<position>": with the spatial input masked, the two same-color regions are
indistinguishable by construction, which pins the masked P@1 at one half.
Captions mention every color and position word so a vocabulary built from
them covers the queries.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

from .datastore import FeatureStore, _atomic_write, save_feature_store
from .errors import InputError
from .nncore import make_rng

COLORS = ("red", "green", "blue", "yellow")
POSITIONS = ("left", "right", "top", "bottom")

IMG_W, IMG_H = 320, 240

# Images of one dataset, all built in memory before anything is written
MAX_IMAGES = 100_000

_BASE_BOXES = {
    "left": (20.0, 90.0, 100.0, 150.0),
    "right": (220.0, 90.0, 300.0, 150.0),
    "top": (120.0, 20.0, 200.0, 80.0),
    "bottom": (120.0, 160.0, 200.0, 220.0),
}

_DISTRACTOR_BOXES = (
    (4.0, 4.0, 64.0, 64.0),
    (256.0, 4.0, 316.0, 64.0),
    (4.0, 176.0, 64.0, 236.0),
    (256.0, 176.0, 316.0, 236.0),
)

DEFAULT_CONFIG = {
    "embed_dim": 16,
    "hidden_dim": 32,
    "feat_dim": len(COLORS),
    "batch_size": 16,
    "momentum": 0.9,
    "clip_norm": 10.0,
}


def generate_dataset(out_dir, seed: int, n_images: int = 16) -> dict:
    """Write features, annotations, captions, proposals and a suggested
    model config into out_dir; returns a manifest of what was written."""
    if not 1 <= n_images <= MAX_IMAGES:
        raise InputError(f"images must be from 1 to {MAX_IMAGES}, got {n_images}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = make_rng(seed)
    feat_dim = len(COLORS)
    region_store = FeatureStore(feat_dim)
    context_store = FeatureStore(feat_dim)
    annotations = []
    captions = []
    proposals = []

    for i in range(n_images):
        image_id = f"img{i:02d}"
        color_a, color_b = (COLORS[j] for j in rng.choice(len(COLORS), size=2, replace=False))
        order = [POSITIONS[j] for j in rng.permutation(len(POSITIONS))]
        color_of = {p: (color_a if k < 2 else color_b) for k, p in enumerate(order)}

        context = [0.0] * feat_dim
        context[COLORS.index(color_a)] = 1.0
        context[COLORS.index(color_b)] = 1.0
        context_store.add(image_id, context)

        boxes = []
        keys = []
        for pos in POSITIONS:
            x0, y0, x1, y1 = _BASE_BOXES[pos]
            dx, dy = (int(v) for v in rng.integers(-8, 9, size=2))
            box = [x0 + dx, y0 + dy, x1 + dx, y1 + dy]
            key = f"{image_id}:{pos}"
            onehot = [0.0] * feat_dim
            onehot[COLORS.index(color_of[pos])] = 1.0
            region_store.add(key, onehot)
            annotations.append({
                "image_id": image_id, "width": IMG_W, "height": IMG_H,
                "box": box, "region_key": key,
                "descriptions": [f"{color_of[pos]} {pos}"],
            })
            boxes.append(box)
            keys.append(key)
        for k, dbox in enumerate(_DISTRACTOR_BOXES):
            key = f"{image_id}:bg{k}"
            region_store.add(key, [0.0] * feat_dim)
            boxes.append(list(dbox))
            keys.append(key)
        proposals.append({"image_id": image_id, "boxes": boxes, "region_keys": keys})

        captions.append({
            "image_id": image_id,
            "captions": [
                f"the {color_of['left']} thing sits on the left and "
                f"the {color_of['right']} thing sits on the right",
                f"the {color_of['top']} thing sits at the top and "
                f"the {color_of['bottom']} thing sits at the bottom",
            ],
        })

    save_feature_store(region_store, out / "region_features.bin")
    save_feature_store(context_store, out / "context_features.bin")
    for name, rows in (("annotations.jsonl", annotations),
                       ("proposals.jsonl", proposals),
                       ("captions.jsonl", captions)):
        with _atomic_write(out / name) as raw, io.TextIOWrapper(raw, encoding="utf-8") as f:
            for row in rows:
                f.write(json.dumps(row, sort_keys=True) + "\n")
    with _atomic_write(out / "config.json") as raw, io.TextIOWrapper(raw, encoding="utf-8") as f:
        json.dump(DEFAULT_CONFIG, f, sort_keys=True, indent=2)
        f.write("\n")

    return {
        "out_dir": str(out),
        "images": n_images,
        "regions": n_images * len(POSITIONS),
        "annotations": len(annotations),
        "captions": sum(len(c["captions"]) for c in captions),
        "proposals_per_image": len(POSITIONS) + len(_DISTRACTOR_BOXES),
        "files": ["region_features.bin", "context_features.bin", "annotations.jsonl",
                  "proposals.jsonl", "captions.jsonl", "config.json"],
    }
