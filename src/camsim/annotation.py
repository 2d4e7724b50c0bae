"""Ground-truth boxes from instance/depth maps, the visibility labeling
policy, and COCO-style dataset export."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .scene import Scene
from .sensor import SensorGeometry

# Train/val/test proportions (normalized 3000:700:750).
DEFAULT_SPLIT = (3000 / 4450, 700 / 4450, 750 / 4450)


@dataclass(frozen=True)
class GroundTruthBox:
    instance_id: int
    class_name: str
    bbox: tuple  # (x_min, y_min, x_max, y_max), half-open sensor pixels
    distance_m: float
    pixel_count: int
    visible: bool = True

    def __post_init__(self):
        x0, y0, x1, y1 = self.bbox
        if x1 <= x0 or y1 <= y0 or self.distance_m <= 0:
            raise ValueError("degenerate ground-truth box")

    @property
    def width(self) -> int:
        return self.bbox[2] - self.bbox[0]

    @property
    def height(self) -> int:
        return self.bbox[3] - self.bbox[1]


@dataclass(frozen=True)
class LabelPolicy:
    min_box_w: int = 10
    min_box_h: int = 15
    max_distance_m: float = 150.0
    apply_visibility: bool = True


def _majority_bin(inst: np.ndarray, factor: int, rows: int, cols: int) -> np.ndarray:
    """Majority vote per factor×factor block; ties go to the smaller id."""
    blocks = inst[: rows * factor, : cols * factor]
    blocks = blocks.reshape(rows, factor, cols, factor).transpose(0, 2, 1, 3)
    blocks = blocks.reshape(rows * cols, factor * factor)
    present = np.bincount(blocks.ravel()) > 0
    ids = np.flatnonzero(present).astype(inst.dtype)  # ascending, so argmax picks the smaller id
    code = np.cumsum(present) - 1  # instance id -> index into ids
    pairs = code[blocks] + ids.size * np.arange(rows * cols)[:, None]
    counts = np.bincount(pairs.ravel(), minlength=rows * cols * ids.size)
    return ids[np.argmax(counts.reshape(rows * cols, ids.size), axis=1)].reshape(rows, cols)


def project_truth(sc: Scene, geometry: SensorGeometry) -> list:
    """Ground-truth boxes on the sensor grid. The scene instance map is
    majority-binned over the same cells the sensor's pixels sample; distance
    is the median scene-grid depth of the instance (pixel-size invariant)."""
    g = geometry
    binned = _majority_bin(sc.instances[g.y0:, g.x0:], g.factor, g.rows, g.cols)
    boxes = []
    for inst_id in sorted(sc.classes):
        mask = binned == inst_id
        if not mask.any():
            continue
        ys, xs = np.nonzero(mask)
        depth = float(np.median(sc.depth[sc.instances == inst_id]))
        boxes.append(GroundTruthBox(
            instance_id=int(inst_id),
            class_name=sc.classes[inst_id],
            bbox=(int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1),
            distance_m=depth,
            pixel_count=int(mask.sum()),
        ))
    return boxes


def apply_policy(boxes: list, policy: LabelPolicy) -> list:
    """Visibility rule: w ≥ min_box_w, h ≥ min_box_h, distance ≤ max
    (all boundaries inclusive). Non-visible boxes are dropped when
    apply_visibility is set, otherwise only flagged."""
    out = []
    for b in boxes:
        visible = (b.width >= policy.min_box_w and b.height >= policy.min_box_h
                   and b.distance_m <= policy.max_distance_m)
        if policy.apply_visibility and not visible:
            continue
        out.append(replace(b, visible=visible))
    return out


def export_dataset(images: list, truths: dict, path, seed: int = 0,
                   split=DEFAULT_SPLIT, category: str = "car") -> dict:
    """COCO-style dataset JSON with a nonstandard per-annotation
    `distance_m` field and a seeded train/val/test split.

    images: [{"id", "file", "width", "height"}]; truths: image id -> boxes.
    """
    ids = [img["id"] for img in images]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate image ids")
    annotations = []
    ann_id = 1
    for img in images:
        for b in truths.get(img["id"], []):
            x0, y0, x1, y1 = b.bbox
            annotations.append({
                "id": ann_id,
                "image_id": img["id"],
                "category_id": 1,
                "bbox": [x0, y0, x1 - x0, y1 - y0],
                "area": (x1 - x0) * (y1 - y0),
                "distance_m": b.distance_m,
                "iscrowd": 0,
            })
            ann_id += 1
    shuffled = list(ids)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    n_train = round(n * split[0])
    n_val = round(n * split[1])
    splits = {
        "train": sorted(shuffled[:n_train]),
        "val": sorted(shuffled[n_train:n_train + n_val]),
        "test": sorted(shuffled[n_train + n_val:]),
    }
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": 1, "name": category}],
        "splits": splits,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1))
    return {"path": str(path), "n_images": n, "n_annotations": len(annotations),
            "splits": {k: len(v) for k, v in splits.items()}}
