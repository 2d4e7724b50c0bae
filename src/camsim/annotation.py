"""Ground-truth boxes from instance/depth maps, the visibility labeling
policy, and COCO-style dataset export."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .scene import MAX_DISTANCE_M, Scene
from .sensor import SensorGeometry

# Train/val/test proportions (normalized 3000:700:750), and the dataset's one category
SPLIT = (3000 / 4450, 700 / 4450, 750 / 4450)
CATEGORY = "car"


@dataclass(frozen=True)
class GroundTruthBox:
    instance_id: int
    class_name: str
    bbox: tuple  # (x_min, y_min, x_max, y_max), half-open sensor pixels
    distance_m: float
    pixel_count: int

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

    def __post_init__(self):
        # ap_vs_distance bins every 10 m up to this distance
        if not 0 < self.max_distance_m <= MAX_DISTANCE_M:
            raise ValueError(f"max_distance_m must be in (0, {MAX_DISTANCE_M:g}], "
                             f"got {self.max_distance_m!r}")


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


@dataclass(frozen=True)
class SceneTruth:
    """What ground truth reads of a scene, at any pixel size: the instance
    map, and per instance present on it its class, its bounding slices on
    the scene grid and its median scene-grid depth."""
    instances: np.ndarray  # (H, W) uint16, 0 = background
    targets: dict  # instance id -> (class name, (row slice, col slice), depth m)


def _instance_slices(instances: np.ndarray) -> dict:
    """Instance id -> (row slice, col slice) bounding it, for every id on
    the map, from one pass over the band of rows that holds any instance."""
    rows = np.flatnonzero(instances.any(axis=1))
    if rows.size == 0:
        return {}
    top = int(rows[0])
    band = instances[top:int(rows[-1]) + 1]
    flat = np.flatnonzero(band)
    ids = band.ravel()[flat]
    r = flat // band.shape[1]
    c = flat - r * band.shape[1]
    n = int(ids.max()) + 1
    r_lo, c_lo = np.full(n, band.size), np.full(n, band.size)
    r_hi, c_hi = np.full(n, -1), np.full(n, -1)
    np.minimum.at(r_lo, ids, r)
    np.maximum.at(r_hi, ids, r)
    np.minimum.at(c_lo, ids, c)
    np.maximum.at(c_hi, ids, c)
    return {int(i): (slice(top + int(r_lo[i]), top + int(r_hi[i]) + 1),
                     slice(int(c_lo[i]), int(c_hi[i]) + 1))
            for i in np.flatnonzero(r_hi >= 0)}


def scene_truth(sc: Scene) -> SceneTruth:
    """The pixel-size-invariant ground truth of a scene, computed once."""
    slices = _instance_slices(sc.instances)
    targets = {}
    for inst_id in sorted(sc.classes):
        sl = slices.get(inst_id)
        if sl is None:
            continue
        depth = float(np.median(sc.depth[sl][sc.instances[sl] == inst_id]))
        targets[inst_id] = (sc.classes[inst_id], sl, depth)
    return SceneTruth(sc.instances, targets)


def project_truth(truth: SceneTruth, geometry: SensorGeometry) -> list:
    """Ground-truth boxes on the sensor grid. The scene instance map is
    majority-binned over the same cells the sensor's pixels sample, on the
    blocks that meet each instance's slices only: a block's vote reads its
    own cells alone. Distance is the instance's median scene-grid depth."""
    g = geometry
    f = g.factor
    boxes = []
    for inst_id, (class_name, (ys, xs), depth) in truth.targets.items():
        # sensor blocks meeting the slices, clipped to the frame
        r0, r1 = max((ys.start - g.y0) // f, 0), min(-((g.y0 - ys.stop) // f), g.rows)
        c0, c1 = max((xs.start - g.x0) // f, 0), min(-((g.x0 - xs.stop) // f), g.cols)
        if r0 >= r1 or c0 >= c1:
            continue
        window = truth.instances[g.y0 + r0 * f:g.y0 + r1 * f, g.x0 + c0 * f:g.x0 + c1 * f]
        mask = _majority_bin(window, f, r1 - r0, c1 - c0) == inst_id
        if not mask.any():
            continue
        rs, cs = np.nonzero(mask)
        boxes.append(GroundTruthBox(
            instance_id=int(inst_id),
            class_name=class_name,
            bbox=(c0 + int(cs.min()), r0 + int(rs.min()),
                  c0 + int(cs.max()) + 1, r0 + int(rs.max()) + 1),
            distance_m=depth,
            pixel_count=int(mask.sum()),
        ))
    return boxes


def apply_policy(boxes: list, policy: LabelPolicy) -> list:
    """Visibility rule: w ≥ min_box_w, h ≥ min_box_h, distance ≤ max
    (all boundaries inclusive). Non-visible boxes are dropped when
    apply_visibility is set; otherwise every box is kept."""
    if not policy.apply_visibility:
        return list(boxes)
    return [b for b in boxes if b.width >= policy.min_box_w and b.height >= policy.min_box_h
            and b.distance_m <= policy.max_distance_m]


def export_dataset(images: list, truths: dict, path, seed: int = 0) -> dict:
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
    n_train = round(n * SPLIT[0])
    n_val = round(n * SPLIT[1])
    splits = {
        "train": sorted(shuffled[:n_train]),
        "val": sorted(shuffled[n_train:n_train + n_val]),
        "test": sorted(shuffled[n_train + n_val:]),
    }
    doc = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": 1, "name": CATEGORY}],
        "splits": splits,
    }
    path = Path(path)
    path.write_text(json.dumps(doc, indent=1))
    return {"path": str(path), "n_images": n, "n_annotations": len(annotations),
            "splits": {k: len(v) for k, v in splits.items()}}
