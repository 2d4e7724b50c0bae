"""Detection scoring: IoU matching, PASCAL all-points average precision at
IoU >= 0.5, the distance-binned AP curve, and the OD50 summary scalar."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

IOU_THRESHOLD = 0.5  # a detection matches ground truth at IoU >= 0.5 (PASCAL)


@dataclass(frozen=True)
class Detection:
    image_id: object
    bbox: tuple  # (x_min, y_min, x_max, y_max)
    score: float

    def __post_init__(self):
        x0, y0, x1, y1 = self.bbox
        if x1 <= x0 or y1 <= y0:
            raise ValueError("degenerate detection box")
        if not math.isfinite(self.score):
            raise ValueError("detection score must be finite")


@dataclass(frozen=True)
class GTBox:
    """Ground truth as the evaluator sees it: a box in a specific image at a
    known distance."""
    image_id: object
    bbox: tuple
    distance_m: float = 1.0


def as_gt(image_id, box) -> GTBox:
    """Wrap an annotation.GroundTruthBox for pooled evaluation."""
    return GTBox(image_id, box.bbox, box.distance_m)


@dataclass(frozen=True)
class APBin:
    low_m: float
    high_m: float
    ap: float | None  # None where the bin has no ground truth
    gt_count: int


@dataclass(frozen=True)
class APCurve:
    bins: tuple


@dataclass(frozen=True)
class OD50Result:
    od50_m: float  # math.inf when the curve never drops below 0.5
    beyond_range: bool


def iou(a, b) -> float:
    ax0, ay0, ax1, ay1 = a.bbox
    bx0, by0, bx1, by1 = b.bbox
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def match(dets: list, gts: list):
    """Greedy PASCAL matching in descending score order.

    Returns (tp, det_gt, gt_matched): per-detection hit flag (input order),
    index of the matched GT or -1, and per-GT matched flag. Score ties keep
    input order; IoU ties take the lowest GT index.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    tp = [False] * len(dets)
    det_gt = [-1] * len(dets)
    gt_matched = [False] * len(gts)
    for i in order:
        best_iou = IOU_THRESHOLD
        best_j = -1
        for j, g in enumerate(gts):
            if gt_matched[j]:
                continue
            v = iou(dets[i], g)
            if v >= best_iou and (best_j < 0 or v > best_iou):
                best_iou = v
                best_j = j
        if best_j >= 0:
            tp[i] = True
            det_gt[i] = best_j
            gt_matched[best_j] = True
    return tp, det_gt, gt_matched


def _group_by_image(items: list) -> dict:
    groups: dict = {}
    for it in items:
        groups.setdefault(it.image_id, []).append(it)
    return groups


def _pooled_flags(dets: list, gts: list):
    """Per-image matching, pooled (score, tp) pairs in input order."""
    gt_groups = _group_by_image(gts)
    pairs = []
    for image_id, dgroup in _group_by_image(dets).items():
        tp, _, _ = match(dgroup, gt_groups.get(image_id, []))
        pairs.extend(zip((d.score for d in dgroup), tp))
    return pairs


def _ap_from_flags(pairs: list, n_gt: int) -> float | None:
    if n_gt == 0:
        return None
    if not pairs:
        return 0.0
    pairs = sorted(enumerate(pairs), key=lambda e: (-e[1][0], e[0]))
    recalls, precisions = [], []
    tp = fp = 0
    for _, (_, hit) in pairs:
        tp += hit
        fp += not hit
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
    # all-points method with the monotone precision envelope
    env = list(precisions)
    for i in range(len(env) - 2, -1, -1):
        env[i] = max(env[i], env[i + 1])
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recalls, env):
        ap += (r - prev_r) * p
        prev_r = r
    return ap


def average_precision(dets: list, gts: list) -> float | None:
    """PASCAL all-points AP at IOU_THRESHOLD. None when there is no GT."""
    if not gts:
        return None
    return _ap_from_flags(_pooled_flags(dets, gts), len(gts))


def ap_vs_distance(dets: list, gts: list, bin_m: float = 10.0,
                   max_distance_m: float | None = None) -> APCurve:
    """AP per 10 m distance bin. Matched detections land in their GT's bin;
    unmatched detections go to the nearest-by-IoU GT's bin, or are excluded
    when they overlap no GT at all (their distance is unknowable)."""
    det_groups = _group_by_image(dets)
    gt_groups = _group_by_image(gts)
    top = max((g.distance_m for g in gts), default=0.0)
    if max_distance_m is not None:
        top = max(top, max_distance_m)
    n_bins = max(1, int(math.ceil(top / bin_m + 1e-9)))

    bin_pairs: list = [[] for _ in range(n_bins)]
    bin_gt = [0] * n_bins
    for g in gts:
        b = min(n_bins - 1, int(g.distance_m / bin_m))
        bin_gt[b] += 1
    for image_id, ggroup in gt_groups.items():
        dgroup = det_groups.get(image_id, [])
        tp, det_gt, _ = match(dgroup, ggroup)
        for i, d in enumerate(dgroup):
            if tp[i]:
                ref = ggroup[det_gt[i]]
            else:
                best = max(ggroup, key=lambda g: iou(d, g), default=None)
                if best is None or iou(d, best) <= 0.0:
                    continue
                ref = best
            b = min(n_bins - 1, int(ref.distance_m / bin_m))
            bin_pairs[b].append((d.score, tp[i]))
    # detections in images with no GT at all have no distance anchor; excluded
    bins = tuple(
        APBin(i * bin_m, (i + 1) * bin_m,
              _ap_from_flags(bin_pairs[i], bin_gt[i]) if bin_gt[i] else None,
              bin_gt[i])
        for i in range(n_bins)
    )
    return APCurve(bins)


def od50(curve: APCurve) -> OD50Result:
    """First crossing of AP below 0.5, linearly interpolated between bin
    centers; 0 when the curve starts below 0.5, beyond-range when it never
    drops."""
    prev = None  # (center, ap)
    for b in curve.bins:
        if b.ap is None:
            continue
        center = 0.5 * (b.low_m + b.high_m)
        if prev is None and b.ap < 0.5:
            return OD50Result(0.0, False)
        if prev is not None and prev[1] >= 0.5 and b.ap < 0.5:
            c0, a0 = prev
            od = c0 + (a0 - 0.5) / (a0 - b.ap) * (center - c0)
            return OD50Result(od, False)
        prev = (center, b.ap)
    return OD50Result(math.inf, True)


# ------------------------------------------------------------------ I/O ----

def detections_to_json(dets: list) -> list:
    return [
        {"image_id": d.image_id,
         "bbox": [d.bbox[0], d.bbox[1], d.bbox[2] - d.bbox[0], d.bbox[3] - d.bbox[1]],
         "score": d.score}
        for d in dets
    ]


def detections_from_json(records: list, known_images: dict | None = None) -> list:
    """Parse [{image_id, bbox:[x,y,w,h], score}]; validates score range,
    box positivity, bounds (when image sizes are known), and image ids."""
    unknown = sorted({str(r["image_id"]) for r in records
                      if known_images is not None and r["image_id"] not in known_images})
    if unknown:
        raise ValueError(f"detections reference unknown image ids: {', '.join(unknown)}")
    dets = []
    for r in records:
        x, y, w, h = r["bbox"]
        score = float(r["score"])
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"detection score {score} outside [0, 1]")
        if w <= 0 or h <= 0:
            raise ValueError("detection box must have positive extent")
        if known_images is not None:
            iw, ih = known_images[r["image_id"]]
            if x < 0 or y < 0 or x + w > iw or y + h > ih:
                raise ValueError(
                    f"detection box {r['bbox']} outside image {r['image_id']}")
        dets.append(Detection(r["image_id"], (x, y, x + w, y + h), score))
    return dets


def write_metrics_csv(curve: APCurve, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["bin_low_m", "bin_high_m", "gt_count", "ap"])
        for b in curve.bins:
            writer.writerow([b.low_m, b.high_m, b.gt_count,
                             "" if b.ap is None else f"{b.ap:.6f}"])


def read_metrics_csv(path) -> APCurve:
    bins = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            ap = float(row["ap"]) if row["ap"] != "" else None
            bins.append(APBin(float(row["bin_low_m"]), float(row["bin_high_m"]),
                              ap, int(row["gt_count"])))
    return APCurve(tuple(bins))


def write_summary_json(curve: APCurve, dets: list, gts: list, path) -> dict:
    overall = average_precision(dets, gts)
    result = od50(curve)
    summary = {
        "ap_overall": overall,
        "od50_m": None if result.beyond_range else result.od50_m,
        "od50_beyond_range": result.beyond_range,
        "n_detections": len(dets),
        "n_ground_truth": len(gts),
    }
    Path(path).write_text(json.dumps(summary, indent=1))
    return summary
