import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim.evalmetrics import (APBin, Detection, GTBox,
                                average_precision, ap_vs_distance,
                                detections_from_json, detections_to_json, iou,
                                match, od50, read_metrics_csv,
                                write_metrics_csv)


def det(bbox, score, image=0):
    return Detection(image, bbox, score)


def gt(bbox, dist=10.0, image=0):
    return GTBox(image, bbox, dist)


# ----------------------------------------------------------------- IoU ----

def test_iou_oracle_values():
    assert iou(det((0, 0, 10, 10), 1.0), gt((0, 0, 10, 10))) == pytest.approx(1.0)
    assert iou(det((0, 0, 10, 10), 1.0), gt((5, 0, 15, 10))) == pytest.approx(1 / 3)
    assert iou(det((0, 0, 10, 10), 1.0), gt((10, 0, 20, 10))) == 0.0
    assert iou(det((0, 0, 4, 4), 1.0), gt((2, 2, 6, 6))) == pytest.approx(4 / 28)


def test_match_greedy_score_order():
    # the higher-scoring detection wins the only GT
    dets = [det((0, 0, 10, 10), 0.4), det((1, 0, 11, 10), 0.9)]
    gts = [gt((0, 0, 10, 10))]
    tp, det_gt = match(dets, gts)
    assert tp == [False, True]
    assert det_gt == [-1, 0]  # the GT is matched, by the second detection


def test_match_score_tie_keeps_input_order():
    dets = [det((1, 0, 11, 10), 0.5), det((0, 0, 10, 10), 0.5)]
    tp, _ = match(dets, [gt((0, 0, 10, 10))])
    assert tp == [True, False]


def test_match_iou_tie_lowest_gt_index():
    d = [det((0, 0, 10, 10), 1.0)]
    gts = [gt((0, 0, 10, 10)), gt((0, 0, 10, 10))]
    _, det_gt = match(d, gts)
    assert det_gt == [0]


def test_match_respects_threshold():
    d = [det((0, 0, 10, 10), 1.0)]
    tp, _ = match(d, [gt((6, 0, 16, 10))])
    assert tp == [False]


# ------------------------------------------------------------------ AP ----

def brute_force_ap(dets, gts):
    """Independent AP oracle: re-run fresh greedy matching on every score
    prefix, then integrate precision over recall with the running-max
    envelope."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    precisions, recalls = [], []
    for k in range(1, len(order) + 1):
        prefix = [dets[i] for i in order[:k]]
        tp, _ = match(prefix, gts)
        n_tp = sum(tp)
        precisions.append(n_tp / k)
        recalls.append(n_tp / len(gts))
    ap = 0.0
    prev_r = 0.0
    for k in range(len(order)):
        env = max(precisions[k:])
        ap += (recalls[k] - prev_r) * env
        prev_r = recalls[k]
    return ap


def random_instance(rng):
    def box():
        x0 = rng.uniform(0, 80)
        y0 = rng.uniform(0, 80)
        return (x0, y0, x0 + rng.uniform(4, 30), y0 + rng.uniform(4, 30))
    gts = [gt(box()) for _ in range(rng.randint(1, 5))]
    dets = []
    for _ in range(rng.randint(0, 8)):
        if gts and rng.random() < 0.7:
            x0, y0, x1, y1 = gts[rng.randrange(len(gts))].bbox
            dx, dy = rng.uniform(-6, 6), rng.uniform(-6, 6)
            b = (x0 + dx, y0 + dy, x1 + dx, y1 + dy)
        else:
            b = box()
        dets.append(det(b, round(rng.random(), 3)))
    return dets, gts


def test_ap_matches_brute_force_oracle():
    rng = random.Random(12345)
    for _ in range(1000):
        dets, gts = random_instance(rng)
        assert average_precision(dets, gts) == brute_force_ap(dets, gts)


def test_ap_simple_oracles():
    g = [gt((0, 0, 10, 10)), gt((20, 0, 30, 10))]
    # perfect: both found, no false positives
    d = [det((0, 0, 10, 10), 0.9), det((20, 0, 30, 10), 0.8)]
    assert average_precision(d, g) == pytest.approx(1.0)
    # one hit then one miss: P=(1, 0.5), R=(0.5, 0.5) -> AP = 0.5
    d = [det((0, 0, 10, 10), 0.9), det((50, 50, 60, 60), 0.8)]
    assert average_precision(d, g) == pytest.approx(0.5)
    assert average_precision([], g) == 0.0
    assert average_precision(d, []) is None


def test_ap_pools_per_image_matching():
    # same coordinates in two images must not cross-match
    g = [gt((0, 0, 10, 10), image="a"), gt((0, 0, 10, 10), image="b")]
    d = [det((0, 0, 10, 10), 0.9, image="a"),
         det((0, 0, 10, 10), 0.8, image="a")]  # duplicate in image a only
    ap = average_precision(d, g)
    # first det is TP (recall 0.5), duplicate is FP
    assert ap == pytest.approx(0.5)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50, deadline=None)
def test_ap_bounded(seed):
    rng = random.Random(seed)
    dets, gts = random_instance(rng)
    ap = average_precision(dets, gts)
    assert 0.0 <= ap <= 1.0


# ------------------------------------------------ distance bins & OD50 ----

def curve(pairs):
    return tuple(APBin(i * 10.0, (i + 1) * 10.0, ap, 0 if ap is None else 5)
                 for i, ap in enumerate(pairs))


def test_od50_interpolation_fixture():
    """(45 m, 0.6) -> (55 m, 0.4) crosses 0.5 exactly at 50 m."""
    assert od50((APBin(40.0, 50.0, 0.6, 5), APBin(50.0, 60.0, 0.4, 5))) == \
        pytest.approx(50.0, abs=1e-12)


def test_od50_edge_cases():
    assert od50(curve([0.4, 0.3])) == 0.0
    assert od50(curve([0.9, 0.8, 0.7])) == math.inf  # beyond range
    # None bins are skipped, crossing still found
    assert od50(curve([0.9, None, 0.1])) == pytest.approx(15.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=12),
       st.integers(min_value=0, max_value=11))
@settings(max_examples=100, deadline=None)
def test_od50_monotone_raising_property(aps, idx):
    """Raising any AP value never decreases the reported OD50."""
    raised = list(aps)
    i = idx % len(raised)
    raised[i] = min(1.0, raised[i] + 0.3)
    assert od50(curve(raised)) >= od50(curve(aps)) - 1e-12


def test_ap_vs_distance_bins_by_gt_distance():
    g = [gt((0, 0, 10, 10), dist=12.0), gt((20, 0, 30, 10), dist=37.0)]
    d = [det((0, 0, 10, 10), 0.9), det((50, 50, 60, 60), 0.5)]
    c = ap_vs_distance(d, g)
    assert c[1].gt_count == 1 and c[1].ap == pytest.approx(1.0)
    assert c[3].gt_count == 1 and c[3].ap == pytest.approx(0.0)
    assert c[0].ap is None  # no GT there
    # the unmatched detection overlaps no GT: excluded from every bin
    assert all(b.gt_count in (0, 1) for b in c)


def test_ap_vs_distance_unmatched_goes_to_nearest_gt_bin():
    g = [gt((0, 0, 10, 10), dist=12.0)]
    # the near miss (IoU 0.18) outscores the true hit, so it is a leading FP
    # anchored to its best-overlap GT's bin
    d = [det((0, 0, 10, 10), 0.8), det((7, 0, 17, 10), 0.9)]
    c = ap_vs_distance(d, g)
    assert c[1].ap == pytest.approx(0.5)


# ------------------------------------------------------------------ I/O ----

def test_detections_json_round_trip():
    d = [det((1.0, 2.0, 11.0, 22.0), 0.75, image="img_1")]
    back = detections_from_json(detections_to_json(d), {"img_1": (64, 64)})
    assert back[0].bbox == d[0].bbox
    assert back[0].score == 0.75


def test_detections_from_json_reads_xywh_boxes():
    recs = [{"image_id": "a", "bbox": [1, 1, 5, 5], "score": 0.9}]
    dets = detections_from_json(recs, {"a": (64, 64)})
    assert dets[0].bbox == (1, 1, 6, 6)


def test_detections_json_validation():
    rec = {"image_id": "x", "bbox": [0, 0, 10, 10], "score": 1.5}
    with pytest.raises(ValueError, match="score"):
        detections_from_json([rec], {"x": (64, 64)})
    rec["score"] = 0.5
    rec["bbox"] = [60, 0, 10, 10]
    with pytest.raises(ValueError, match="outside image"):
        detections_from_json([rec], {"x": (64, 64)})
    with pytest.raises(ValueError, match="unknown image ids"):
        detections_from_json([{"image_id": "y", "bbox": [0, 0, 1, 1], "score": 0.1}],
                             {"x": (64, 64)})


def test_metrics_csv_round_trip(tmp_path):
    c = curve([1.0, 0.5, None, 0.25])
    write_metrics_csv(c, tmp_path / "m.csv")
    back = read_metrics_csv(tmp_path / "m.csv")
    assert len(back) == 4
    assert back[0].ap == pytest.approx(1.0)
    assert back[2].ap is None
    header = (tmp_path / "m.csv").read_text().splitlines()[0]
    assert header == "bin_low_m,bin_high_m,gt_count,ap"
