import numpy as np
import pytest

from camsim.annotation import GroundTruthBox
from camsim.detector import ProxyDetectorConfig, detectability, proxy_detect


def image_with_square(h=64, w=64, lo=0.2, hi=0.7, box=(20, 20, 44, 44)):
    v = np.full((h, w), lo)
    x0, y0, x1, y1 = box
    v[y0:y1, x0:x1] = hi
    rng = np.random.default_rng(0)
    v = np.clip(v + rng.normal(0, 0.02, size=v.shape), 0, 1)
    return v[:, :, None]


def gt_for(box, pixel_count=None, inst=1):
    x0, y0, x1, y1 = box
    n = pixel_count if pixel_count is not None else (x1 - x0) * (y1 - y0)
    return GroundTruthBox(inst, "car", box, 25.0, n)


def test_detectability_scales_with_contrast():
    strong = detectability(image_with_square(hi=0.8), gt_for((20, 20, 44, 44)),
                           min_pixels=150, snr_scale=1.0)
    weak = detectability(image_with_square(hi=0.3), gt_for((20, 20, 44, 44)),
                         min_pixels=150, snr_scale=1.0)
    assert strong > 2 * weak > 0


def test_detectability_zero_below_pixel_floor():
    img = image_with_square(box=(30, 30, 40, 40))
    box = gt_for((30, 30, 40, 40))  # 100 px < 150
    assert detectability(img, box, min_pixels=150, snr_scale=1.0) == 0.0
    assert detectability(img, box, min_pixels=100, snr_scale=1.0) > 0.0


def test_detectability_snr_scale_is_linear():
    img = image_with_square()
    box = gt_for((20, 20, 44, 44))
    d1 = detectability(img, box, min_pixels=150, snr_scale=1.0)
    d2 = detectability(img, box, min_pixels=150, snr_scale=2.0)
    assert d2 == pytest.approx(2 * d1, rel=1e-12)


def test_proxy_detect_deterministic_and_seeded():
    img = image_with_square()
    boxes = [gt_for((20, 20, 44, 44))]
    cfg = ProxyDetectorConfig(seed=5)
    a = proxy_detect(img, boxes, cfg, image_id="i")
    b = proxy_detect(img, boxes, cfg, image_id="i")
    assert [(d.bbox, d.score) for d in a] == [(d.bbox, d.score) for d in b]


def test_proxy_detect_strong_target_found_with_jittered_box():
    img = image_with_square()
    boxes = [gt_for((20, 20, 44, 44))]
    cfg = ProxyDetectorConfig(seed=1, jitter_px=1.0)
    dets = proxy_detect(img, boxes, cfg, image_id="i")
    assert len(dets) == 1
    x0, y0, x1, y1 = dets[0].bbox
    assert abs(x0 - 20) <= 1.0 and abs(y0 - 20) <= 1.0
    assert 0 < dets[0].score <= 1.0


def test_proxy_detect_skips_tiny_targets():
    img = image_with_square(box=(30, 30, 38, 38))
    boxes = [gt_for((30, 30, 38, 38))]
    dets = proxy_detect(img, boxes, ProxyDetectorConfig(seed=1), image_id="i")
    assert dets == []


def test_false_positive_rate_is_poisson_like():
    img = np.full((64, 64, 1), 0.5)
    cfg = ProxyDetectorConfig(seed=0, fp_rate_per_image=2.0)
    counts = [len(proxy_detect(img, [], ProxyDetectorConfig(
        seed=s, fp_rate_per_image=2.0), image_id=s)) for s in range(300)]
    mean = np.mean(counts)
    assert mean == pytest.approx(2.0, abs=0.3)
    assert np.var(counts) == pytest.approx(mean, rel=0.3)


def test_false_positive_boxes_inside_image():
    img = np.full((64, 64, 1), 0.5)
    dets = proxy_detect(img, [], ProxyDetectorConfig(seed=3, fp_rate_per_image=5.0),
                        image_id="i")
    for d in dets:
        x0, y0, x1, y1 = d.bbox
        assert 0 <= x0 < x1 <= 64 and 0 <= y0 < y1 <= 64

