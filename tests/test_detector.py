import math

import numpy as np
import pytest

from camsim.annotation import GroundTruthBox
from camsim.detector import ProxyDetectorConfig, detectability, proxy_detect, proxy_rows


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



def textured_image(h=40, w=56, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.1, 0.3, (h, w, channels))
    v[10:30, 15:40] += 0.5
    return v


# boxes on every edge and corner, boxes clipped by the frame (W = 56, H = 40),
# a box wider than the frame and one outside it
WINDOW_BOXES = [(15, 10, 40, 30), (0, 12, 20, 28), (36, 12, 56, 28), (18, 0, 38, 14),
                (18, 26, 38, 40), (0, 0, 18, 14), (38, 0, 56, 14), (0, 26, 18, 40),
                (38, 26, 56, 40), (-6, -4, 14, 12), (44, 30, 63, 47), (-3, 8, 60, 30),
                (60, 10, 70, 20)]


def whole_frame_dprime(luma, box, min_pixels, snr_scale):
    """detectability as it was when it read the whole frame's luma (the
    oracle): clip the box, widen it by the margin, mask it out of the
    surround."""
    h, w = luma.shape
    x0, y0, x1, y1 = (int(v) for v in box.bbox)
    x0, y0, x1, y1 = max(0, x0), max(0, y0), min(w, x1), min(h, y1)
    if x1 <= x0 or y1 <= y0 or box.pixel_count < min_pixels:
        return 0.0
    inside = luma[y0:y1, x0:x1]
    margin = max(2, (x1 - x0) // 2, (y1 - y0) // 2)
    sx0, sy0 = max(0, x0 - margin), max(0, y0 - margin)
    sx1, sy1 = min(w, x1 + margin), min(h, y1 + margin)
    ring = luma[sy0:sy1, sx0:sx1].copy()
    ring[y0 - sy0:y1 - sy0, x0 - sx0:x1 - sx0] = np.nan
    ring = ring[np.isfinite(ring)]
    if ring.size < 8:
        return 0.0
    contrast = abs(float(inside.mean()) - float(ring.mean())) / (float(ring.std()) + 1e-6)
    return snr_scale * math.sqrt(box.pixel_count) * contrast


@pytest.mark.parametrize("flat", [False, True], ids=["textured", "flat"])
def test_a_float32_image_reads_as_its_float64_copy(flat):
    # a flat image is a saturated frame's render, every pixel one RGB value:
    # float32 sums of its luma would read rounding error as contrast
    img = textured_image().astype(np.float32)
    if flat:
        img[...] = (1.0, 0.00422897, 1.0)
    for b in WINDOW_BOXES:
        box = gt_for(b, pixel_count=200)
        want = detectability(img.astype(np.float64), box, min_pixels=150, snr_scale=1.0)
        assert detectability(img, box, min_pixels=150, snr_scale=1.0) == want


@pytest.mark.parametrize("channels", [3, 1])
def test_windowed_luma_matches_the_whole_frame_luma(channels):
    img = textured_image(channels=channels)
    luma = img.mean(axis=2)
    boxes = [gt_for(b, pixel_count=200, inst=k + 1) for k, b in enumerate(WINDOW_BOXES)]
    for box in boxes:
        want = whole_frame_dprime(luma, box, min_pixels=150, snr_scale=1.0)
        assert detectability(luma, box, min_pixels=150, snr_scale=1.0) == want
        assert detectability(img, box, min_pixels=150, snr_scale=1.0) == want
    cfg = ProxyDetectorConfig(seed=4, jitter_px=1.5, fp_rate_per_image=1.0)
    from_luma = proxy_detect(luma, boxes, cfg, image_id="i")
    from_image = proxy_detect(img, boxes, cfg, image_id="i")
    assert len(from_luma) > 1
    assert [(d.bbox, d.score) for d in from_image] == [(d.bbox, d.score) for d in from_luma]


# boxes on a 240x320 frame: centred, on corners and edges, clipped by the
# frame, wide and small; at the float64 means' last bits most read d' ≈ 1e-8
FLAT_BOXES = [(150, 110, 170, 140), (0, 0, 30, 20), (290, 220, 320, 240), (40, 60, 100, 100),
              (100, 10, 123, 27), (-5, 200, 25, 250), (200, 100, 260, 180), (7, 33, 31, 61)]


def test_a_flat_window_has_no_detectability_and_is_not_detected():
    """A saturated frame renders every pixel one RGB value: its windows hold
    no contrast, so every box reads d' = 0 and none is detected."""
    img = np.empty((240, 320, 3), np.float32)
    img[...] = (1.0, 0.9137, 1.0)
    boxes = [gt_for(b, pixel_count=400, inst=k + 1) for k, b in enumerate(FLAT_BOXES)]
    for box in boxes:
        assert detectability(img, box, min_pixels=150, snr_scale=1.0) == 0.0
        assert detectability(img[..., 1], box, min_pixels=150, snr_scale=1.0) == 0.0
    for seed in range(20):
        assert proxy_detect(img, boxes, ProxyDetectorConfig(seed=seed), image_id="i") == []


def test_proxy_detect_reads_only_the_rows_proxy_rows_names(monkeypatch):
    """An image rendered for `proxy_rows` of its boxes is read only there
    (each box's surround window, none for a box too small to score), and its
    detections are those of the whole rendered frame."""
    from camsim import isp
    from camsim.isp import IspConfig, render
    from camsim.sensor import RawFrame, SensorSpec

    monkeypatch.setattr(isp, "_BAND_BYTES", 4 * 56 * 3 * 4)  # bands of 4 rows
    sensor = SensorSpec()
    dn = (textured_image(channels=1)[..., 0] * sensor.max_code()).astype(np.uint16)
    frame = RawFrame(dn, dn == sensor.max_code(), 1e-3, sensor)
    boxes = [gt_for(b, pixel_count=100 if k == 2 else 200, inst=k + 1)
             for k, b in enumerate(WINDOW_BOXES)]
    cfg = ProxyDetectorConfig(seed=4, jitter_px=1.5, fp_rate_per_image=1.0)
    assert proxy_rows([boxes[2]], dn.shape, cfg) == set()  # 100 px < 150: never read
    # (18, 0, 38, 14) and (18, 26, 38, 40), widened by 10 rows
    picked = [boxes[2], boxes[3], boxes[4]]
    rows = proxy_rows(picked, dn.shape, cfg)
    assert rows == set(range(0, 24)) | set(range(16, 40))
    img = render(frame, IspConfig(), rows=rows)
    read, read_rows = [], img.read_rows
    monkeypatch.setattr(img, "read_rows", lambda r0, r1: read.append((r0, r1))
                        or read_rows(r0, r1))
    dets = proxy_detect(img, picked, cfg, image_id="i")
    assert read == [(0, 24), (16, 40)]
    whole = render(frame, IspConfig()).values
    assert [(d.bbox, d.score) for d in dets] == \
        [(d.bbox, d.score) for d in proxy_detect(whole, picked, cfg, image_id="i")]
    for box in picked:
        assert detectability(img, box, 150, 1.0) == detectability(whole, box, 150, 1.0)
