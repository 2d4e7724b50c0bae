"""Pluggable detector boundary and the deterministic proxy detector.

The proxy is an evaluation instrument, not a vision algorithm: it reads the
ground-truth boxes and emits detections with a probability driven by an
image-quality detectability index (pixels on target × local contrast over
the local noise estimate). An external detector scores the exported
dataset offline; its detections are scored by `camsim eval`, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .evalmetrics import Detection
from .rng import stream_key, uniforms

_LANE_DETECT = 31
_LANE_JITTER = 32
_LANE_FP = 33


@dataclass(frozen=True)
class ProxyDetectorConfig:
    seed: int = field(default=0, metadata={"key": None})  # set per scene by the runner
    min_pixels: int = 150  # ≈ a 10x15 box; smaller targets are never emitted
    snr_scale: float = 1.0
    jitter_px: float = 1.0
    fp_rate_per_image: float = 0.0

    def __post_init__(self):
        if self.min_pixels < 0 or self.snr_scale < 0 or self.jitter_px < 0 \
                or self.fp_rate_per_image < 0:
            raise ValueError("proxy config fields must be non-negative")


@dataclass(frozen=True)
class DetectorConfig:
    """The run's detector: the proxy's options."""
    proxy: ProxyDetectorConfig = field(default_factory=ProxyDetectorConfig)


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _luma(values: np.ndarray) -> np.ndarray:
    """A new float64 luma raster of an (H, W, C) image or an (H, W) luma.
    The statistics of a float32 image are taken in float64: float32 sums
    leave a flat window a contrast of rounding error over a near-zero
    std, which the 1e-6 floor does not hide."""
    if values.ndim == 3:
        return values.mean(axis=2, dtype=np.float64)
    return values.astype(np.float64)


def _windows(box, h: int, w: int, min_pixels: int):
    """(the box clipped to an h×w image, its surround window), each as
    (x0, y0, x1, y1): the clipped box widened by a margin of half its
    larger side, at least 2 px, and clipped again. None when d' is zero
    without a read: the clipped box is empty or covers fewer than
    min_pixels pixels."""
    x0, y0, x1, y1 = (int(v) for v in box.bbox)
    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(w, x1), min(h, y1)
    if x1 <= x0 or y1 <= y0 or box.pixel_count < min_pixels:
        return None
    margin = max(2, (x1 - x0) // 2, (y1 - y0) // 2)
    return (x0, y0, x1, y1), (max(0, x0 - margin), max(0, y0 - margin),
                              min(w, x1 + margin), min(h, y1 + margin))


def detectability(image, box, min_pixels: int, snr_scale: float) -> float:
    """d' = snr_scale · sqrt(pixels on target) · local contrast, where local
    contrast is |mean inside − mean surround| over the surround std (a noise
    estimate). Zero when the box covers fewer than min_pixels pixels, and
    when the window's luma holds one value (a flat or saturated window).
    `image` is an RGBImage, an (H, W, 3) image or its (H, W) luma. Only the
    surround window's rows are read (an RGBImage's through `read_rows`),
    and its luma is taken per pixel, so the result equals that of the whole
    frame's luma."""
    windows = _windows(box, *image.shape[:2], min_pixels)
    if windows is None:
        return 0.0
    (x0, y0, x1, y1), (sx0, sy0, sx1, sy1) = windows
    rows = image[sy0:sy1] if isinstance(image, np.ndarray) else image.read_rows(sy0, sy1)
    ring = _luma(rows[:, sx0:sx1])
    if ring.min() == ring.max():  # no contrast: the means differ by rounding error only
        return 0.0
    inside = ring[y0 - sy0:y1 - sy0, x0 - sx0:x1 - sx0]
    inside_mean = float(inside.mean())
    inside[...] = np.nan
    ring = ring[np.isfinite(ring)]
    if ring.size < 8:
        return 0.0
    contrast = abs(inside_mean - float(ring.mean())) / (float(ring.std()) + 1e-6)
    return snr_scale * math.sqrt(box.pixel_count) * contrast


def proxy_rows(truths: list, shape: tuple, config: ProxyDetectorConfig) -> set:
    """The rows of an image of `shape` that `proxy_detect` reads for
    `truths`: those of each box's surround window."""
    rows = set()
    for box in truths:
        windows = _windows(box, *shape[:2], config.min_pixels)
        if windows is not None:
            rows.update(range(windows[1][1], windows[1][3]))
    return rows


def proxy_detect(image, truths: list, config: ProxyDetectorConfig,
                 image_id=0) -> list:
    """Deterministic detections for the ground-truth boxes in `image`
    (an RGBImage or a plain 2-D/3-D array), plus Poisson false positives.
    Only the rows `proxy_rows` names are read. Randomness is
    counter-based, keyed by (seed, instance id)."""
    if not hasattr(image, "read_rows"):
        image = np.asarray(image)
    h, w = image.shape[:2]
    dets = []
    for box in truths:
        dprime = detectability(image, box, config.min_pixels, config.snr_scale)
        if dprime <= 0.0:
            continue
        prob = _phi(dprime - 1.0)
        u = uniforms(stream_key(config.seed, _LANE_DETECT, box.instance_id), 1)[0]
        if u >= prob:
            continue
        jx = jy = 0.0
        if config.jitter_px > 0:
            ju = uniforms(stream_key(config.seed, _LANE_JITTER, box.instance_id), 2)
            jx = (2.0 * ju[0] - 1.0) * config.jitter_px
            jy = (2.0 * ju[1] - 1.0) * config.jitter_px
        x0, y0, x1, y1 = box.bbox
        x0 = min(max(0.0, x0 + jx), w - 1.0)
        y0 = min(max(0.0, y0 + jy), h - 1.0)
        x1 = max(min(float(w), x1 + jx), x0 + 1.0)
        y1 = max(min(float(h), y1 + jy), y0 + 1.0)
        dets.append(Detection(image_id, (x0, y0, x1, y1), prob))
    dets.extend(_false_positives(h, w, config, image_id))
    return dets


def _false_positives(h: int, w: int, config: ProxyDetectorConfig, image_id) -> list:
    if config.fp_rate_per_image <= 0:
        return []
    key = stream_key(config.seed, _LANE_FP, 0)
    u = uniforms(key, 1)[0]
    # Poisson count by inversion from one uniform (rates here are small)
    lam = config.fp_rate_per_image
    count, cum, p = 0, math.exp(-lam), math.exp(-lam)
    while u >= cum and count < 100:
        count += 1
        p *= lam / count
        cum += p
    out = []
    for i in range(count):
        v = uniforms(stream_key(config.seed, _LANE_FP, i + 1), 5)
        bw = 10.0 + v[2] * 40.0
        bh = 10.0 + v[3] * 40.0
        x0 = v[0] * max(1.0, w - bw)
        y0 = v[1] * max(1.0, h - bh)
        out.append(Detection(image_id,
                             (x0, y0, min(w, x0 + bw), min(h, y0 + bh)),
                             float(v[4])))
    return out

