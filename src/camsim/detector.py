"""Pluggable detector boundary and the deterministic proxy detector.

The proxy is an evaluation instrument, not a vision algorithm: it reads the
ground-truth boxes and emits detections with a probability driven by an
image-quality detectability index (pixels on target × local contrast over
the local noise estimate). External CNN detections enter through
import_detections instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .evalmetrics import Detection, detections_from_json
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
    """The run's detector: the proxy's options, or a detections file (the
    config key `import`) scored in its place."""
    proxy: ProxyDetectorConfig = field(default_factory=ProxyDetectorConfig)
    imported: str | None = field(default=None, metadata={"key": "import"})

    def __post_init__(self):
        if self.imported is not None and not Path(self.imported).is_file():
            raise ValueError(f"detections file not found: {self.imported}")


def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _luma(values: np.ndarray) -> np.ndarray:
    return values.mean(axis=2) if values.ndim == 3 else values


def detectability(image_values: np.ndarray, box, min_pixels: int,
                  snr_scale: float) -> float:
    """d' = snr_scale · sqrt(pixels on target) · local contrast, where local
    contrast is |mean inside − mean surround| over the surround std (a noise
    estimate). Zero when the box covers fewer than min_pixels pixels.
    image_values is an (H, W, 3) image or its (H, W) luma."""
    luma = _luma(image_values)
    h, w = luma.shape
    x0, y0, x1, y1 = (int(v) for v in box.bbox)
    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(w, x1), min(h, y1)
    if x1 <= x0 or y1 <= y0:
        return 0.0
    if box.pixel_count < min_pixels:
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


def proxy_detect(image, truths: list, config: ProxyDetectorConfig,
                 image_id=0) -> list:
    """Deterministic detections for the ground-truth boxes in `image`
    (an RGBImage or a plain 2-D/3-D array), plus Poisson false positives.
    Randomness is counter-based, keyed by (seed, instance id)."""
    values = image.values if hasattr(image, "values") else np.asarray(image)
    luma = _luma(values)
    h, w = luma.shape
    dets = []
    for box in truths:
        dprime = detectability(luma, box, config.min_pixels, config.snr_scale)
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


def import_detections(path, known_images: dict | None = None) -> list:
    """Load external detector output (the detections JSON interchange
    format), validating scores, boxes, and image ids."""
    records = json.loads(Path(path).read_text())
    return detections_from_json(records, known_images)
