"""Exposure control: fixed plans, center-weighted metering with a frame-rate
cap, and HDR bracketing with select-before-saturation fusion, each bracket
sampled only on the pixels where the fusion reads it."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .optics import OpticalImage
from .optics import radiance_to_irradiance  # noqa: F401  (perfbench/selftest.py wraps this binding)
from .rng import stream_key
from .sensor import (RawFrame, SensorGeometry, SensorSpec, dn_to_electrons, expected_rate,
                     expose, sensor_geometry)

DEFAULT_BRACKET_S = (12e-3, 0.12e-3, 12e-6)
DEFAULT_CAP_S = 16e-3  # 60 fps frame budget


@dataclass(frozen=True)
class ExposurePlan:
    mode: str  # "fixed" | "center_weighted" | "bracketed"
    t_s: float = 1e-3
    cap_s: float = DEFAULT_CAP_S
    window_fraction: float = 0.01
    target_fraction: float = 0.90
    statistic: str = "max"  # or "p99"
    durations_s: tuple = DEFAULT_BRACKET_S

    def __post_init__(self):
        if self.mode not in ("fixed", "center_weighted", "bracketed"):
            raise ValueError(f"unknown exposure mode {self.mode!r}")
        if self.statistic not in ("max", "p99"):
            raise ValueError(f"statistic must be 'max' or 'p99', got {self.statistic!r}")
        for name in ("window_fraction", "target_fraction"):
            if not 0 < getattr(self, name) <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {getattr(self, name)!r}")
        if self.mode == "fixed" and not 0 < self.t_s <= self.cap_s:
            raise ValueError("fixed duration must be in (0, cap]")
        if self.mode == "bracketed":
            d = self.durations_s
            if not d:
                raise ValueError("bracketed needs at least one duration in durations_s")
            if any(not 0 < t <= self.cap_s for t in d):
                raise ValueError("bracket durations must be in (0, cap]")
            if any(d[i] <= d[i + 1] for i in range(len(d) - 1)):
                raise ValueError("bracket durations must be strictly decreasing")


@dataclass(frozen=True)
class HDRFrame:
    rate_e_per_s: np.ndarray  # float64 (rows, cols) linear electron-rate estimate
    valid: np.ndarray  # bool; False where every bracket saturated
    chosen: np.ndarray  # index of the contributing exposure, in the smallest unsigned type
    durations_s: tuple
    sensor: SensorSpec


def metering_window(rows: int, cols: int, window_fraction: float) -> tuple:
    """Centered rectangle covering `window_fraction` of the image area."""
    side = np.sqrt(window_fraction)
    wh = max(1, int(round(rows * side)))
    ww = max(1, int(round(cols * side)))
    y0 = (rows - wh) // 2
    x0 = (cols - ww) // 2
    return y0, x0, y0 + wh, x0 + ww


@dataclass(frozen=True)
class Acquisition:
    """The frame to render and where its pixels sit; the expected-rate raster
    it was exposed from is not kept (`expected_rate` gives it again)."""
    source: object  # what the ISP renders: the RawFrame, or the HDRFrame of brackets
    duration_s: float  # fixed or metered duration; the longest bracket when bracketed
    geometry: SensorGeometry  # where the frame's pixels sit on the scene grid


def acquire(image: OpticalImage, sensor: SensorSpec, plan: ExposurePlan,
            seed: int) -> Acquisition:
    """Sample the optical image on the sensor's pixels once, then meter and
    expose from that one expected-rate raster. A bracketed plan exposes each
    bracket only on the pixels that every longer bracket saturated, the only
    pixels where the fusion reads it, so the HDR frame equals
    `hdr_combine` of the full brackets at a fraction of the noise work."""
    rate = expected_rate(image, sensor)
    geometry = sensor_geometry(image.shape, image.pitch_um, sensor)
    if plan.mode == "bracketed":
        flat = rate.reshape(-1)

        def bracket(i, at):
            return expose(rate if at is None else flat[at], sensor, plan.durations_s[i],
                          _bracket_seed(seed, i), at=at)

        hdr = _fuse(rate.shape, tuple(plan.durations_s), sensor, bracket)
        return Acquisition(hdr, plan.durations_s[0], geometry)
    t = plan.t_s if plan.mode == "fixed" else metered_duration(rate, sensor, plan)
    return Acquisition(expose(rate, sensor, t, seed), t, geometry)


def metered_duration(rate: np.ndarray, sensor: SensorSpec, plan: ExposurePlan) -> float:
    """Duration putting the metering window's brightest expected pixel (or
    its p99) at target_fraction of well, capped at plan.cap_s. An idealized
    (noise-free) meter on the central window of the expected-rate raster."""
    y0, x0, y1, x1 = metering_window(*rate.shape, plan.window_fraction)
    window = rate[y0:y1, x0:x1]
    stat = float(np.percentile(window, 99.0)) if plan.statistic == "p99" \
        else float(window.max())
    if stat <= 0:
        return plan.cap_s
    return min(plan.cap_s, plan.target_fraction * sensor.effective_well_e() / stat)


def _bracket_seed(seed: int, i: int) -> int:
    return int(stream_key(seed, 7, i))


def hdr_combine(frames: list) -> HDRFrame:
    """The fusion of `acquire` over full bracket frames: per pixel, keep the
    longest-duration unsaturated frame and divide out its duration; pixels
    saturated everywhere fall back to the shortest duration and are flagged
    invalid."""
    if not frames:
        raise ValueError("no frames to combine")
    shape = frames[0].dn.shape
    durations = tuple(f.exposure_s for f in frames)
    for f in frames:
        if f.dn.shape != shape:
            raise ValueError("frames have mismatched geometry")
    if any(durations[i] <= durations[i + 1] for i in range(len(durations) - 1)):
        raise ValueError("frame durations must be strictly decreasing")

    def bracket(i, at):
        f = frames[i]
        if at is None:
            return f
        return replace(f, dn=f.dn.reshape(-1)[at], saturated=f.saturated.reshape(-1)[at])

    return _fuse(shape, durations, frames[0].sensor, bracket)


def _fuse(shape: tuple, durations: tuple, sensor: SensorSpec, bracket) -> HDRFrame:
    """Select-before-saturation fusion. `bracket(0, None)` is the whole
    RawFrame of the longest bracket; `bracket(i, at)` for a later bracket is
    its RawFrame at the flat pixel indices `at`, asked only for the pixels
    that every longer bracket saturated. Each pixel keeps the first
    (longest) unsaturated bracket divided by its duration; a pixel saturated
    in every bracket reads the last one and is flagged invalid."""
    f = bracket(0, None)
    rate = np.empty(f.dn.size)
    _apply_table(_code_rates(sensor, f.exposure_s), f.dn.reshape(-1), rate)
    chosen = np.zeros(rate.size, dtype=np.min_scalar_type(len(durations) - 1))
    undecided = np.flatnonzero(f.saturated)
    for i in range(1, len(durations)):
        if not undecided.size:
            break
        f = bracket(i, undecided)
        take = ~f.saturated | (i == len(durations) - 1)
        at = undecided[take]
        rate[at] = _apply_table(_code_rates(sensor, f.exposure_s), f.dn[take],
                                np.empty(at.size))
        chosen[at] = i
        undecided = undecided[f.saturated]
    valid = np.ones(rate.size, dtype=bool)
    valid[undecided] = False
    return HDRFrame(rate.reshape(shape), valid.reshape(shape), chosen.reshape(shape),
                    durations, sensor)


def _code_rates(sensor: SensorSpec, exposure_s: float) -> np.ndarray:
    """The rate each code of a frame exposed for `exposure_s` reads, one
    entry per code from 0 to max_code: `dn_to_electrons` of the code divided
    by the duration, in those steps, so that the table read at a frame's
    codes is that expression of the frame byte for byte."""
    codes = np.arange(sensor.max_code() + 1)
    table = dn_to_electrons(RawFrame(codes, codes == sensor.max_code(), exposure_s, sensor))
    table /= exposure_s
    return table


def _apply_table(table: np.ndarray, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = table[codes], a chunk of codes at a time: `take` copies its
    indices to intp, and a chunk's copy is all it makes."""
    for start in range(0, codes.size, kernels._CHUNK):
        where = slice(start, start + kernels._CHUNK)
        np.take(table, codes[where], out=out[where])
    return out


def effective_dynamic_range(sensor_dr_db: float, durations_s) -> float:
    """Sensor dynamic range extended by the bracket duration ratio."""
    durations = sorted(durations_s)
    if len(durations) < 2:
        return sensor_dr_db
    return sensor_dr_db + 20.0 * np.log10(durations[-1] / durations[0])
