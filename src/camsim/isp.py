"""Post-acquisition processing: bilinear demosaic, color correction fit
against built-in reflectance patches, gamma variants, raw passthrough, and
8-bit PPM output.

`render` writes one (H, W, C) float32 image a band of rows at a time. Every
stage runs in float32, with the color matrix and the gamma exponent rounded
to float32, so no loop upcasts: an 8-bit display value or a 10-bit code does
not need a double. Only an HDR frame's tone map computes its codes in
float64, so that each is the code the float64 expression gives. A band is
an even number of rows whose output fills about `_BAND_BYTES`, so the band,
the mosaic rows it reads and its linear planes stay in cache from one stage
to the next. Each band runs the demosaic, into
three planar (R, G, B) planes, and the color correction, each clipped to
[0, 1], in one pass. The color correction forms output channel i as
m_i0·r + m_i1·g + m_i2·b, in that order, with elementwise numpy operations,
so its bits do not depend on the BLAS kernel. Gamma runs in a second banded
pass, in place: adaptive gamma takes its exponent from the mean of the whole
image, summed exactly as `ndarray.mean` sums it (pairwise in float32, which
has no band-wise equivalent with the same bits), and fixed and sRGB gamma
share that pass. No whole-frame mosaic is built: each band's frame rows,
normalized to [0, 1] (an HDR frame's tone map included), are written into
one reused buffer with the one-row halo and the reflected border that the
demosaic reads. `render`, configured by `IspConfig.stages`, is the one entry
point to these stages."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import cie_data
from .exposure import HDRFrame
from .sensor import MONO, RGGB, SensorSpec
from .spectral import DEFAULT_GRID, IRRADIANCE, WavelengthGrid, d65_spectrum, resample


@dataclass(frozen=True)
class RGBImage:
    values: np.ndarray  # (H, W, 3) or (H, W, 1), float32 in [0, 1]
    gamma_used: float | None = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[2] not in (1, 3):
            raise ValueError("image must be (H, W, 1|3)")
        # NaN fails both comparisons; an empty image has no min and raises too
        if not (v.min() >= 0 and v.max() <= 1):
            raise ValueError("image values must be finite and in [0, 1]")


@dataclass(frozen=True)
class GammaSpec:
    mode: str = "adaptive"  # "fixed" | "adaptive" | "srgb"
    gamma: float = 1.0
    target: float = 0.2

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive", "srgb"):
            raise ValueError(f"unknown gamma mode {self.mode!r}; expected fixed, adaptive or "
                             "srgb (to skip gamma, leave it out of isp.stages)")
        if self.mode != "fixed" and self.gamma != GammaSpec.gamma:
            raise ValueError(f"gamma is read only in fixed mode, not {self.mode}")
        if self.mode != "adaptive" and self.target != GammaSpec.target:
            raise ValueError(f"target is read only in adaptive mode, not {self.mode}")
        if self.mode == "fixed" and not 0 < self.gamma <= 10:
            raise ValueError("fixed gamma must be in (0, 10]")
        if not 0 < self.target < 1:
            raise ValueError("adaptive target must be in (0, 1)")


@dataclass(frozen=True)
class IspConfig:
    """The ISP pipeline: `stages`, run in order, are demosaic, color, gamma
    or raw, gamma, any but the first left out; this order is checked here
    only. `matrix` is the 3x3 sensor-RGB to linear-sRGB correction (None
    fits one to the sensor), read only with a color stage; `gamma` is read
    only with a gamma stage."""
    stages: tuple = ("demosaic", "color", "gamma")
    gamma: GammaSpec = field(default_factory=GammaSpec)
    matrix: tuple | None = None

    def __post_init__(self):
        for stage in self.stages:
            if stage not in ("demosaic", "color", "gamma", "raw"):
                raise ValueError(f"unknown pipeline stage {stage!r}")
        orders = {"demosaic": ("demosaic", "color", "gamma"), "raw": ("raw", "gamma")}
        remaining = iter(orders.get(self.stages[0], ()) if self.stages else ())
        if not self.stages or not all(stage in remaining for stage in self.stages):
            raise ValueError(f"stages {list(self.stages)} must start with demosaic or raw and "
                             "follow demosaic, color, gamma or raw, gamma, each at most once")
        if self.matrix is not None:
            if "color" not in self.stages:
                raise ValueError("matrix is read only with a color stage")
            _correction_matrix(self.matrix)
        if self.gamma != GammaSpec() and "gamma" not in self.stages:
            raise ValueError("gamma is read only with a gamma stage")


# Bilinear RGGB interpolation: what R, G and B read at each CFA phase (row,
# col parity), and the neighbour offsets each read averages, in summation
# order. "x" is the pixel itself; "h", "v", "4" and "d" are its horizontal,
# vertical, four edge and four diagonal neighbours.
_RGGB_PICKS = {(0, 0): ("x", "4", "d"), (0, 1): ("h", "x", "v"),
               (1, 0): ("v", "x", "h"), (1, 1): ("d", "4", "x")}
_NEIGHBOURS = {"x": ((0, 0),), "h": ((0, 1), (0, -1)), "v": ((-1, 0), (1, 0)),
               "4": ((-1, 0), (1, 0), (0, 1), (0, -1)),
               "d": ((-1, -1), (-1, 1), (1, -1), (1, 1))}


# The CFA patterns the demosaic interpolates; a config whose sensor has
# another must render raw
DEMOSAIC_PATTERNS = (MONO.pattern, RGGB.pattern)

# A band's output rows: 68 rows of 2560×3 float32, with the mosaic rows, the
# linear planes and the color scratch they are computed from. Sized for two
# scene workers rendering at once, as the CLI runs them: on hdr_fulldye's
# fused 1440×2560 frame (2-CPU AVX-512 Xeon, median of 5 rounds of 3),
# 1 << 19, 20, 21 and 22 took 230, 177, 153 and 168 ms for two renders on
# two threads, and 161, 148, 142 and 142 ms for one render alone
_BAND_BYTES = 1 << 21


def _band_rows(a: np.ndarray) -> int:
    """Rows per band of `a`: an even count, at least 2, so that every band
    starts on CFA row 0."""
    row_bytes = a.itemsize * int(np.prod(a.shape[1:]))
    return max(2, _BAND_BYTES // max(1, row_bytes) // 2 * 2)


def _bands(a: np.ndarray):
    """(first row, view) of each band of `a`."""
    step = _band_rows(a)
    for i0 in range(0, a.shape[0], step):
        yield i0, a[i0:i0 + step]


# The strided sample whose percentile bounds the top_percentile tail
_SAMPLE_STRIDE = 64
_SAMPLE_PERCENTILE = 99.5


def top_percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) with the linear method, bit for bit, for
    finite values without -0.0, reading an upper-tail q without a
    partition of every value.

    The linear method interpolates between the order statistics at the
    floor and the ceiling of the virtual index (n − 1)·q/100. A lower bound
    for both is the `_SAMPLE_PERCENTILE` percentile of every
    `_SAMPLE_STRIDE`-th value: only the values at or above it are
    partitioned, and the ranks below it are skipped. If the bound is too
    high for the floor's rank, every value is partitioned. The two order
    statistics are then combined as numpy's `_lerp` combines them."""
    flat = values.reshape(-1)
    n = flat.size
    v = (n - 1) * (q / 100)
    lo = math.floor(v)
    hi = min(lo + 1, n - 1)
    bound = np.percentile(flat[::_SAMPLE_STRIDE], _SAMPLE_PERCENTILE)
    tail = flat[flat >= bound]
    skip = n - tail.size  # ranks below the bound
    if skip > lo:
        tail, skip = flat, 0
    tail = np.partition(tail, sorted({lo - skip, hi - skip}))
    a, b, t = float(tail[lo - skip]), float(tail[hi - skip]), v - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _plane(frame) -> np.ndarray:
    """The 2-D raster of a RawFrame (DN) or an HDRFrame (rate)."""
    return frame.rate_e_per_s if isinstance(frame, HDRFrame) else frame.dn


def _row_filler(frame, rows: int):
    """fill(r0, r1, out): rows r0:r1 (at most `rows` of them) of the frame in
    [0, 1], written into the float32 `out`. A RawFrame reads DN / max_code,
    rounded once to float32. An HDRFrame's rate is tone-mapped by its 99.9th
    percentile, computed here once, and requantized in float64, in a scratch
    buffer of `rows` rows: round(clip(rate / norm, 0, 1)·max_code) is the
    code, and code / max_code, rounded once to float32, is the value a
    RawFrame holding those codes reads. Every step is elementwise, so a
    row's bits do not depend on the rows filled with it."""
    max_code = frame.sensor.max_code()
    if not isinstance(frame, HDRFrame):
        dn, scale = frame.dn, np.float32(max_code)
        return lambda r0, r1, out: np.divide(dn[r0:r1], scale, out=out)
    rate = frame.rate_e_per_s
    norm = top_percentile(rate, 99.9)
    norm = norm if norm > 0 else 1.0
    scratch = np.empty((min(rows, rate.shape[0]), rate.shape[1]))

    def fill(r0, r1, out):
        code = scratch[:r1 - r0]
        np.divide(rate[r0:r1], norm, out=code)
        np.clip(code, 0.0, 1.0, out=code)
        np.multiply(code, max_code, out=code)
        np.round(code, out=code)
        np.add(code, 0.0, out=code)  # a code is never -0.0
        np.divide(code, max_code, out=out)
    return fill


def _fill_padded_band(fill, h: int, i0: int, b: int, step: int, p: np.ndarray) -> None:
    """Rows p[:b + 2] of a band buffer one pixel wider than the frame on
    each side: frame rows i0 - 1 … i0 + b, the band's rows with a one-row
    halo, padded in 'reflect' mode (no edge repeat), which keeps CFA parity
    at the borders; as in np.pad, a side one pixel long repeats its edge
    instead. After the first band (i0 > 0), rows i0 - 1 and i0 are the
    previous band's last two rows, p[step:step + 2], so each frame row is
    filled once."""
    w = p.shape[1] - 2
    x = p[:, 1:w + 1]
    ry, rx = min(1, h - 1), min(1, w - 1)
    if i0 == 0:
        fill(ry, ry + 1, x[:1])
        fill(0, 1, x[1:2])
    else:
        x[:2] = x[step:step + 2]
    fill(i0 + 1, i0 + b, x[2:b + 1])
    last = i0 + b if i0 + b < h else h - 1 - ry
    fill(last, last + 1, x[b + 1:b + 2])
    p[:b + 2, 0], p[:b + 2, w + 1] = p[:b + 2, 1 + rx], p[:b + 2, w - rx]


def _demosaic_band(mosaic: np.ndarray, mono: bool, out: np.ndarray) -> None:
    """The demosaic of a band, into the (3, b, W) planes `out`: bilinear
    RGGB over a `_fill_padded_band` buffer (its first row is the halo above
    the band), each neighbour average computed only on the CFA phase that
    reads it, or a MONO band's rows in all three planes. Every plane value
    is a buffer value or the float32 mean of 2 or 4 of them, and
    `_row_filler` writes only values in [0, 1], never -0.0, so the planes
    lie in [0, 1] with no clip."""
    b, w = out.shape[1:]
    if mono:
        out[...] = mosaic[:b]
        return
    total = np.empty(((b + 1) // 2, (w + 1) // 2), out.dtype)  # one phase's neighbour sum
    for (dy, dx), picks in _RGGB_PICKS.items():
        phase = total[:(b - dy + 1) // 2, :(w - dx + 1) // 2]
        for c, pick in enumerate(picks):
            planes = [mosaic[1 + dy + oy:1 + b + oy:2, 1 + dx + ox:1 + w + ox:2]
                      for oy, ox in _NEIGHBOURS[pick]]
            if len(planes) == 1:
                out[c, dy::2, dx::2] = planes[0]
                continue
            np.add(planes[0], planes[1], out=phase)
            for plane in planes[2:]:
                np.add(phase, plane, out=phase)
            np.divide(phase, len(planes), out=phase)
            out[c, dy::2, dx::2] = phase


def reflectance_patches() -> np.ndarray:
    """24 built-in smooth reflectances (rows) on the default grid: 18
    chromatic Gaussian bumps plus 6 neutral grays."""
    lam = DEFAULT_GRID.wavelengths_nm
    patches = []
    for i in range(18):
        center = 410.0 + 17.0 * i
        sigma = 25.0 + 3.0 * (i % 5)
        amp = 0.25 + 0.03 * (i % 7)
        base = 0.06 + 0.01 * (i % 4)
        patches.append(base + amp * np.exp(-0.5 * ((lam - center) / sigma) ** 2))
    for g in (0.031, 0.09, 0.19, 0.36, 0.59, 0.90):
        patches.append(np.full(DEFAULT_GRID.count, g))
    return np.clip(np.array(patches), 0.0, 1.0)


def fit_color_matrix(sensor: SensorSpec) -> np.ndarray:
    """Least-squares 3x3 mapping sensor RGB responses of the built-in
    patches, on the default grid, under D65 to their linear-sRGB values."""
    patches = reflectance_patches()
    illum = d65_spectrum(DEFAULT_GRID, IRRADIANCE)  # photon rate, relative scale

    qe = np.stack([resample(sensor.qe[ch], DEFAULT_GRID).values for ch in ("R", "G", "B")])
    sensor_rgb = patches * illum.values @ qe.T  # (24, 3), photon-weighted

    illum_w = illum.to_energy()
    cmf = np.stack([cie_data.CMF_XBAR, cie_data.CMF_YBAR, cie_data.CMF_ZBAR])
    cmf_grid = WavelengthGrid(cie_data.CMF_START, cie_data.CMF_STEP, cmf.shape[1])
    lam = DEFAULT_GRID.wavelengths_nm
    cmf_rs = np.stack([
        np.interp(lam, cmf_grid.wavelengths_nm, cmf[k], left=0.0, right=0.0)
        for k in range(3)
    ])
    xyz = patches * illum_w @ cmf_rs.T  # (24, 3)
    white_y = float(illum_w @ cmf_rs[1])
    srgb = xyz / white_y @ cie_data.XYZ_TO_SRGB.T

    white_rgb = illum.values @ qe.T
    sensor_rgb = sensor_rgb / white_rgb[1]
    coeffs, *_ = np.linalg.lstsq(sensor_rgb, srgb, rcond=None)
    return coeffs.T


def _correction_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (3, 3) or abs(np.linalg.det(matrix)) < 1e-12:
        raise ValueError("correction matrix must be 3x3 and non-singular")
    return matrix


def _color_band(v: np.ndarray, matrix: np.ndarray, out: np.ndarray,
                scratch: np.ndarray) -> None:
    """Channel i of `out` (b, W, 3) = m_i0·r + m_i1·g + m_i2·b of the
    (3, b, W) planes `v`, summed in that order and clipped to [0, 1];
    `scratch` holds two (b, W) planes."""
    acc, term = scratch
    for i, row in enumerate(matrix):
        np.multiply(v[0], row[0], out=acc)
        for j in (1, 2):
            np.multiply(v[j], row[j], out=term)
            np.add(acc, term, out=acc)
        np.clip(acc, 0.0, 1.0, out=out[..., i])


def _gamma_exponent(spec: GammaSpec, v: np.ndarray) -> float | None:
    """The power `spec` raises the image `v` to, or None for the sRGB curve.
    Adaptive mode solves mean^γ = target over the whole image."""
    if spec.mode == "srgb":
        return None
    if spec.mode == "fixed":
        return spec.gamma
    m = float(v.mean())
    if not 0.0 < m < 1.0:
        warnings.warn(f"adaptive gamma undefined for mean {m}; using gamma=1")
        return 1.0
    return float(np.log(spec.target) / np.log(m))


def _gamma_band(v: np.ndarray, exponent: float | None, out: np.ndarray) -> None:
    """`v` raised to `exponent` rounded to float32 (None: the sRGB curve),
    clipped to [0, 1], into `out`, which may be `v`. np.power takes a slow
    path on exact zeros, so it raises only the values it has to: each
    exponent is positive, and +0.0 (bit pattern 0) raised to it is +0.0;
    the sRGB curve's power branch reads only the values above its linear
    segment."""
    if exponent is None:
        curve = v > 0.0031308
        enc = np.multiply(v, 12.92)
        np.power(v, 1 / 2.4, out=enc, where=curve)
        np.multiply(enc, 1.055, out=enc, where=curve)
        np.subtract(enc, 0.055, out=enc, where=curve)
        np.clip(enc, 0.0, 1.0, out=out)
    else:
        if out is not v:
            out[...] = v
        np.power(v, np.float32(exponent), out=out, where=v.view(f"u{v.itemsize}") != 0)
        np.clip(out, 0.0, 1.0, out=out)


def render(frame, isp: IspConfig = IspConfig()) -> RGBImage:
    """The configured pipeline over a RawFrame or HDRFrame, a band of rows
    at a time. The color stage applies `isp.matrix`, or one fitted to the
    frame's sensor."""
    pattern = frame.sensor.cfa.pattern
    if isp.stages[0] != "raw" and pattern not in DEMOSAIC_PATTERNS:
        raise ValueError("no demosaic defined for this CFA (export raw instead)")
    h, w = _plane(frame).shape
    if isp.stages[0] == "raw":
        out = np.empty((h, w, 1), np.float32)
        fill = _row_filler(frame, _band_rows(out))
        for i0, band in _bands(out):
            fill(i0, i0 + len(band), band[..., 0])
    else:
        mono = pattern == MONO.pattern
        matrix = None
        if "color" in isp.stages:
            matrix = _correction_matrix(
                fit_color_matrix(frame.sensor) if isp.matrix is None else isp.matrix
            ).astype(np.float32)
        out = np.empty((h, w, 3), np.float32)
        step = _band_rows(out)
        fill = _row_filler(frame, step)
        rows = min(step, h)
        mosaic = np.empty((rows, w) if mono else (rows + 2, w + 2), np.float32)
        linear = np.empty((3, rows, w), np.float32)
        scratch = None if matrix is None else np.empty((2, rows, w), np.float32)
        for i0, band in _bands(out):
            b = len(band)
            if mono:
                fill(i0, i0 + b, mosaic[:b])
            else:
                _fill_padded_band(fill, h, i0, b, step, mosaic)
            lin = linear[:, :b]
            _demosaic_band(mosaic, mono, lin)
            if matrix is None:
                band[...] = lin.transpose(1, 2, 0)
            else:
                _color_band(lin, matrix, band, scratch[:, :b])
    exponent = None
    if "gamma" in isp.stages:
        exponent = _gamma_exponent(isp.gamma, out)
        for _, band in _bands(out):
            _gamma_band(band, exponent, band)
    return RGBImage(out, exponent)


def write_ppm(img: RGBImage, path) -> None:
    """8-bit binary PPM (P6, max 255)."""
    v = img.values
    if v.shape[2] == 1:
        v = np.repeat(v, 3, axis=2)
    data = np.round(v * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{v.shape[1]} {v.shape[0]}\n255\n".encode())
        f.write(data.tobytes())
