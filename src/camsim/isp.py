"""Post-acquisition processing: bilinear demosaic, color correction fit
against built-in reflectance patches, gamma variants, raw passthrough, and
8-bit PPM output."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import cie_data
from .exposure import HDRFrame
from .sensor import MONO, RGGB, RawFrame, SensorSpec
from .spectral import DEFAULT_GRID, IRRADIANCE, WavelengthGrid, d65_spectrum, resample

TAG_SENSOR_LINEAR = "sensor-linear"
TAG_LINEAR_SRGB = "linear-sRGB"
TAG_SRGB_ENCODED = "sRGB-encoded"


@dataclass(frozen=True)
class RGBImage:
    values: np.ndarray  # (H, W, 3) or (H, W, 1), float64 in [0, 1]
    tag: str
    gamma_used: float | None = None

    def __post_init__(self):
        v = self.values
        if v.ndim != 3 or v.shape[2] not in (1, 3):
            raise ValueError("image must be (H, W, 1|3)")
        if not np.isfinite(v).all() or v.min() < 0 or v.max() > 1:
            raise ValueError("image values must be finite and in [0, 1]")


@dataclass(frozen=True)
class GammaSpec:
    mode: str = "adaptive"  # "fixed" | "adaptive" | "srgb" | "none"
    gamma: float = 1.0
    target: float = 0.2
    solve_output_mean: bool = False  # adaptive: solve mean(v^γ)=target instead

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive", "srgb", "none"):
            raise ValueError(f"unknown gamma mode {self.mode!r}")
        if self.mode == "fixed" and not 0 < self.gamma <= 10:
            raise ValueError("fixed gamma must be in (0, 10]")
        if not 0 < self.target < 1:
            raise ValueError("adaptive target must be in (0, 1)")


@dataclass(frozen=True)
class IspConfig:
    """The ISP pipeline: `stages`, run in order, are demosaic, color, gamma
    or raw, gamma, any but the first left out. `matrix` is the 3x3
    sensor-RGB to linear-sRGB correction; None fits one to the sensor."""
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
            _correction_matrix(self.matrix)


# Bilinear RGGB interpolation: what R, G and B read at each CFA phase (row,
# col parity), and the neighbour offsets each read averages, in summation
# order. "x" is the pixel itself; "h", "v", "4" and "d" are its horizontal,
# vertical, four edge and four diagonal neighbours.
_RGGB_PICKS = {(0, 0): ("x", "4", "d"), (0, 1): ("h", "x", "v"),
               (1, 0): ("v", "x", "h"), (1, 1): ("d", "4", "x")}
_NEIGHBOURS = {"x": ((0, 0),), "h": ((0, 1), (0, -1)), "v": ((-1, 0), (1, 0)),
               "4": ((-1, 0), (1, 0), (0, 1), (0, -1)),
               "d": ((-1, -1), (-1, 1), (1, -1), (1, 1))}


def demosaic_bilinear(frame: RawFrame) -> RGBImage:
    """Bilinear CFA interpolation on the DN-normalized mosaic (RGGB), or
    channel replication for MONO. Each neighbour average is computed only
    on the CFA phase that reads it."""
    x = frame.dn.astype(np.float64) / frame.sensor.max_code()
    pattern = frame.sensor.cfa.pattern
    if pattern == MONO.pattern:
        return RGBImage(np.repeat(x[:, :, None], 3, axis=2), TAG_SENSOR_LINEAR)
    if pattern != RGGB.pattern:
        raise ValueError("no demosaic defined for this CFA (export raw instead)")

    # 'reflect' padding (no edge repeat) keeps CFA parity at the borders
    p = np.pad(x, 1, mode="reflect")
    h, w = x.shape
    out = np.empty((h, w, 3))
    for (dy, dx), picks in _RGGB_PICKS.items():
        for c, pick in enumerate(picks):
            offsets = _NEIGHBOURS[pick]
            total = sum(p[1 + dy + oy:1 + h + oy:2, 1 + dx + ox:1 + w + ox:2]
                        for oy, ox in offsets)
            out[dy::2, dx::2, c] = total / len(offsets)
    return RGBImage(np.clip(out, 0.0, 1.0, out=out), TAG_SENSOR_LINEAR)


def reflectance_patches(grid: WavelengthGrid = DEFAULT_GRID) -> np.ndarray:
    """24 built-in smooth reflectances (rows) on `grid`: 18 chromatic
    Gaussian bumps plus 6 neutral grays."""
    lam = grid.wavelengths_nm
    patches = []
    for i in range(18):
        center = 410.0 + 17.0 * i
        sigma = 25.0 + 3.0 * (i % 5)
        amp = 0.25 + 0.03 * (i % 7)
        base = 0.06 + 0.01 * (i % 4)
        patches.append(base + amp * np.exp(-0.5 * ((lam - center) / sigma) ** 2))
    for g in (0.031, 0.09, 0.19, 0.36, 0.59, 0.90):
        patches.append(np.full(grid.count, g))
    return np.clip(np.array(patches), 0.0, 1.0)


def fit_color_matrix(sensor: SensorSpec, grid: WavelengthGrid = DEFAULT_GRID) -> np.ndarray:
    """Least-squares 3x3 mapping sensor RGB responses of the built-in
    patches under D65 to their linear-sRGB values."""
    patches = reflectance_patches(grid)
    illum = d65_spectrum(grid, IRRADIANCE)  # photon rate, relative scale

    qe = np.stack([resample(sensor.qe[ch], grid).values for ch in ("R", "G", "B")])
    sensor_rgb = patches * illum.values @ qe.T  # (24, 3), photon-weighted

    illum_w = illum.to_energy()
    cmf = np.stack([cie_data.CMF_XBAR, cie_data.CMF_YBAR, cie_data.CMF_ZBAR])
    cmf_grid = WavelengthGrid(cie_data.CMF_START, cie_data.CMF_STEP, cmf.shape[1])
    lam = grid.wavelengths_nm
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


def color_correct(img: RGBImage, matrix: np.ndarray | None = None,
                  sensor: SensorSpec | None = None) -> RGBImage:
    """Per-pixel 3x3 correction into linear sRGB, clamped to [0, 1]."""
    if img.tag != TAG_SENSOR_LINEAR:
        raise ValueError("color_correct expects a sensor-linear image")
    if img.values.shape[2] != 3:
        raise ValueError("color_correct expects a 3-channel image")
    if matrix is None:
        if sensor is None:
            raise ValueError("need a matrix or a sensor to fit one from")
        matrix = fit_color_matrix(sensor)
    out = np.clip(img.values @ _correction_matrix(matrix).T, 0.0, 1.0)
    return RGBImage(out, TAG_LINEAR_SRGB)


def _correction_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (3, 3) or abs(np.linalg.det(matrix)) < 1e-12:
        raise ValueError("correction matrix must be 3x3 and non-singular")
    return matrix


def _srgb_encode(v: np.ndarray) -> np.ndarray:
    lo = v <= 0.0031308
    return np.where(lo, 12.92 * v, 1.055 * np.power(v, 1 / 2.4) - 0.055)


def apply_gamma(img: RGBImage, spec: GammaSpec) -> RGBImage:
    v = img.values
    gamma_used: float | None = None
    if spec.mode == "none":
        out = v
    elif spec.mode == "srgb":
        out = _srgb_encode(v)
    elif spec.mode == "fixed":
        gamma_used = spec.gamma
        out = np.power(v, spec.gamma)
    else:  # adaptive
        m = float(v.mean())
        if not 0.0 < m < 1.0:
            warnings.warn(f"adaptive gamma undefined for mean {m}; using gamma=1")
            gamma_used = 1.0
        elif spec.solve_output_mean:
            gamma_used = _solve_output_mean_gamma(v, spec.target)
        else:
            gamma_used = float(np.log(spec.target) / np.log(m))
        out = np.power(v, gamma_used)
    out = np.clip(out, 0.0, 1.0)
    return RGBImage(out, TAG_SRGB_ENCODED, gamma_used)


def _solve_output_mean_gamma(v: np.ndarray, target: float) -> float:
    """Bisection on mean(v^γ) = target (monotone decreasing in γ)."""
    lo, hi = 1e-4, 10.0
    if v.max() <= 0:
        return 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(np.power(v, mid).mean()) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def raw_passthrough(frame: RawFrame) -> RGBImage:
    """DN-normalized untouched mosaic as a single sensor-linear plane."""
    x = frame.dn.astype(np.float64) / frame.sensor.max_code()
    return RGBImage(x[:, :, None], TAG_SENSOR_LINEAR)


def _hdr_to_mosaic_frame(hdr: HDRFrame) -> RawFrame:
    """Tone-normalize an HDR rate raster by its 99.9th percentile and requantize
    so the demosaic/raw stages can treat it like a raw frame."""
    norm = float(np.percentile(hdr.rate_e_per_s, 99.9))
    norm = norm if norm > 0 else 1.0
    v = np.clip(hdr.rate_e_per_s / norm, 0.0, 1.0)
    max_code = hdr.sensor.max_code()
    dn = np.round(v * max_code).astype(np.uint16)
    return RawFrame(dn, dn == max_code, 0.0, hdr.sensor, 0)


def render(frame, isp: IspConfig = IspConfig()) -> RGBImage:
    """The configured pipeline over a RawFrame or HDRFrame."""
    if isinstance(frame, HDRFrame):
        frame = _hdr_to_mosaic_frame(frame)
    img: RGBImage | None = None
    for stage in isp.stages:
        if stage == "demosaic":
            img = demosaic_bilinear(frame)
        elif stage == "color":
            img = color_correct(img, isp.matrix, frame.sensor)
        elif stage == "gamma":
            img = apply_gamma(img, isp.gamma)
        else:
            img = raw_passthrough(frame)
    return img


def write_ppm(img: RGBImage, path) -> None:
    """8-bit binary PPM (P6, max 255)."""
    v = img.values
    if v.shape[2] == 1:
        v = np.repeat(v, 3, axis=2)
    data = np.round(v * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{v.shape[1]} {v.shape[0]}\n255\n".encode())
        f.write(data.tobytes())
