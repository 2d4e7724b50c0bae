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


@dataclass(frozen=True)
class RGBImage:
    values: np.ndarray  # (H, W, 3) or (H, W, 1), float64 in [0, 1]
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


# The CFA patterns demosaic_bilinear interpolates; a config whose sensor has
# another must render raw
DEMOSAIC_PATTERNS = (MONO.pattern, RGGB.pattern)


def demosaic_bilinear(frame: RawFrame) -> RGBImage:
    """Bilinear CFA interpolation on the DN-normalized mosaic (RGGB), or
    channel replication for MONO. Each neighbour average is computed only
    on the CFA phase that reads it."""
    pattern = frame.sensor.cfa.pattern
    if pattern not in DEMOSAIC_PATTERNS:
        raise ValueError("no demosaic defined for this CFA (export raw instead)")
    if pattern == MONO.pattern:
        x = frame.dn / frame.sensor.max_code()
        return RGBImage(np.repeat(x[:, :, None], 3, axis=2))

    # The normalized mosaic is written into the interior of its padding.
    # 'reflect' padding (no edge repeat) keeps CFA parity at the borders; as
    # in np.pad, a side one pixel long repeats its edge instead.
    h, w = frame.dn.shape
    p = np.empty((h + 2, w + 2))
    np.divide(frame.dn, frame.sensor.max_code(), out=p[1:-1, 1:-1])
    ry, rx = min(1, h - 1), min(1, w - 1)
    p[0, 1:-1], p[-1, 1:-1] = p[1 + ry, 1:-1], p[h - ry, 1:-1]
    p[:, 0], p[:, -1] = p[:, 1 + rx], p[:, w - rx]
    out = np.empty((h, w, 3))
    total = np.empty(((h + 1) // 2, (w + 1) // 2))  # one phase's neighbour sum
    for (dy, dx), picks in _RGGB_PICKS.items():
        phase = total[:(h - dy + 1) // 2, :(w - dx + 1) // 2]
        for c, pick in enumerate(picks):
            planes = [p[1 + dy + oy:1 + h + oy:2, 1 + dx + ox:1 + w + ox:2]
                      for oy, ox in _NEIGHBOURS[pick]]
            if len(planes) == 1:
                out[dy::2, dx::2, c] = planes[0]
                continue
            np.add(planes[0], planes[1], out=phase)
            for plane in planes[2:]:
                np.add(phase, plane, out=phase)
            np.divide(phase, len(planes), out=phase)
            out[dy::2, dx::2, c] = phase
    return RGBImage(np.clip(out, 0.0, 1.0, out=out))


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


def color_correct(img: RGBImage, matrix) -> RGBImage:
    """Per-pixel 3x3 correction of a demosaiced sensor-RGB image into linear
    sRGB, clamped to [0, 1]."""
    out = img.values @ _correction_matrix(matrix).T
    return RGBImage(np.clip(out, 0.0, 1.0, out=out))


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
    if spec.mode == "srgb":
        out = _srgb_encode(v)
    elif spec.mode == "fixed":
        gamma_used = spec.gamma
        out = np.power(v, spec.gamma)
    else:  # adaptive: mean^γ = target
        m = float(v.mean())
        if not 0.0 < m < 1.0:
            warnings.warn(f"adaptive gamma undefined for mean {m}; using gamma=1")
            gamma_used = 1.0
        else:
            gamma_used = float(np.log(spec.target) / np.log(m))
        out = np.power(v, gamma_used)
    return RGBImage(np.clip(out, 0.0, 1.0, out=out), gamma_used)


def raw_passthrough(frame: RawFrame) -> RGBImage:
    """DN-normalized untouched mosaic as a single sensor-linear plane."""
    x = frame.dn / frame.sensor.max_code()
    return RGBImage(x[:, :, None])


def _hdr_to_mosaic_frame(hdr: HDRFrame) -> RawFrame:
    """Tone-normalize an HDR rate raster by its 99.9th percentile and requantize
    so the demosaic/raw stages can treat it like a raw frame."""
    norm = float(np.percentile(hdr.rate_e_per_s, 99.9))
    norm = norm if norm > 0 else 1.0
    max_code = hdr.sensor.max_code()
    v = np.divide(hdr.rate_e_per_s, norm)
    np.clip(v, 0.0, 1.0, out=v)
    np.multiply(v, max_code, out=v)
    dn = np.round(v, out=v).astype(np.uint16)
    return RawFrame(dn, dn == max_code, 0.0, hdr.sensor)


def render(frame, isp: IspConfig = IspConfig()) -> RGBImage:
    """The configured pipeline over a RawFrame or HDRFrame. The color stage
    applies `isp.matrix`, or one fitted to the frame's sensor."""
    if isinstance(frame, HDRFrame):
        frame = _hdr_to_mosaic_frame(frame)
    img: RGBImage | None = None
    for stage in isp.stages:
        if stage == "demosaic":
            img = demosaic_bilinear(frame)
        elif stage == "color":
            matrix = fit_color_matrix(frame.sensor) if isp.matrix is None else isp.matrix
            img = color_correct(img, matrix)
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
