"""Scene radiance to the sensor-plane optical image.

Uses the paraxial camera equation E = π·T·L / (1 + 4N²) plus an optional
cos⁴ falloff and a wavelength-independent Gaussian PSF. Every step from
radiance to photoelectrons is linear, and the falloff and the PSF do not
depend on wavelength, so radiance is projected once onto a few weighted
band sums (one per sensor channel, or luminance) and the falloff and the
PSF act on those planes instead of on every spectral band. The projection
takes each of the scene's palette spectra once. When neither the PSF nor
the falloff acts, the optical image is those sums, one row per palette
spectrum, over the scene's own label raster, and no (H, W, C) image is
built. The falloff alone gathers the sums onto (H, W, C) planes; the PSF
writes its blurred (H, W, C) planes straight from the sums and the label
raster.

The PSF is a separable Gaussian blur in numpy, done a block of rows at a
time so that each block stays in cache. It reproduces, bit for bit,
`scipy.ndimage.gaussian_filter(planes, (σ, σ, 0), mode="reflect",
truncate=6.0)` of the gathered planes: the same weights, half-sample
reflected edges, axis 0 before axis 1, and the same accumulation order for
every output (centre tap first, then the symmetric pairs from the
outermost tap inwards). A block whose input rows hold one label is that
label's blurred constant, so only blocks near a label edge are blurred:
numpy adds and multiplies with IEEE rounding and does not fuse them, so
every cell of a constant block takes the constant's own bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .scene import Scene, gather
from .spectral import Spectrum, WavelengthGrid, luminance_weights, project_bands, resample

FWHM_TO_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))  # ≈ 2.3548
_BLOCK_BYTES = 1 << 19  # a block's row buffer: 16 rows of 1280×3 float64, in L2 with its slab


@dataclass(frozen=True)
class LensSpec:
    focal_length_mm: float = 6.0
    f_number: float = 4.0
    transmission: float | Spectrum = 1.0
    psf_fwhm_um: float = 1.5
    cos4_falloff: bool = False

    def __post_init__(self):
        if self.f_number <= 0.5:
            raise ValueError("f_number must exceed 0.5")
        if self.focal_length_mm <= 0 or self.psf_fwhm_um < 0:
            raise ValueError("focal length must be positive and PSF FWHM non-negative")


@dataclass(frozen=True)
class IrradianceCube:
    values: np.ndarray  # (H, W, Nλ) photons/(s m² nm)
    grid: object  # WavelengthGrid
    pitch_um: float
    mean_illuminance_lux: float


@dataclass(frozen=True)
class OpticalImage:
    """Sensor-plane photoelectron rate density per CFA channel, before
    pixel sampling: Σλ E(λ)·QE_c(λ)·Δλ in electrons/(s m²), on an (H, W)
    grid. Held either as `palette`, the C rates of each scene palette
    spectrum, over the scene's own `labels` (shared with the scene, not
    copied), or, where the PSF or the cos⁴ falloff acted, as dense `planes`;
    `expected_rate` reads either through `sampler`."""
    shape: tuple  # (H, W) grid cells
    channels: tuple  # channel tags, in the sensor's CFA channel order
    pitch_um: float
    palette: np.ndarray | None = None  # (K, C) float64, row k for palette spectrum k
    labels: np.ndarray | None = None  # (H, W) uint32, each cell's palette row
    planes: np.ndarray | None = None  # (H, W, C) float64, plane c for channels[c]

    def sampler(self, c: int):
        """A function that gives channel c's rates on the grid cells that
        `select`, a function of an (H, W) array that returns a view of it,
        picks: a view of the dense plane, or a take from the channel's
        palette column."""
        if self.planes is not None:
            plane = self.planes[:, :, c]
            return lambda select: select(plane)
        column, labels = np.ascontiguousarray(self.palette[:, c]), self.labels
        return lambda select: column.take(select(labels), mode="clip")


def project_palette(scene: Scene, lens: LensSpec, weights: np.ndarray) -> np.ndarray:
    """Sensor-plane irradiance E(λ) = π·T(λ)·L(λ) / (1 + 4N²) of each
    palette spectrum, before the cos⁴ falloff, projected onto C band
    weightings: (C, Nλ) weights give (K, C) sums Σλ E(λ)·weights[c, λ]."""
    factor = np.pi / (1.0 + 4.0 * lens.f_number ** 2)
    if isinstance(lens.transmission, Spectrum):
        t = resample(lens.transmission, scene.grid).values
    else:
        t = float(lens.transmission)
    return project_bands(scene.palette, weights * (factor * t))


def project(scene: Scene, lens: LensSpec, weights: np.ndarray) -> np.ndarray:
    """`project_palette` gathered onto the label raster as (H, W, C)
    planes, times the cos⁴ falloff."""
    planes = gather(project_palette(scene, lens, weights), scene.labels)
    if lens.cos4_falloff:
        planes *= _cos4(scene, lens)[:, :, None]
    return planes


def _cos4(scene: Scene, lens: LensSpec) -> np.ndarray:
    """The (H, W) cos⁴ falloff over the scene's grid, centred on the
    optical axis."""
    h, w = scene.labels.shape
    pitch_mm = scene.grid_pitch_um * 1e-3
    y = (np.arange(h) - (h - 1) / 2.0) * pitch_mm
    x = (np.arange(w) - (w - 1) / 2.0) * pitch_mm
    r2 = x[None, :] ** 2 + y[:, None] ** 2
    cos2 = lens.focal_length_mm ** 2 / (lens.focal_length_mm ** 2 + r2)
    return cos2 ** 2


def mean_illuminance_lux(scene: Scene, lens: LensSpec) -> float:
    """Mean sensor-plane illuminance, before the PSF (which conserves flux):
    each palette spectrum's illuminance times the area its label covers,
    weighted by the cos⁴ falloff when it acts, counted a band of rows at a
    time so that bincount's intp copy of the labels stays small."""
    lux = project_palette(scene, lens, luminance_weights(scene.grid)[None, :])[:, 0]
    labels = scene.labels
    falloff = _cos4(scene, lens) if lens.cos4_falloff else None
    area = np.zeros(lux.size)
    band = max(1, _BLOCK_BYTES // (8 * labels.shape[1]))
    for r0 in range(0, labels.shape[0], band):
        weights = None if falloff is None else falloff[r0:r0 + band].reshape(-1)
        area += np.bincount(labels[r0:r0 + band].reshape(-1), weights, minlength=lux.size)
    return float(project_bands(area[None, :], lux[None, :])[0, 0]) / labels.size


def psf_sigma(pitch_um: float, lens: LensSpec) -> float | None:
    """The PSF's σ = FWHM/2.3548 in grid cells of this pitch, for
    `psf_blur`, or None when no blur runs: at zero FWHM, and, with a
    warning, when the grid is too coarse to sample the kernel. The one place
    that decides to skip the blur."""
    if lens.psf_fwhm_um == 0.0:
        return None
    if pitch_um > lens.psf_fwhm_um / 2.0:
        warnings.warn(
            f"grid pitch {pitch_um} µm too coarse for "
            f"{lens.psf_fwhm_um} µm FWHM PSF; convolution skipped")
        return None
    return lens.psf_fwhm_um / FWHM_TO_SIGMA / pitch_um


def _reflect(idx: np.ndarray, n: int) -> np.ndarray:
    """Half-sample reflection of indices into 0..n-1, with period 2n, so
    sides shorter than the kernel radius reflect again."""
    m = np.mod(idx, 2 * n)
    return np.where(m < n, m, 2 * n - 1 - m)


def psf_blur(rates: np.ndarray, labels: np.ndarray, sigma: float,
             falloff: np.ndarray | None = None) -> np.ndarray:
    """Gaussian blur at σ grid cells (from `psf_sigma`) of the (H, W, C)
    planes rates[labels], for (K, C) float64 rates over an (H, W) label
    raster, times the (H, W) `falloff` when one is given; plane by plane,
    with reflective edges so total flux is conserved. Dense planes blur as
    their cells' rows over identity labels.

    Weights are exp(-x²/2σ²) normalised to sum 1 over x = -r..r, with
    r = int(6σ + 0.5). Axis 0 is blurred, then axis 1; each output is
    w₀·x[i] + Σ (x[i−k] + x[i+k])·w_k accumulated for k = r down to 1, the
    order in which `scipy.ndimage.gaussian_filter` sums, so the result is
    identical to it. Each block of b rows reads a slab of input rows
    i0−r … i0+b+r−1, reflected at the top and bottom edges. Without a
    falloff, a slab that holds one label k is that palette row everywhere,
    so its block is filled with row k of the blurred constants: the rates
    blurred as a 1×1×(K·C) image by this same loop, whose every output
    takes the same adds and multiplies. Any other slab is gathered from
    the rates (and multiplied by its rows of the falloff); its axis-0 pass
    is written between reflected column margins in a per-block buffer and
    its axis-1 pass is taken from there."""
    r = int(6.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = (phi / phi.sum())[r:]  # w[k] weighs the taps at distance k
    h, width = labels.shape
    c = rates.shape[1]
    out = np.empty((h, width, c))
    block = max(1, _BLOCK_BYTES // (8 * (width + 2 * r) * c))
    slab_buf = np.empty((block + 2 * r, width, c))
    buf = np.empty((block, width + 2 * r, c))
    pair = np.empty((block, width, c))
    left = r + _reflect(np.arange(-r, 0), width)
    right = r + _reflect(np.arange(width, width + r), width)
    constants = None
    for i0 in range(0, h, block):
        b = min(block, h - i0)
        if r <= i0 and i0 + b + r <= h:
            src = slice(i0 - r, i0 + b + r)
        else:
            src = _reflect(np.arange(i0 - r, i0 + b + r), h)
        slab_labels = labels[src]
        # a 1×1 raster is the constants' own blur, so it is always blurred
        if falloff is None and h * width > 1 and slab_labels.min() == slab_labels.max():
            if constants is None:
                constants = psf_blur(rates.reshape(1, -1), np.zeros((1, 1), np.intp),
                                     sigma).reshape(rates.shape)
            out[i0:i0 + b] = constants[slab_labels[0, 0]]
            continue
        slab = slab_buf[:b + 2 * r]
        np.take(rates, slab_labels, axis=0, out=slab, mode="clip")
        if falloff is not None:  # one long multiply per plane: twice a broadcast's speed
            rows_falloff = falloff[src]
            for plane in np.moveaxis(slab, 2, 0):
                plane *= rows_falloff
        rows, t = buf[:b], pair[:b]
        mid = rows[:, r:r + width]
        np.multiply(slab[r:r + b], w[0], out=mid)
        for k in range(r, 0, -1):
            np.add(slab[r - k:r - k + b], slab[r + k:r + k + b], out=t)
            t *= w[k]
            mid += t
        rows[:, :r] = rows[:, left]
        rows[:, r + width:] = rows[:, right]
        dst = out[i0:i0 + b]
        np.multiply(mid, w[0], out=dst)
        for k in range(r, 0, -1):
            np.add(rows[:, r - k:r - k + width], rows[:, r + k:r + k + width], out=t)
            t *= w[k]
            dst += t
    return out


def channel_weights(sensor, grid: WavelengthGrid) -> np.ndarray:
    """(C, Nλ) per-channel QE(λ)·Δλ, in the sensor's CFA channel order."""
    return np.stack([resample(sensor.qe[ch], grid).values * grid.step_nm
                     for ch in sensor.cfa.channels])


def optical_image(scene: Scene, lens: LensSpec, sensor) -> OpticalImage:
    """The scene's per-channel sensor-plane rates, computed once and shared
    by metering, every bracket and every pixel size of the same sensor
    CFA and QE. Without a PSF blur or cos⁴ falloff, the palette's rates
    over the scene's label raster; with one, the (H, W, C) planes, which
    the PSF blurs from the palette's rates and label raster."""
    weights = channel_weights(sensor, scene.grid)
    pitch = scene.grid_pitch_um
    sigma = psf_sigma(pitch, lens)
    if sigma is None and not lens.cos4_falloff:
        return OpticalImage(scene.labels.shape, sensor.cfa.channels, pitch,
                            palette=project_palette(scene, lens, weights), labels=scene.labels)
    if sigma is None:
        planes = project(scene, lens, weights)
    else:
        planes = psf_blur(project_palette(scene, lens, weights), scene.labels, sigma,
                          _cos4(scene, lens) if lens.cos4_falloff else None)
    return OpticalImage(planes.shape[:2], sensor.cfa.channels, pitch, planes=planes)


def radiance_to_irradiance(scene: Scene, lens: LensSpec) -> IrradianceCube:
    """Spectral irradiance E(λ): the projection with one unit weighting per band."""
    cube = project(scene, lens, np.eye(scene.grid.count))
    return IrradianceCube(cube, scene.grid, scene.grid_pitch_um,
                          mean_illuminance_lux(scene, lens))

