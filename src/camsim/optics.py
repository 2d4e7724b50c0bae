"""Scene radiance to the sensor-plane optical image.

Uses the paraxial camera equation E = π·T·L / (1 + 4N²) plus an optional
cos⁴ falloff and a wavelength-independent Gaussian PSF. Every step from
radiance to photoelectrons is linear, and the falloff and the PSF do not
depend on wavelength, so radiance is projected once onto a few weighted
band sums (one per sensor channel, or luminance) and the falloff and the
PSF act on those planes instead of on every spectral band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .scene import Scene
from .spectral import Spectrum, WavelengthGrid, luminance_weights, project_bands, resample

FWHM_TO_SIGMA = 2.0 * np.sqrt(2.0 * np.log(2.0))  # ≈ 2.3548


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
    pixel sampling: Σλ E(λ)·QE_c(λ)·Δλ in electrons/(s m²)."""
    rates: np.ndarray  # (H, W, C) float64, plane c for channels[c]
    channels: tuple  # channel tags, in the sensor's CFA channel order
    pitch_um: float


def project(scene: Scene, lens: LensSpec, weights: np.ndarray) -> np.ndarray:
    """Sensor-plane irradiance E(λ) = π·T(λ)·L(λ) / (1 + 4N²), times the
    cos⁴ falloff, projected onto K band weightings: (K, Nλ) weights give
    (H, W, K) planes Σλ E(λ)·weights[k, λ]."""
    factor = np.pi / (1.0 + 4.0 * lens.f_number ** 2)
    if isinstance(lens.transmission, Spectrum):
        t = resample(lens.transmission, scene.grid).values
    else:
        t = float(lens.transmission)
    planes = project_bands(scene.radiance, weights * (factor * t))
    if lens.cos4_falloff:
        h, w = planes.shape[:2]
        pitch_mm = scene.grid_pitch_um * 1e-3
        y = (np.arange(h) - (h - 1) / 2.0) * pitch_mm
        x = (np.arange(w) - (w - 1) / 2.0) * pitch_mm
        r2 = x[None, :] ** 2 + y[:, None] ** 2
        cos2 = lens.focal_length_mm ** 2 / (lens.focal_length_mm ** 2 + r2)
        planes *= (cos2 ** 2)[:, :, None]
    return planes


def mean_illuminance_lux(scene: Scene, lens: LensSpec) -> float:
    """Mean sensor-plane illuminance, before the PSF (which conserves flux)."""
    return float(project(scene, lens, luminance_weights(scene.grid)[None, :]).mean())


def psf_blur(planes: np.ndarray, pitch_um: float, lens: LensSpec) -> np.ndarray:
    """Gaussian blur (σ = FWHM/2.3548) of each (H, W) plane, reflective
    edges so total flux is conserved. Returns `planes` itself, with a warning,
    when the grid is too coarse to sample the kernel."""
    if lens.psf_fwhm_um == 0.0:
        return planes
    if pitch_um > lens.psf_fwhm_um / 2.0:
        warnings.warn(
            f"grid pitch {pitch_um} µm too coarse for "
            f"{lens.psf_fwhm_um} µm FWHM PSF; convolution skipped")
        return planes
    sigma_px = lens.psf_fwhm_um / FWHM_TO_SIGMA / pitch_um
    return ndimage.gaussian_filter(
        planes, sigma=(sigma_px, sigma_px, 0.0), mode="reflect", truncate=6.0)


def channel_weights(sensor, grid: WavelengthGrid) -> np.ndarray:
    """(C, Nλ) per-channel QE(λ)·Δλ, in the sensor's CFA channel order."""
    return np.stack([resample(sensor.qe[ch], grid).values * grid.step_nm
                     for ch in sensor.cfa.channels])


def optical_image(scene: Scene, lens: LensSpec, sensor) -> OpticalImage:
    """The scene's per-channel sensor-plane rates, computed once and shared
    by metering, every bracket and every pixel size of the same sensor
    CFA and QE."""
    rates = project(scene, lens, channel_weights(sensor, scene.grid))
    return OpticalImage(psf_blur(rates, scene.grid_pitch_um, lens),
                        sensor.cfa.channels, scene.grid_pitch_um)


def radiance_to_irradiance(scene: Scene, lens: LensSpec) -> IrradianceCube:
    """Spectral irradiance E(λ): the projection with one unit weighting per band."""
    cube = project(scene, lens, np.eye(scene.grid.count))
    return IrradianceCube(cube, scene.grid, scene.grid_pitch_um,
                          mean_illuminance_lux(scene, lens))

