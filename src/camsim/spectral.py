"""Wavelength grids, tagged spectra, and photometric conversions.

All radiometric quantities are carried internally as photon rates
(photons/s/...), since sensor integration counts photons; energy-unit
inputs are converted at construction time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import cie_data

# Unit tags.
RADIANCE = "photons/(s*m^2*nm*sr)"
IRRADIANCE = "photons/(s*m^2*nm)"
DIMENSIONLESS = "dimensionless"


@dataclass(frozen=True)
class WavelengthGrid:
    start_nm: float = 400.0
    step_nm: float = 10.0
    count: int = 31

    def __post_init__(self):
        if self.start_nm <= 0 or self.step_nm <= 0 or self.count < 1:
            raise ValueError("invalid wavelength grid")

    @property
    def wavelengths_nm(self) -> np.ndarray:
        return self.start_nm + self.step_nm * np.arange(self.count)

    @property
    def stop_nm(self) -> float:
        return self.start_nm + self.step_nm * (self.count - 1)


DEFAULT_GRID = WavelengthGrid()


@dataclass(frozen=True)
class Spectrum:
    grid: WavelengthGrid
    values: np.ndarray
    unit: str = DIMENSIONLESS

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.count,):
            raise ValueError("values length does not match grid count")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.unit == DIMENSIONLESS and (v.min() < 0 or v.max() > 1):
            raise ValueError("dimensionless spectra must lie in [0, 1]")
        if self.unit in (RADIANCE, IRRADIANCE) and v.min() < 0:
            raise ValueError("radiometric spectra must be non-negative")

    def scaled(self, k: float) -> "Spectrum":
        return Spectrum(self.grid, self.values * k, self.unit)

    @staticmethod
    def from_energy(values_w, grid: WavelengthGrid, unit: str) -> "Spectrum":
        """Build a photon-rate spectrum from W/(m^2 nm [sr]) samples."""
        lam_m = grid.wavelengths_nm * 1e-9
        photons = np.asarray(values_w, dtype=np.float64) * lam_m / cie_data.HC
        return Spectrum(grid, photons, unit)

    def to_energy(self) -> np.ndarray:
        """Photon-rate samples converted to W/(m^2 nm [sr])."""
        lam_m = self.grid.wavelengths_nm * 1e-9
        return self.values * cie_data.HC / lam_m

    def to_json(self) -> str:
        return json.dumps({
            "start_nm": self.grid.start_nm,
            "step_nm": self.grid.step_nm,
            "count": self.grid.count,
            "unit": self.unit,
            "values": self.values.tolist(),
        })

    @staticmethod
    def from_json(text: str) -> "Spectrum":
        d = json.loads(text)
        unknown = sorted(set(d) - {"start_nm", "step_nm", "count", "unit", "values"})
        if unknown:
            raise ValueError(f"unknown spectrum keys {unknown}")
        grid = WavelengthGrid(d["start_nm"], d["step_nm"], d["count"])
        return Spectrum(grid, np.asarray(d["values"], dtype=np.float64), d["unit"])


def resample(spectrum: Spectrum, target: WavelengthGrid) -> Spectrum:
    """Linear interpolation onto `target`; zero outside the source support."""
    src = spectrum.grid
    if target.stop_nm < src.start_nm or target.start_nm > src.stop_nm:
        raise ValueError("disjoint grids")
    out = np.interp(
        target.wavelengths_nm, src.wavelengths_nm, spectrum.values,
        left=0.0, right=0.0,
    )
    return Spectrum(target, out, spectrum.unit)


def photopic_curve(grid: WavelengthGrid) -> Spectrum:
    """CIE 1924 V(λ) resampled onto `grid` (zero outside 380-780 nm)."""
    lam = grid.wavelengths_nm
    src = cie_data.VLAMBDA_1NM_START + np.arange(cie_data.VLAMBDA_1NM.size)
    v = np.interp(lam, src, cie_data.VLAMBDA_1NM, left=0.0, right=0.0)
    return Spectrum(grid, v, DIMENSIONLESS)


def luminance_weights(grid: WavelengthGrid) -> np.ndarray:
    """Per-band weights mapping a photon-rate spectrum to cd/m² (or lux for
    irradiance): 683 · V(λ) · (hc/λ) · Δλ applied to photon rates."""
    v = photopic_curve(grid).values
    lam_m = grid.wavelengths_nm * 1e-9
    return cie_data.LUMENS_PER_WATT_555 * v * (cie_data.HC / lam_m) * grid.step_nm


_STRIP_ROWS = 8192  # spectra per band-loop strip: 2 MiB of float64 at 31 bands


def project_bands(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Weighted band sums of spectra: (K, Nλ) values and (C, Nλ) weights
    give (K, C) float64 sums Σλ values·weights. Each starts at zero and adds
    its float64 products band after band in wavelength order, so its bits
    depend on neither K, the row, the BLAS build nor the CPU. A palette's
    many short sums loop over the bands a strip of rows at a time. Fewer
    sums than bands take numpy's running sum, in the same order; + 0.0 turns
    the −0.0 that a run of −0.0 terms ends on into a zero start's +0.0."""
    w = np.asarray(weights, dtype=np.float64)
    (k, n), c = values.shape, w.shape[0]
    if k * c < n:
        return np.add.accumulate(values[:, None, :] * w, axis=2)[:, :, -1] + 0.0
    out = np.empty((k, c))
    for r0 in range(0, k, _STRIP_ROWS):
        bands = np.ascontiguousarray(values[r0:r0 + _STRIP_ROWS].T, dtype=np.float64)
        acc = np.zeros((c, bands.shape[1]))
        prod = np.empty_like(acc)
        for band, wb in zip(bands, w.T[:, :, None]):
            np.multiply(wb, band, out=prod)
            acc += prod
        out[r0:r0 + _STRIP_ROWS] = acc.T
    return out


def luminance_cd_m2(radiance: Spectrum) -> float:
    if radiance.unit != RADIANCE:
        raise ValueError(f"expected radiance spectrum, got unit {radiance.unit!r}")
    weights = luminance_weights(radiance.grid)[None, :]
    return float(project_bands(radiance.values[None, :], weights)[0, 0])


def illuminance_lux(irradiance: Spectrum) -> float:
    if irradiance.unit != IRRADIANCE:
        raise ValueError(f"expected irradiance spectrum, got unit {irradiance.unit!r}")
    weights = luminance_weights(irradiance.grid)[None, :]
    return float(project_bands(irradiance.values[None, :], weights)[0, 0])


def d65_spectrum(grid: WavelengthGrid = DEFAULT_GRID, unit: str = IRRADIANCE) -> Spectrum:
    """Relative D65 as a photon-rate spectrum on `grid` (unnormalized)."""
    src = WavelengthGrid(cie_data.CMF_START, cie_data.CMF_STEP, cie_data.D65_RELATIVE.size)
    rel = np.interp(
        grid.wavelengths_nm, src.wavelengths_nm, cie_data.D65_RELATIVE,
        left=0.0, right=0.0,
    )
    return Spectrum.from_energy(rel, grid, unit)
