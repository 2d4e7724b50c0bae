"""CMOS sensor model: geometry from dye size, pixel sampling of the optical
image over the CFA, shot/read noise, and the ADC."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .optics import OpticalImage
from .optics import radiance_to_irradiance  # noqa: F401  (perfbench/selftest.py wraps this binding)
from .spectral import DIMENSIONLESS, DEFAULT_GRID, Spectrum, WavelengthGrid

REFERENCE_PIXEL_UM = 3.0  # well capacity is quoted at this pitch
_BAND_PIXELS = 1 << 16  # sensor pixels in one band of expected_rate's rows


@dataclass(frozen=True)
class PixelSpec:
    size_um: float = 3.0
    well_capacity_e: float = 13500.0
    read_noise_e: float = 24.0
    dark_current_e_per_s: float = 50.0
    conversion_gain_uV_per_e: float | None = None  # None: well maps to full swing
    voltage_swing_V: float = 1.0
    fill_factor: float = 1.0

    def __post_init__(self):
        if not 1.0 <= self.size_um <= 10.0:
            raise ValueError(f"pixel size must be in [1, 10] µm, got {self.size_um}")
        if not self.well_capacity_e > self.read_noise_e > 0:
            raise ValueError("need well_capacity_e > read_noise_e > 0")
        if not 0 < self.fill_factor <= 1:
            raise ValueError("fill factor must be in (0, 1]")


@dataclass(frozen=True)
class CFA:
    pattern: tuple  # rows of channel tags, e.g. (("R","G"),("G","B"))

    @property
    def channels(self) -> tuple:
        seen = []
        for row in self.pattern:
            for tag in row:
                if tag not in seen:
                    seen.append(tag)
        return tuple(seen)


RGGB = CFA((("R", "G"), ("G", "B")))
MONO = CFA((("W",),))
RCCC = CFA((("R", "C"), ("C", "C")))
_NAMED_CFA = {"RGGB": RGGB, "MONO": MONO, "RCCC": RCCC}


def _cfa_named(name: str) -> CFA:
    """The CFA a config names (case-insensitive)."""
    cfa = _NAMED_CFA.get(str(name).upper())
    if cfa is None:
        raise ValueError(f"unknown CFA {name!r}; expected one of {sorted(_NAMED_CFA)}")
    return cfa


def _gaussian_qe(center_nm, sigma_nm, peak, grid: WavelengthGrid) -> Spectrum:
    lam = grid.wavelengths_nm
    v = peak * np.exp(-0.5 * ((lam - center_nm) / sigma_nm) ** 2)
    return Spectrum(grid, v, DIMENSIONLESS)


def default_qe(grid: WavelengthGrid = DEFAULT_GRID) -> dict:
    """Built-in channel QE curves: Gaussian R/G/B bands; the mono and RCCC
    clear channels are the (clipped) sum of the color bands."""
    r = _gaussian_qe(600.0, 40.0, 0.55, grid)
    g = _gaussian_qe(540.0, 45.0, 0.60, grid)
    b = _gaussian_qe(465.0, 38.0, 0.52, grid)
    broadband = Spectrum(grid, np.clip(r.values + g.values + b.values, 0.0, 1.0))
    return {"R": r, "G": g, "B": b, "W": broadband, "C": broadband}


@dataclass(frozen=True)
class SensorSpec:
    pixel: PixelSpec = field(default_factory=PixelSpec)
    dye_width_mm: float = 3.84
    dye_height_mm: float = 2.16
    cfa: CFA = field(default=RGGB, metadata={"parse": _cfa_named})
    # channel tag -> Spectrum; default built-in curves
    qe: dict | None = field(default=None, metadata={"key": None})
    adc_bits: int = 10
    analog_gain: float = 1.0
    scale_well_with_area: bool = True  # well ∝ pixel area from 3 µm baseline

    def __post_init__(self):
        if self.qe is None:
            object.__setattr__(self, "qe", default_qe())
        for row in self.cfa.pattern:
            for tag in row:
                if tag not in self.qe:
                    raise ValueError(f"CFA channel {tag!r} has no QE curve")
        rows, cols = derive_geometry(self.pixel.size_um, self)
        if rows < 16 or cols < 16:
            raise ValueError("derived geometry below 16x16 pixels")
        dr = dynamic_range_db(self)
        if not 40.0 <= dr <= 80.0:
            raise ValueError(f"dynamic range {dr:.1f} dB outside [40, 80]")

    def effective_well_e(self) -> float:
        if self.scale_well_with_area:
            return self.pixel.well_capacity_e * (self.pixel.size_um / REFERENCE_PIXEL_UM) ** 2
        return self.pixel.well_capacity_e

    def conversion_gain_uV(self) -> float:
        if self.pixel.conversion_gain_uV_per_e is not None:
            return self.pixel.conversion_gain_uV_per_e
        return self.pixel.voltage_swing_V / self.effective_well_e() * 1e6

    def max_code(self) -> int:
        return (1 << self.adc_bits) - 1

    def with_pixel_size(self, size_um: float) -> "SensorSpec":
        return replace(self, pixel=replace(self.pixel, size_um=size_um))


@dataclass(frozen=True)
class RawFrame:
    dn: np.ndarray  # uint16 (rows, cols)
    saturated: np.ndarray  # bool (rows, cols)
    exposure_s: float
    sensor: SensorSpec


def derive_geometry(pixel_size_um: float, sensor: SensorSpec) -> tuple:
    """(rows, cols) for a pixel pitch on the fixed dye, floored to even."""
    if not 1.0 <= pixel_size_um <= 10.0:
        raise ValueError("pixel size must be in [1, 10] µm")
    cols = int(sensor.dye_width_mm * 1000.0 / pixel_size_um)
    rows = int(sensor.dye_height_mm * 1000.0 / pixel_size_um)
    return rows - rows % 2, cols - cols % 2


def channel_index_map(sensor: SensorSpec, rows: int, cols: int) -> np.ndarray:
    channels = sensor.cfa.channels
    pat = np.array([[channels.index(tag) for tag in row] for row in sensor.cfa.pattern],
                   dtype=np.int64)
    ph, pw = pat.shape
    reps = (rows + ph - 1) // ph, (cols + pw - 1) // pw
    return np.tile(pat, reps)[:rows, :cols]


@dataclass(frozen=True)
class SensorGeometry:
    """Where the sensor's pixels sit on the optical image's grid: pixel
    (r, c) averages the factor×factor grid cells from (y0 + r·factor,
    x0 + c·factor). The annotator votes over the same cells."""
    factor: int
    rows: int
    cols: int
    y0: int
    x0: int


def sensor_geometry(image_shape: tuple, pitch_um: float, sensor: SensorSpec) -> SensorGeometry:
    """The sensor's pixel grid on an optical image (or scene) of this shape
    and grid pitch: the dye-derived geometry, cut to the image's extent when
    the image covers less than the dye, centred on the optical axis."""
    p = sensor.pixel.size_um
    ratio = p / pitch_um
    f = int(round(ratio))
    if abs(ratio - f) > 1e-9 or f < 1:
        raise ValueError(
            f"grid pitch {pitch_um} µm does not evenly divide pixel pitch {p} µm")
    rows, cols = derive_geometry(p, sensor)
    h, w = image_shape[:2]
    rows = min(rows, (h // f) - (h // f) % 2)
    cols = min(cols, (w // f) - (w // f) % 2)
    if rows < 2 or cols < 2:
        raise ValueError("optical image too small for this pixel pitch")
    return SensorGeometry(f, rows, cols, (h - rows * f) // 2, (w - cols * f) // 2)


def expected_rate(image: OpticalImage, sensor: SensorSpec) -> np.ndarray:
    """Expected photoelectrons per second per sensor pixel (noise-free,
    unclamped): the optical image averaged over each pixel's footprint in
    the pixel's CFA channel, times pixel area and fill factor, on the grid
    `sensor_geometry` places.

    Each CFA phase reads only its own channel, a band of pixel rows at a
    time, through `image.sampler`: views of a dense image's plane, or takes
    from the channel's palette column of a palette image. The f×f cells
    of a pixel are summed one row of cells after another, each row as
    `_cell_row_sum` sums it. That is the order in which numpy's
    `mean(axis=(1, 3))` sums each pixel's block when each phase has at
    least two pixel columns, so a palette and a dense image of the same
    rates give the same bytes."""
    g = sensor_geometry(image.shape, image.pitch_um, sensor)
    if tuple(image.channels) != tuple(sensor.cfa.channels):
        raise ValueError(f"optical image channels {image.channels} do not match "
                         f"the sensor CFA channels {sensor.cfa.channels}")
    f = g.factor
    period = channel_index_map(sensor, len(sensor.cfa.pattern), len(sensor.cfa.pattern[0]))
    ph, pw = period.shape
    area = (sensor.pixel.size_um * 1e-6) ** 2 * sensor.pixel.fill_factor
    out = np.empty((g.rows, g.cols))
    band = max(ph, _BAND_PIXELS // g.cols // ph * ph)  # pixel rows per band
    for (dy, dx), c in np.ndenumerate(period):
        sample = image.sampler(c)
        m = len(range(dx, g.cols, pw))
        for r0 in range(0, g.rows, band):
            r1 = min(r0 + band, g.rows)
            n = len(range(r0 + dy, r1, ph))
            acc = None
            for i in range(f):
                y = g.y0 + (r0 + dy) * f + i
                row = _cell_row_sum(sample, slice(y, y + (n - 1) * ph * f + 1, ph * f),
                                    g.x0 + dx * f, m, pw * f, f)
                acc = row if acc is None else np.add(acc, row, out=acc)
            if f > 1:  # x / 1 is x: no pass needed
                acc /= f * f
            np.multiply(acc, area, out=out[r0 + dy:r1:ph, dx::pw])
    return out


def _cell_row_sum(sample, rows: slice, x: int, m: int, step: int, f: int) -> np.ndarray:
    """0 + Σ of the f cells of grid rows `rows` from column x + k·step on,
    for k < m (one row of cells inside m pixels), as numpy's add.reduce sums
    f values: in order below 8 (one strided cell plane after another),
    pairwise from 8 on (`np.add.reduce` itself, on an (n, m, f) array)."""
    if f >= 8:
        cells = sample(lambda grid: grid[rows, x:x + (m - 1) * step + f]
                       .reshape(-1, (m - 1) * step // f + 1, f)[:, ::step // f])
        return np.add.reduce(cells, axis=2)
    acc = np.add(sample(lambda grid: grid[rows, x:x + (m - 1) * step + 1:step]), 0.0)
    for j in range(1, f):
        acc += sample(lambda grid: grid[rows, x + j:x + j + (m - 1) * step + 1:step])
    return acc


def adc(electrons: np.ndarray, sensor: SensorSpec, exposure_s: float = 0.0) -> RawFrame:
    """Quantize electrons to digital numbers; default conversion gain maps
    the well exactly onto the voltage swing. One float64 raster is
    allocated and every step runs in place on it, in the order of the
    expression floor(((e·cg)·1e-6)·gain / swing · max_code) clipped to
    [0, max_code]; `electrons` is not written to."""
    well = sensor.effective_well_e()
    max_code = sensor.max_code()
    v = np.multiply(electrons, sensor.conversion_gain_uV(), dtype=np.float64)
    v *= 1e-6
    v *= sensor.analog_gain
    v /= sensor.pixel.voltage_swing_V
    v *= max_code
    np.floor(v, out=v)
    np.clip(v, 0, max_code, out=v)
    dn = v.astype(np.uint16)
    del v  # the doubles are freed before the masks are built
    saturated = electrons >= well
    saturated |= dn == max_code
    return RawFrame(dn, saturated, exposure_s, sensor)


def dn_to_electrons(frame: RawFrame) -> np.ndarray:
    """Invert the ADC mapping (to the lower edge of each code's electron
    bin): DN / max_code · swing / (cg·1e-6·gain), in place on one float64
    copy of the codes."""
    s = frame.sensor
    e = frame.dn.astype(np.float64)
    e /= s.max_code()
    e *= s.pixel.voltage_swing_V
    e /= s.conversion_gain_uV() * 1e-6 * s.analog_gain
    return e


def dynamic_range_db(sensor: SensorSpec) -> float:
    return 20.0 * np.log10(sensor.effective_well_e() / sensor.pixel.read_noise_e)


def expose(rate: np.ndarray, sensor: SensorSpec, exposure_s: float, seed: int,
           at=None) -> RawFrame:
    """One frame from an expected-rate raster: the expected electrons
    λ = rate·t + dark current·t, built in one array in two elementwise
    steps; Poisson shot noise on λ and Gaussian read noise, clamped to the
    (possibly area-scaled) well, from `kernels.sample_sensor_noise`'s
    counter-based per-pixel streams; then the ADC. With `at`, `rate` holds
    the pixels at those flat raster indices only, and the frame holds
    exactly the values the whole raster's frame has there."""
    lam = np.multiply(rate, exposure_s)
    lam += sensor.pixel.dark_current_e_per_s * exposure_s
    e = kernels.sample_sensor_noise(lam, sensor.pixel.read_noise_e, sensor.effective_well_e(),
                                    seed, at=at)
    del lam  # freed before the ADC's raster is allocated
    return adc(e, sensor, exposure_s)
