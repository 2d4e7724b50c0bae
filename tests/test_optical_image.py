"""The projection-first optical image: equivalence with the spectral chain
(radiance -> irradiance -> PSF per band -> QE integration per pixel), an
analytic flat-field oracle, and the metering/bracket sharing in acquire."""

import warnings

import numpy as np
import pytest
from scipy import ndimage

from camsim.exposure import ExposurePlan, acquire, hdr_combine
from camsim.optics import FWHM_TO_SIGMA, LensSpec, optical_image
from camsim.scene import Scene, SceneMeta
from camsim.sensor import (MONO, RCCC, RGGB, PixelSpec, SensorSpec, derive_geometry,
                           expected_rate)
from camsim.spectral import DIMENSIONLESS, Spectrum, WavelengthGrid, resample
from frames import brackets

GRID = WavelengthGrid(400.0, 30.0, 11)
CFAS = {"RGGB": RGGB, "MONO": MONO, "RCCC": RCCC}


def make_scene(radiance, pitch_um, grid=GRID):
    h, w = radiance.shape[:2]
    return Scene.from_radiance(radiance.astype(np.float32), grid, pitch_um,
                               np.full((h, w), 10.0, np.float32), np.zeros((h, w), np.uint16),
                               {}, SceneMeta())


def spectral_reference(sc, lens, sensor, exposure_s):
    """Expected electrons per pixel the long way: the whole spectral cube
    through the camera equation, cos⁴ and the PSF band by band, then each
    pixel's footprint averaged and integrated against its channel's QE."""
    lam = sc.grid.wavelengths_nm
    t = (resample(lens.transmission, sc.grid).values
         if isinstance(lens.transmission, Spectrum) else np.full(lam.size, lens.transmission))
    cube = sc.radiance.astype(np.float64) * (np.pi * t / (1.0 + 4.0 * lens.f_number ** 2))
    h, w = cube.shape[:2]
    if lens.cos4_falloff:
        y = (np.arange(h) - (h - 1) / 2.0) * sc.grid_pitch_um * 1e-3
        x = (np.arange(w) - (w - 1) / 2.0) * sc.grid_pitch_um * 1e-3
        tan2 = (x[None, :] ** 2 + y[:, None] ** 2) / lens.focal_length_mm ** 2
        cube *= (1.0 / (1.0 + tan2) ** 2)[:, :, None]
    if 0 < lens.psf_fwhm_um and sc.grid_pitch_um <= lens.psf_fwhm_um / 2:
        sigma = lens.psf_fwhm_um / FWHM_TO_SIGMA / sc.grid_pitch_um
        for k in range(cube.shape[2]):
            cube[:, :, k] = ndimage.gaussian_filter(cube[:, :, k], sigma, mode="reflect",
                                                    truncate=6.0)
    f = int(round(sensor.pixel.size_um / sc.grid_pitch_um))
    rows, cols = derive_geometry(sensor.pixel.size_um, sensor)
    rows = min(rows, h // f // 2 * 2)
    cols = min(cols, w // f // 2 * 2)
    y0, x0 = (h - rows * f) // 2, (w - cols * f) // 2  # centred on the optical axis
    pattern = sensor.cfa.pattern
    area = (sensor.pixel.size_um * 1e-6) ** 2
    out = np.empty((rows, cols))
    for r in range(rows):
        for c in range(cols):
            tag = pattern[r % len(pattern)][c % len(pattern[0])]
            qe = resample(sensor.qe[tag], sc.grid).values
            spectrum = cube[y0 + r * f:y0 + (r + 1) * f,
                            x0 + c * f:x0 + (c + 1) * f].mean(axis=(0, 1))
            out[r, c] = float(spectrum @ qe) * sc.grid.step_nm
    return out * area * sensor.pixel.fill_factor * exposure_s


def test_acquire_matches_spectral_reference():
    rng = np.random.default_rng(2024)
    pixel_um = 3.0
    for trial in range(24):
        pitch = float(rng.choice([3.0, 1.5, 0.75]))  # every pitch divides the pixel
        h, w = (int(v) for v in rng.integers(24, 90, size=2))
        radiance = rng.uniform(1e14, 1e16, size=(h, w, GRID.count))
        sc = make_scene(radiance, pitch)
        transmission = (Spectrum(GRID, rng.uniform(0.5, 1.0, GRID.count), DIMENSIONLESS)
                        if trial % 3 == 0 else float(rng.uniform(0.5, 1.0)))
        lens = LensSpec(f_number=float(rng.uniform(1.4, 8.0)), transmission=transmission,
                        cos4_falloff=bool(trial % 2),
                        psf_fwhm_um=float(rng.choice([0.0, 1.5, 3.0])))
        cfa = list(CFAS)[trial % 3]
        sensor = SensorSpec(PixelSpec(size_um=pixel_um,
                                      fill_factor=float(rng.uniform(0.3, 1.0))),
                            dye_width_mm=0.048 + 0.003 * int(rng.integers(0, 40)),
                            dye_height_mm=0.048 + 0.003 * int(rng.integers(0, 40)),
                            cfa=CFAS[cfa])
        t = 2e-3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # coarse grids skip the PSF with a warning
            image = optical_image(sc, lens, sensor)
        acq = acquire(image, sensor, ExposurePlan("fixed", t_s=t), seed=trial)
        rate = expected_rate(image, sensor)
        ref = spectral_reference(sc, lens, sensor, t)
        assert rate.shape == acq.source.dn.shape == ref.shape, (trial, cfa)
        np.testing.assert_allclose(rate * t, ref, rtol=1e-12, atol=0.0,
                                   err_msg=f"trial {trial}: {cfa}, pitch {pitch}, {lens}")


@pytest.mark.parametrize("cfa", sorted(CFAS))
@pytest.mark.parametrize("psf_fwhm_um, pitch_um", [(0.0, 0.75), (1.5, 0.75), (0.0, 3.0)],
                         ids=["0.0", "1.5", "0.0-pitch3"])  # pitch 3: one grid cell a pixel
def test_flat_field_analytic_oracle(cfa, psf_fwhm_um, pitch_um):
    """A uniform, spectrally flat radiance L gives
    π·L·T/(1+4N²)·ΣQE·Δλ·A_pix·ff·t electrons in every pixel of a channel."""
    big_l = float(np.float32(3e15))  # scenes store radiance as float32
    big_t, n, ff, t = 0.8, 2.8, 0.6, 4e-3
    sc = make_scene(np.full((96, 96, GRID.count), big_l), pitch_um)
    lens = LensSpec(f_number=n, transmission=big_t, psf_fwhm_um=psf_fwhm_um)
    sensor = SensorSpec(PixelSpec(size_um=3.0, fill_factor=ff), dye_width_mm=0.072,
                        dye_height_mm=0.072, cfa=CFAS[cfa])
    e = expected_rate(optical_image(sc, lens, sensor), sensor) * t
    assert e.shape == (24, 24)
    pattern = sensor.cfa.pattern
    for dy, row in enumerate(pattern):
        for dx, tag in enumerate(row):
            qe_sum = float(resample(sensor.qe[tag], GRID).values.sum()) * GRID.step_nm
            expect = (np.pi * big_l * big_t / (1 + 4 * n ** 2) * qe_sum
                      * (3e-6) ** 2 * ff * t)
            np.testing.assert_allclose(e[dy::len(pattern), dx::len(row)], expect,
                                       rtol=1e-12, atol=0.0)


def test_metering_and_brackets_share_one_rate():
    rng = np.random.default_rng(5)
    sc = make_scene(rng.uniform(1e14, 1e17, size=(64, 64, GRID.count)), 3.0)
    lens = LensSpec(psf_fwhm_um=0.0)
    sensor = SensorSpec(dye_width_mm=0.192, dye_height_mm=0.192)
    image = optical_image(sc, lens, sensor)
    cw = acquire(image, sensor, ExposurePlan("center_weighted"), seed=3)
    fixed = acquire(image, sensor, ExposurePlan("fixed", t_s=cw.duration_s), seed=3)
    assert cw.source.dn.tobytes() == fixed.source.dn.tobytes()
    assert cw.source.saturated.tobytes() == fixed.source.saturated.tobytes()

    plan = ExposurePlan("bracketed")
    br = acquire(image, sensor, plan, seed=3)
    assert br.duration_s == plan.durations_s[0]
    hdr = hdr_combine(brackets(expected_rate(image, sensor), sensor, plan.durations_s, seed=3))
    assert br.source.durations_s == hdr.durations_s
    for field in ("rate_e_per_s", "valid", "chosen"):
        assert np.array_equal(getattr(br.source, field), getattr(hdr, field)), field


def test_expected_rate_rejects_image_of_another_cfa():
    sc = make_scene(np.ones((32, 32, GRID.count)), 3.0)
    lens = LensSpec(psf_fwhm_um=0.0)
    mono = SensorSpec(dye_width_mm=0.096, dye_height_mm=0.096, cfa=MONO)
    rggb = SensorSpec(dye_width_mm=0.096, dye_height_mm=0.096, cfa=RGGB)
    with pytest.raises(ValueError, match="channels"):
        expected_rate(optical_image(sc, lens, mono), rggb)
