import numpy as np
import pytest

from camsim.config import from_config
from camsim.optics import FWHM_TO_SIGMA, LensSpec, project, psf_blur
from camsim.scene import SceneSpec, synthesize
from camsim.spectral import WavelengthGrid

GRID = WavelengthGrid(400.0, 30.0, 11)


def test_camera_equation_oracle():
    """E = pi * T * L / (1 + 4 N^2), checked against a hand-computed value.

    T = 0.9, N = 4: factor = pi * 0.9 / 65 = 0.0434990...
    """
    sc = synthesize(SceneSpec(width=32, height=32, grid=GRID, seed=0))
    lens = LensSpec(transmission=0.9, f_number=4.0, cos4_falloff=False,
                    psf_fwhm_um=0.0)
    cube = project(sc, lens, np.eye(sc.grid.count))
    factor = np.pi * 0.9 / (1.0 + 4.0 * 16.0)
    assert factor == pytest.approx(0.04349898, rel=1e-6)
    assert np.allclose(cube, sc.radiance.astype(np.float64) * factor,
                       rtol=1e-6)


def test_cos4_falloff_darkens_corners():
    sc = synthesize(SceneSpec(width=64, height=64, grid=GRID, seed=0))
    lens = LensSpec(cos4_falloff=True, psf_fwhm_um=0.0)
    cube = project(sc, lens, np.eye(sc.grid.count))
    center = cube[32, 32].sum()
    corner = cube[0, 0].sum()
    assert corner < center


def test_psf_flux_conservation():
    sc = synthesize(SceneSpec(width=64, height=64, grid_pitch_um=0.375,
                              grid=GRID, seed=0,
                              speculars=()))
    lens = LensSpec(psf_fwhm_um=1.5)
    cube = project(sc, lens, np.eye(sc.grid.count))
    blurred = psf_blur(cube, sc.grid_pitch_um, lens)
    assert blurred.sum() == pytest.approx(cube.sum(), rel=1e-9)


def test_psf_impulse_fwhm():
    """Gaussian blur of an impulse: measured FWHM within 5% of the spec'd
    1.5 µm at a 0.375 µm grid pitch."""
    pitch = 0.375
    values = np.zeros((129, 129, 1))
    values[64, 64, 0] = 1.0
    lens = LensSpec(psf_fwhm_um=1.5)
    out = psf_blur(values, pitch, lens)[:, :, 0]
    profile = out[64, :]
    half = profile.max() / 2.0
    above = np.nonzero(profile >= half)[0]
    # sub-pixel edges by linear interpolation
    lo, hi = above[0], above[-1]
    f_lo = lo - (profile[lo] - half) / (profile[lo] - profile[lo - 1])
    f_hi = hi + (profile[hi] - half) / (profile[hi] - profile[hi + 1])
    fwhm_um = (f_hi - f_lo) * pitch
    assert abs(fwhm_um - 1.5) / 1.5 < 0.05
    assert out.sum() == pytest.approx(1.0, abs=1e-6)


def test_psf_skipped_when_grid_too_coarse():
    values = np.ones((16, 16, 1))
    lens = LensSpec(psf_fwhm_um=1.5)
    with pytest.warns(UserWarning, match="too coarse"):
        out = psf_blur(values, 3.0, lens)
    assert out is values


def test_fwhm_sigma_constant():
    assert FWHM_TO_SIGMA == pytest.approx(2.0 * np.sqrt(2.0 * np.log(2.0)))


def test_lens_from_dict_round_trip():
    lens = from_config(LensSpec, {"focal_length_mm": 8.0, "f_number": 2.0,
                                  "transmission": 0.85})
    assert lens.focal_length_mm == 8.0
    assert lens.f_number == 2.0
    assert lens.transmission == 0.85
