from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from camsim import optics
from camsim.config import from_config
from camsim.optics import (FWHM_TO_SIGMA, LensSpec, mean_illuminance_lux, project, psf_blur,
                           psf_sigma)
from camsim.scene import Region, SceneSpec, TargetSpec, synthesize
from camsim.spectral import WavelengthGrid, luminance_weights

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


@pytest.mark.parametrize("lens", [
    LensSpec(), LensSpec(f_number=2.0, transmission=0.8, cos4_falloff=True),
], ids=["flat", "cos4"])
@pytest.mark.parametrize("shape", [(1, 7), (48, 1), (97, 131), (300, 260)])
def test_mean_illuminance_is_the_dense_mean(lens, shape):
    """The palette's illuminance weighted by the area (and falloff) of each
    label equals the mean of the dense luminance plane."""
    h, w = shape
    spec = SceneSpec(width=w, height=h, grid=GRID, seed=4,
                     targets=(TargetSpec("car", 15.0, (0.4, 0.35), 0.2),
                              TargetSpec("car", 30.0, (0.4, 0.35), 0.7)),
                     shadows=(Region((0, 0, (w + 1) // 2, (h + 1) // 2), 0.3),))
    sc = synthesize(spec)
    dense = project(sc, lens, luminance_weights(sc.grid)[None, :]).mean()
    assert mean_illuminance_lux(sc, lens) == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_psf_flux_conservation():
    sc = synthesize(SceneSpec(width=64, height=64, grid_pitch_um=0.375,
                              grid=GRID, seed=0,
                              speculars=()))
    lens = LensSpec(psf_fwhm_um=1.5)
    cube = project(sc, lens, np.eye(sc.grid.count))
    blurred = psf_blur(cube, psf_sigma(sc.grid_pitch_um, lens))
    assert blurred.sum() == pytest.approx(cube.sum(), rel=1e-9)


def test_psf_impulse_fwhm():
    """Gaussian blur of an impulse: measured FWHM within 5% of the spec'd
    1.5 µm at a 0.375 µm grid pitch."""
    pitch = 0.375
    values = np.zeros((129, 129, 1))
    values[64, 64, 0] = 1.0
    lens = LensSpec(psf_fwhm_um=1.5)
    out = psf_blur(values, psf_sigma(pitch, lens))[:, :, 0]
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


@settings(max_examples=120, deadline=None)
@given(h=st.integers(1, 48), w=st.integers(1, 48), channels=st.integers(1, 11),
       pitch=st.floats(0.1, 0.75), block_bytes=st.sampled_from([1, 4096, optics._BLOCK_BYTES]),
       seed=st.integers(0, 2 ** 32 - 1))
# σ = 0.85 px, the finest blur the skip rule lets through, on a 1x1 grid
@example(h=1, w=1, channels=3, pitch=0.75, block_bytes=optics._BLOCK_BYTES, seed=0)
# rows in many blocks, the inner ones read as views of the input
@example(h=64, w=1500, channels=3, pitch=0.75, block_bytes=optics._BLOCK_BYTES, seed=1)
def test_psf_blur_equals_gaussian_filter(h, w, channels, pitch, block_bytes, seed):
    """The numpy blur is bit-identical to ndimage's reflect-mode Gaussian,
    for sides shorter than the kernel radius (up to 39 at σ = 6.4 px) and
    for any split of the rows into blocks."""
    lens = LensSpec(psf_fwhm_um=1.5)
    rng = np.random.default_rng(seed)
    planes = rng.random((h, w, channels)) * 10.0 ** rng.uniform(-3, 12)
    sigma = lens.psf_fwhm_um / FWHM_TO_SIGMA / pitch
    expected = ndimage.gaussian_filter(planes, (sigma, sigma, 0.0), mode="reflect",
                                       truncate=6.0)
    with mock.patch.object(optics, "_BLOCK_BYTES", block_bytes):
        assert np.array_equal(psf_blur(planes, psf_sigma(pitch, lens)), expected)


def test_psf_skipped_when_grid_too_coarse():
    lens = LensSpec(psf_fwhm_um=1.5)
    with pytest.warns(UserWarning, match="too coarse"):
        assert psf_sigma(3.0, lens) is None


def test_fwhm_sigma_constant():
    assert FWHM_TO_SIGMA == pytest.approx(2.0 * np.sqrt(2.0 * np.log(2.0)))


def test_lens_from_dict_round_trip():
    lens = from_config(LensSpec, {"focal_length_mm": 8.0, "f_number": 2.0,
                                  "transmission": 0.85})
    assert lens.focal_length_mm == 8.0
    assert lens.f_number == 2.0
    assert lens.transmission == 0.85
