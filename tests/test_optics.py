from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from camsim import optics
from camsim.config import from_config
from camsim.optics import (FWHM_TO_SIGMA, LensSpec, mean_illuminance_lux, project,
                           project_palette, psf_blur, psf_sigma)
from camsim.scene import Region, SceneSpec, TargetSpec, gather, synthesize
from camsim.spectral import WavelengthGrid, luminance_weights
from frames import dense_blur

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
    weights = np.eye(sc.grid.count)
    blurred = psf_blur(project_palette(sc, lens, weights), sc.labels,
                       psf_sigma(sc.grid_pitch_um, lens))
    assert blurred.sum() == pytest.approx(project(sc, lens, weights).sum(), rel=1e-9)


def test_psf_impulse_fwhm():
    """Gaussian blur of an impulse: measured FWHM within 5% of the spec'd
    1.5 µm at a 0.375 µm grid pitch."""
    pitch = 0.375
    labels = np.zeros((129, 129), dtype=np.uint32)
    labels[64, 64] = 1  # the one lit cell
    lens = LensSpec(psf_fwhm_um=1.5)
    out = psf_blur(np.array([[0.0], [1.0]]), labels, psf_sigma(pitch, lens))[:, :, 0]
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
        assert np.array_equal(dense_blur(planes, psf_sigma(pitch, lens)), expected)


def frozen_psf_blur(planes, sigma):
    """The dense blur as it was before it read a palette: every block's
    slab of rows a view of (or reflected gather from) the whole planes."""
    def reflect(idx, n):
        m = np.mod(idx, 2 * n)
        return np.where(m < n, m, 2 * n - 1 - m)

    r = int(6.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = (phi / phi.sum())[r:]
    h, width, c = planes.shape
    out = np.empty((h, width, c))
    block = max(1, (1 << 19) // (8 * (width + 2 * r) * c))
    buf = np.empty((block, width + 2 * r, c))
    pair = np.empty((block, width, c))
    left = r + reflect(np.arange(-r, 0), width)
    right = r + reflect(np.arange(width, width + r), width)
    for i0 in range(0, h, block):
        b = min(block, h - i0)
        if r <= i0 and i0 + b + r <= h:
            slab = planes[i0 - r:i0 + b + r]
        else:
            slab = planes[reflect(np.arange(i0 - r, i0 + b + r), h)]
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


_RECT = st.tuples(st.integers(0, 40), st.integers(0, 60), st.integers(1, 40), st.integers(1, 60),
                  st.integers(0, 4))  # (x0, y0, width, height, label)


@settings(max_examples=150, deadline=None)
@given(h=st.integers(1, 60), w=st.integers(1, 40), channels=st.integers(1, 3),
       k=st.integers(1, 5), rects=st.lists(_RECT, max_size=4),
       pitch=st.sampled_from([0.75, 0.5, 0.3, 0.1]), block_rows=st.sampled_from([None, 1, 2, 3]),
       cos4=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
# r = 5 and 10-row blocks: a label on rows 6..33 has its edges one row
# inside the slabs of blocks 10 and 20, r rows above and below a block
# boundary, so a slab one row short would call either block uniform; a
# label on rows 5..34 fills both slabs exactly
@example(h=48, w=6, channels=3, k=2, rects=[(0, 6, 6, 28, 1)], pitch=0.75, block_rows=10,
         cos4=False, seed=0)
@example(h=48, w=6, channels=3, k=2, rects=[(0, 5, 6, 30, 1)], pitch=0.75, block_rows=10,
         cos4=False, seed=0)
# a raster shorter and narrower than r = 38 reflects twice on each side
@example(h=3, w=2, channels=2, k=3, rects=[(1, 1, 2, 2, 2)], pitch=0.1, block_rows=None,
         cos4=False, seed=1)
# one palette row: every block is uniform
@example(h=40, w=9, channels=3, k=1, rects=[], pitch=0.75, block_rows=2, cos4=False, seed=2)
# the falloff makes no slab uniform
@example(h=40, w=9, channels=3, k=1, rects=[], pitch=0.75, block_rows=3, cos4=True, seed=3)
def test_palette_blur_equals_the_frozen_dense_blur(h, w, channels, k, rects, pitch, block_rows,
                                                   cos4, seed):
    """Blurring rates over labels, with one-label row blocks filled from the
    blurred palette, gives the bytes of the dense blur of the gathered
    planes (times the cos⁴ falloff), for rectangles of labels, any split of
    the rows into blocks and rasters shorter than the kernel radius."""
    rng = np.random.default_rng(seed)
    labels = np.zeros((h, w), dtype=np.uint32)
    for x0, y0, width, height, label in rects:
        labels[y0:y0 + height, x0:x0 + width] = label % k
    rates = rng.random((k, channels)) * 10.0 ** rng.uniform(-3, 12)
    sigma = psf_sigma(pitch, LensSpec(psf_fwhm_um=1.5))
    planes = gather(rates, labels)
    falloff = None
    if cos4:
        sc = synthesize(SceneSpec(width=w, height=h, grid_pitch_um=pitch, grid=GRID))
        falloff = optics._cos4(sc, LensSpec(focal_length_mm=0.05, cos4_falloff=True))
        planes *= falloff[:, :, None]
    r = int(6.0 * sigma + 0.5)
    block_bytes = block_rows and block_rows * 8 * (w + 2 * r) * channels
    with mock.patch.object(optics, "_BLOCK_BYTES", block_bytes or optics._BLOCK_BYTES):
        got = psf_blur(rates, labels, sigma, falloff)
    assert got.tobytes() == frozen_psf_blur(planes, sigma).tobytes()


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
