"""Pixel sampling straight from the optical image's palette: the sampler
against the block mean it replaced (kept below as the reference), and the
memory that an optical image without a PSF no longer takes."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim.cli import main
from camsim.optics import LensSpec, OpticalImage, optical_image
from camsim.scene import SceneSpec, TargetSpec, synthesize
from camsim.sensor import (MONO, RCCC, RGGB, PixelSpec, SensorSpec, channel_index_map,
                           expected_rate, sensor_geometry)
from camsim.spectral import WavelengthGrid
from frames import dense_rates

CFAS = {"RGGB": RGGB, "MONO": MONO, "RCCC": RCCC}


def reference_rate(image: OpticalImage, sensor: SensorSpec) -> np.ndarray:
    """`expected_rate` as it was before it sampled palettes: each CFA phase's
    f×f blocks of the dense rates averaged by numpy, times the pixel area."""
    g = sensor_geometry(image.shape, image.pitch_um, sensor)
    f = g.factor
    cells = dense_rates(image)[g.y0:g.y0 + g.rows * f, g.x0:g.x0 + g.cols * f]
    blocks = cells.reshape(g.rows, f, g.cols, f, -1)
    period = channel_index_map(sensor, len(sensor.cfa.pattern), len(sensor.cfa.pattern[0]))
    ph, pw = period.shape
    binned = np.empty((g.rows, g.cols))
    for (dy, dx), c in np.ndenumerate(period):
        binned[dy::ph, dx::pw] = blocks[dy::ph, :, dx::pw, :, c].mean(axis=(1, 3))
    return binned * ((sensor.pixel.size_um * 1e-6) ** 2 * sensor.pixel.fill_factor)


@settings(max_examples=200, deadline=None)
@given(f=st.integers(1, 12), cfa=st.sampled_from(sorted(CFAS)),
       rows=st.integers(1, 6), cols=st.integers(1, 6),
       extra=st.tuples(st.integers(0, 5), st.integers(0, 5)),
       k=st.integers(1, 40), exponent=st.integers(-6, 12), dense=st.booleans(),
       fill=st.sampled_from([1.0, 0.6]), seed=st.integers(0, 2**32 - 1))
def test_sampler_equals_the_block_mean(f, cfa, rows, cols, extra, k, exponent, dense, fill,
                                       seed):
    """Byte for byte, over pixel factors 1-12, every CFA, odd and even crop
    offsets, and palette and dense images, whenever each CFA phase has at
    least two pixel columns. With a single column, numpy's
    `mean(axis=(1, 3))` sums each block as one pairwise sum over its f²
    cells, another order (seen at f = 2-20, and nowhere else): both sums of
    the f² non-negative cells then lie within (f² - 1) rounding errors of
    the exact sum, so the check there is 2·f² ulp (5 ulp seen at f = 10)."""
    sensor = SensorSpec(pixel=PixelSpec(size_um=3.0, fill_factor=fill), cfa=CFAS[cfa],
                        dye_width_mm=0.384, dye_height_mm=0.384)
    channels = sensor.cfa.channels
    rng = np.random.default_rng(seed)
    # below 2f extra cells, the geometry keeps 2·rows x 2·cols pixels, offset by extra // 2
    h, w = 2 * rows * f + extra[0] % (2 * f), 2 * cols * f + extra[1] % (2 * f)
    palette = rng.random((k, len(channels))) * 10.0 ** exponent
    labels = rng.integers(0, k, (h, w)).astype(np.uint32)
    image = OpticalImage((h, w), channels, 3.0 / f, palette=palette, labels=labels)
    if dense:
        image = OpticalImage((h, w), channels, 3.0 / f, planes=dense_rates(image))
    got, want = expected_rate(image, sensor), reference_rate(image, sensor)
    assert got.shape == want.shape == (2 * rows, 2 * cols)
    if 2 * cols // len(sensor.cfa.pattern[0]) >= 2:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 2 * f * f * np.spacing(want))


def _full_dye_scene():
    return synthesize(SceneSpec(
        width=2560, height=1440, grid_pitch_um=1.5, grid=WavelengthGrid(400.0, 30.0, 11),
        targets=(TargetSpec("car", 40.0, (0.4, 0.35), reflectance=0.2),)))


def test_no_dense_optical_image_without_a_psf():
    """A 1440x2560 scene's optical image and its sampling on 3 µm pixels,
    without a PSF, peak below a quarter of the 88 MB (H, W, 3) float64 raster
    the optical image used to be."""
    sc = _full_dye_scene()
    lens, sensor = LensSpec(psf_fwhm_um=0.0), SensorSpec()
    dense_bytes = sc.labels.size * 3 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        image = optical_image(sc, lens, sensor)
        rate = expected_rate(image, sensor)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert image.planes is None and image.labels is sc.labels
    assert rate.shape == (720, 1280)
    assert peak < dense_bytes / 4, (peak, dense_bytes)


def test_cli_run_never_builds_the_dense_rates(tmp_path, monkeypatch):
    """A run whose grid is too coarse for the PSF never projects a scene
    onto the dense (H, W, C) planes that only the PSF or falloff needs."""
    from camsim import optics
    from test_cli import run_config

    def refuse(*args, **kwargs):
        raise AssertionError("the dense optical image was built")
    monkeypatch.setattr(optics, "project", refuse)
    with pytest.warns(UserWarning, match="too coarse"):
        assert main(["run", str(run_config(tmp_path))]) == 0
