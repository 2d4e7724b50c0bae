import numpy as np
import pytest

from camsim.isp import (GammaSpec, IspConfig, RGBImage, TAG_LINEAR_SRGB, TAG_SENSOR_LINEAR,
                        TAG_SRGB_ENCODED, apply_gamma, color_correct,
                        demosaic_bilinear, fit_color_matrix, raw_passthrough,
                        reflectance_patches, render, write_ppm)
from camsim.sensor import MONO, RCCC, RawFrame, SensorSpec, adc


def mosaic_frame(dn: np.ndarray, sensor=None) -> RawFrame:
    sensor = sensor or SensorSpec()
    dn = dn.astype(np.uint16)
    return RawFrame(dn, dn == sensor.max_code(), 1e-3, sensor, 0)


def test_demosaic_constant_field_exact():
    frame = mosaic_frame(np.full((8, 8), 600))
    img = demosaic_bilinear(frame)
    assert img.tag == TAG_SENSOR_LINEAR
    # exact at every pixel, borders included (reflect padding keeps parity)
    assert np.allclose(img.values, 600.0 / 1023.0, atol=1e-12)


def test_demosaic_red_flat_field_fixture():
    """Hand-computed 3x3 fixture: R sites at 1023, G/B sites at 0.

    Every red interpolation averages pure-red neighbors, so the red plane is
    exactly 1 and the other planes exactly 0 at all nine pixels.
    """
    dn = np.array([[1023, 0, 1023],
                   [0, 0, 0],
                   [1023, 0, 1023]])
    img = demosaic_bilinear(mosaic_frame(dn))
    assert np.allclose(img.values[:, :, 0], 1.0, atol=1e-12)
    assert np.allclose(img.values[:, :, 1], 0.0, atol=1e-12)
    assert np.allclose(img.values[:, :, 2], 0.0, atol=1e-12)


def test_demosaic_interior_bilinear_values():
    # single hot green pixel at a Gr site (0,1) -> quarter weight at the
    # diagonal R/B neighbors' green estimate
    dn = np.zeros((4, 4))
    dn[1, 1] = 1023  # B site
    img = demosaic_bilinear(mosaic_frame(dn))
    v = 1.0
    assert img.values[1, 1, 2] == pytest.approx(v)
    assert img.values[1, 2, 2] == pytest.approx(v / 2)    # Gb site, horiz avg
    assert img.values[2, 2, 2] == pytest.approx(v / 4)    # R site, diag avg
    assert img.values[1, 1, 1] == pytest.approx(0.0)      # green at the B site


def bilinear_reference(x: np.ndarray) -> np.ndarray:
    """Per-pixel bilinear RGGB interpolation with reflected borders, summed
    in the order demosaic_bilinear uses."""
    h, w = x.shape

    def px(i, j):
        i = -i if i < 0 else 2 * (h - 1) - i if i >= h else i
        j = -j if j < 0 else 2 * (w - 1) - j if j >= w else j
        return x[i, j]

    out = np.empty((h, w, 3))
    for i in range(h):
        for j in range(w):
            n, s, e, wst = px(i - 1, j), px(i + 1, j), px(i, j + 1), px(i, j - 1)
            horiz, vert = (e + wst) / 2.0, (n + s) / 2.0
            edge = (n + s + e + wst) / 4.0
            diag = (px(i - 1, j - 1) + px(i - 1, j + 1) + px(i + 1, j - 1)
                    + px(i + 1, j + 1)) / 4.0
            out[i, j] = {(0, 0): (x[i, j], edge, diag), (0, 1): (horiz, x[i, j], vert),
                         (1, 0): (vert, x[i, j], horiz),
                         (1, 1): (diag, edge, x[i, j])}[i % 2, j % 2]
    return np.clip(out, 0.0, 1.0)


@pytest.mark.parametrize("shape", [(8, 10), (7, 9), (6, 5), (5, 6), (2, 3)])
def test_demosaic_matches_per_pixel_reference(shape):
    dn = np.random.default_rng(shape[0] * 31 + shape[1]).integers(0, 1024, shape)
    frame = mosaic_frame(dn)
    want = bilinear_reference(dn / 1023.0)
    got = demosaic_bilinear(frame).values
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_demosaic_mono_replicates():
    s = SensorSpec(cfa=MONO)
    img = demosaic_bilinear(mosaic_frame(np.full((4, 4), 100), s))
    assert img.values.shape == (4, 4, 3)
    assert np.allclose(img.values[..., 0], img.values[..., 2])


def test_demosaic_rccc_refuses():
    s = SensorSpec(cfa=RCCC)
    with pytest.raises(ValueError, match="no demosaic"):
        demosaic_bilinear(mosaic_frame(np.zeros((4, 4)), s))


def test_color_matrix_maps_white_to_neutral():
    s = SensorSpec()
    m = fit_color_matrix(s)
    from camsim.spectral import DEFAULT_GRID, IRRADIANCE, d65_spectrum, resample
    illum = d65_spectrum(DEFAULT_GRID, IRRADIANCE)
    qe = np.stack([resample(s.qe[ch], DEFAULT_GRID).values for ch in "RGB"])
    white = illum.values @ qe.T
    corrected = m @ (white / white[1])
    assert np.allclose(corrected, corrected[1], rtol=0.05)


def test_color_correct_requires_sensor_linear_rgb():
    img = RGBImage(np.zeros((2, 2, 3)), TAG_LINEAR_SRGB)
    with pytest.raises(ValueError, match="sensor-linear"):
        color_correct(img, np.eye(3))
    gray = RGBImage(np.zeros((2, 2, 1)), TAG_SENSOR_LINEAR)
    with pytest.raises(ValueError, match="3-channel"):
        color_correct(gray, np.eye(3))
    rgb = RGBImage(np.full((2, 2, 3), 0.5), TAG_SENSOR_LINEAR)
    with pytest.raises(ValueError, match="non-singular"):
        color_correct(rgb, np.zeros((3, 3)))


def test_adaptive_gamma_input_mean_identity():
    rng = np.random.default_rng(0)
    v = rng.uniform(0.05, 0.95, size=(32, 32, 3))
    img = RGBImage(v, TAG_LINEAR_SRGB)
    out = apply_gamma(img, GammaSpec(mode="adaptive", target=0.2))
    assert (float(v.mean()) ** out.gamma_used) == pytest.approx(0.2, abs=1e-9)


def test_adaptive_gamma_solve_output_mean():
    rng = np.random.default_rng(1)
    v = rng.uniform(0.01, 0.99, size=(16, 16, 3))
    img = RGBImage(v, TAG_LINEAR_SRGB)
    out = apply_gamma(img, GammaSpec(mode="adaptive", target=0.3,
                                     solve_output_mean=True))
    assert float(out.values.mean()) == pytest.approx(0.3, abs=1e-6)


def test_fixed_gamma_matches_direct_power():
    rng = np.random.default_rng(2)
    v = rng.uniform(0.0, 1.0, size=(8, 8, 3))
    out = apply_gamma(RGBImage(v, TAG_LINEAR_SRGB), GammaSpec("fixed", gamma=0.1))
    assert np.allclose(out.values, np.power(v, 0.1), atol=1e-12)
    assert out.gamma_used == 0.1


def test_adaptive_gamma_degenerate_mean_warns():
    img = RGBImage(np.zeros((4, 4, 3)), TAG_LINEAR_SRGB)
    with pytest.warns(UserWarning, match="adaptive gamma"):
        out = apply_gamma(img, GammaSpec(mode="adaptive"))
    assert out.gamma_used == 1.0


def test_srgb_encode_breakpoints():
    v = np.array([[[0.0, 0.0031308, 1.0]]])
    out = apply_gamma(RGBImage(v, TAG_LINEAR_SRGB), GammaSpec(mode="srgb"))
    assert out.values[0, 0, 0] == 0.0
    assert out.values[0, 0, 1] == pytest.approx(12.92 * 0.0031308, rel=1e-9)
    assert out.values[0, 0, 2] == pytest.approx(1.0, abs=1e-9)


def test_reflectance_patches_shape_and_range():
    p = reflectance_patches()
    assert p.shape == (24, 31)
    assert p.min() >= 0.0 and p.max() <= 1.0
    # last six are the neutral series
    assert np.allclose(p[-6:], p[-6:, :1])


def test_render_default_pipeline_tags():
    frame = adc(np.full((8, 8), 5000.0), SensorSpec())
    img = render(frame)
    assert img.tag == TAG_SRGB_ENCODED
    assert img.gamma_used is not None


def test_render_raw_stage():
    frame = adc(np.full((8, 8), 5000.0), SensorSpec())
    img = render(frame, IspConfig(stages=("raw",)))
    assert img.values.shape == (8, 8, 1)
    assert np.allclose(img.values[:, :, 0], raw_passthrough(frame).values[:, :, 0])


def test_render_unknown_stage():
    frame = adc(np.zeros((8, 8)), SensorSpec())
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        render(frame, IspConfig(stages=("sharpen",)))


def test_ppm_output(tmp_path):
    v = np.zeros((2, 3, 3))
    v[0, 0] = [1.0, 0.5, 0.0]
    write_ppm(RGBImage(v, TAG_SRGB_ENCODED), tmp_path / "x.ppm")
    blob = (tmp_path / "x.ppm").read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    assert list(pixels[:3]) == [255, 128, 0]

