import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camsim.optics import LensSpec, optical_image
from camsim.scene import SceneSpec, synthesize
from camsim.sensor import (MONO, RCCC, RGGB, PixelSpec, SensorSpec, adc,
                           apply_noise, channel_index_map, derive_geometry,
                           dn_to_electrons, dynamic_range_db, expected_rate,
                           sensor_geometry)
from camsim.spectral import WavelengthGrid
from frames import noise_free

GRID = WavelengthGrid(400.0, 30.0, 11)


def test_geometry_sweep():
    sensor = SensorSpec()
    assert derive_geometry(1.5, sensor) == (1440, 2560)
    assert derive_geometry(3.0, sensor) == (720, 1280)
    assert derive_geometry(6.0, sensor) == (360, 640)


def test_geometry_even_floor():
    # 3.84 mm / 1.7 µm = 2258.8 -> 2258 (already even); 2.17 µm -> 1769 -> 1768
    sensor = SensorSpec()
    rows, cols = derive_geometry(2.17, sensor)
    assert cols % 2 == 0 and rows % 2 == 0
    assert cols == 1768


def test_dynamic_range_default():
    assert dynamic_range_db(SensorSpec()) == pytest.approx(55.0, abs=0.1)


def test_well_scales_with_pixel_area():
    s = SensorSpec()
    assert s.effective_well_e() == pytest.approx(13500.0)
    assert s.with_pixel_size(6.0).effective_well_e() == pytest.approx(4 * 13500.0)
    assert s.with_pixel_size(1.5).effective_well_e() == pytest.approx(13500.0 / 4)
    fixed = SensorSpec(scale_well_with_area=False)
    assert fixed.with_pixel_size(6.0).effective_well_e() == pytest.approx(13500.0)


def test_dynamic_range_invariant_under_area_scaling():
    # read noise scales are held fixed, so DR moves with pixel size
    s = SensorSpec()
    assert dynamic_range_db(s.with_pixel_size(6.0)) > dynamic_range_db(s)


def test_spec_validation():
    with pytest.raises(ValueError, match="16x16|16 x 16|below 16"):
        SensorSpec(dye_width_mm=0.01, dye_height_mm=0.01)
    with pytest.raises(ValueError, match="dynamic range"):
        SensorSpec(pixel=PixelSpec(read_noise_e=2000.0))


def test_channel_index_map_rggb():
    s = SensorSpec()
    m = channel_index_map(s, 4, 4)
    # RGGB tiling: channel indices follow the 2x2 pattern
    assert m[0, 0] != m[0, 1]
    assert np.array_equal(m[:2, :2], m[2:, 2:])


def test_integrate_rejects_uneven_pitch_ratio():
    with pytest.raises(ValueError, match="evenly divide"):
        sensor_geometry((32, 32), 2.0, SensorSpec())


def test_adc_floor_quantization():
    s = SensorSpec()
    e = np.array([[0.0, 13500.0 / 1023.0 * 1.5], [13500.0, 20000.0]])
    frame = adc(e, s)
    assert frame.dn[0, 0] == 0
    assert frame.dn[0, 1] == 1
    assert frame.dn[1, 0] == 1023
    assert frame.dn[1, 1] == 1023
    assert bool(frame.saturated[1, 0]) and bool(frame.saturated[1, 1])
    assert not frame.saturated[0, 1]


def test_dn_to_electrons_inverts_adc():
    s = SensorSpec()
    e = np.linspace(0, 13000, 64).reshape(8, 8)
    frame = adc(e, s)
    back = dn_to_electrons(frame)
    # within one quantization step below the input
    assert np.all(back <= e + 1e-9)
    assert np.all(e - back < 13500.0 / 1023.0 + 1e-9)


@given(st.floats(min_value=0.0, max_value=13500.0),
       st.floats(min_value=0.0, max_value=13500.0))
@settings(max_examples=60, deadline=None)
def test_adc_monotone(e1, e2):
    s = SensorSpec()
    f = adc(np.array([[e1, e2]]), s)
    if e1 <= e2:
        assert f.dn[0, 0] <= f.dn[0, 1]
    else:
        assert f.dn[0, 0] >= f.dn[0, 1]


def test_noise_statistics_poisson_regime():
    s = SensorSpec(pixel=PixelSpec(read_noise_e=24.0))
    lam = np.full((256, 256), 1000.0)
    e = apply_noise(lam, s, 0.0, seed=7)
    shot_plus_read = lam.mean() + 24.0 ** 2
    assert e.mean() == pytest.approx(1000.0, rel=0.01)
    assert e.var() == pytest.approx(shot_plus_read, rel=0.05)


def test_noise_clamped_to_well():
    s = SensorSpec()
    e = apply_noise(np.full((64, 64), 1e6), s, 0.0, seed=1)
    assert e.max() <= s.effective_well_e()
    e0 = apply_noise(np.zeros((64, 64)), s, 0.0, seed=1)
    assert e0.min() >= 0.0


def test_noise_deterministic_per_seed():
    s = SensorSpec()
    lam = np.full((32, 32), 100.0)
    a = apply_noise(lam, s, 0.0, seed=3)
    b = apply_noise(lam, s, 0.0, seed=3)
    c = apply_noise(lam, s, 0.0, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dark_current_adds_to_signal():
    s = SensorSpec(pixel=PixelSpec(dark_current_e_per_s=1000.0, read_noise_e=24.0))
    lam = np.full((128, 128), 100.0)
    e = apply_noise(lam, s, 1.0, seed=5)
    assert e.mean() == pytest.approx(1100.0, rel=0.05)


def test_capture_shapes_and_noise_free_path():
    sc = synthesize(SceneSpec(width=64, height=64, grid=GRID, seed=0))
    lens = LensSpec()
    s = SensorSpec(dye_width_mm=0.192, dye_height_mm=0.192)
    with pytest.warns(UserWarning):
        rate = expected_rate(optical_image(sc, lens, s), s)
    f1 = noise_free(rate, s, 1e-3)
    f2 = noise_free(rate, s, 1e-3)
    assert f1.dn.shape == (64, 64)
    assert np.array_equal(f1.dn, f2.dn)  # noise-free is seed-independent


def test_mono_and_rccc_cfas():
    s = SensorSpec(cfa=MONO)
    assert channel_index_map(s, 4, 4).max() == 0
    s2 = SensorSpec(cfa=RCCC)
    m = channel_index_map(s2, 2, 2)
    assert len(np.unique(m)) == 2

