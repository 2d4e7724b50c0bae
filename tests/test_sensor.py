import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from camsim import kernels
from camsim.optics import LensSpec, optical_image
from camsim.scene import SceneSpec, synthesize
from camsim.sensor import (MONO, RCCC, RGGB, PixelSpec, RawFrame, SensorSpec, adc,
                           channel_index_map, derive_geometry, dn_to_electrons,
                           dynamic_range_db, expected_rate, expose, sensor_geometry)
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


# The ADC and its inverse as one-line whole-array expressions, frozen as the
# byte oracle for the in-place versions.

def frozen_adc(electrons, sensor):
    well = sensor.effective_well_e()
    volts = electrons * sensor.conversion_gain_uV() * 1e-6 * sensor.analog_gain
    max_code = sensor.max_code()
    dn = np.floor(volts / sensor.pixel.voltage_swing_V * max_code)
    dn = np.clip(dn, 0, max_code).astype(np.uint16)
    return dn, (electrons >= well) | (dn == max_code)


def frozen_dn_to_electrons(frame):
    s = frame.sensor
    volts = frame.dn.astype(np.float64) / s.max_code() * s.pixel.voltage_swing_V
    return volts / (s.conversion_gain_uV() * 1e-6 * s.analog_gain)


# sensors with a gain other than 1, an explicit conversion gain (which may map
# the well past the swing or short of it), a swing other than 1 V and every
# ADC width from 8 to 16 bits
_ADC_SENSORS = st.builds(
    lambda gain, cg, swing, bits: SensorSpec(
        pixel=PixelSpec(conversion_gain_uV_per_e=cg, voltage_swing_V=swing),
        analog_gain=gain, adc_bits=bits),
    st.sampled_from([1.0, 0.5, 3.7]) | st.floats(0.1, 16.0),
    st.none() | st.sampled_from([10.0, 74.07]) | st.floats(1.0, 500.0),
    st.sampled_from([1.0, 0.7, 2.5]),
    st.integers(8, 16))
# electrons below zero, zero of either sign, on, below and beyond the
# 13500 e- well, and fractional
_ELECTRONS = (st.sampled_from([0.0, -0.0, 13500.0, 13499.999, 13500.5, 1e9, -1e9])
              | st.floats(-2e4, 1e5, allow_nan=False)
              | st.integers(-20000, 100000).map(float))


def _code_edges(sensor):
    """Electrons on the lower edge of a code's bin, or one double either
    side of it, where the order of the ADC's products decides the code."""
    def edge(code, step):
        e = code / sensor.max_code() * sensor.pixel.voltage_swing_V \
            / (sensor.conversion_gain_uV() * 1e-6 * sensor.analog_gain)
        return float(np.nextafter(e, step * np.inf)) if step else e
    return st.builds(edge, st.integers(0, sensor.max_code() + 2), st.sampled_from([-1, 0, 1]))


@settings(max_examples=300, deadline=None)
@given(sensor=_ADC_SENSORS, data=st.data())
def test_adc_is_the_frozen_expression_bit_for_bit(sensor, data):
    electrons = data.draw(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                                 elements=_ELECTRONS | _code_edges(sensor)))
    before = electrons.copy()
    electrons.flags.writeable = False
    frame = adc(electrons, sensor, 2e-3)
    dn, saturated = frozen_adc(electrons, sensor)
    assert frame.dn.dtype == np.uint16 and frame.dn.tobytes() == dn.tobytes()
    assert frame.saturated.dtype == bool and frame.saturated.tobytes() == saturated.tobytes()
    assert electrons.tobytes() == before.tobytes()


@settings(max_examples=200, deadline=None)
@given(sensor=_ADC_SENSORS, data=st.data())
def test_dn_to_electrons_is_the_frozen_expression_bit_for_bit(sensor, data):
    dn = data.draw(arrays(np.uint16, st.tuples(st.integers(1, 9), st.integers(1, 9)),
                          elements=st.integers(0, sensor.max_code())))
    before = dn.copy()
    dn.flags.writeable = False
    frame = RawFrame(dn, dn == sensor.max_code(), 1e-3, sensor)
    got = dn_to_electrons(frame)
    assert got.dtype == np.float64
    assert got.tobytes() == frozen_dn_to_electrons(frame).tobytes()
    assert dn.tobytes() == before.tobytes()


def _noise(lam, sensor, seed):
    """The noise kernel's electrons for λ = `lam` on `sensor`."""
    return kernels.sample_sensor_noise(lam, sensor.pixel.read_noise_e, sensor.effective_well_e(),
                                       seed)


def test_noise_statistics_poisson_regime():
    s = SensorSpec(pixel=PixelSpec(read_noise_e=24.0))
    lam = np.full((256, 256), 1000.0)
    e = _noise(lam, s, seed=7)
    shot_plus_read = lam.mean() + 24.0 ** 2
    assert e.mean() == pytest.approx(1000.0, rel=0.01)
    assert e.var() == pytest.approx(shot_plus_read, rel=0.05)


def test_noise_clamped_to_well():
    s = SensorSpec()
    e = _noise(np.full((64, 64), 1e6), s, seed=1)
    assert e.max() <= s.effective_well_e()
    e0 = _noise(np.zeros((64, 64)), s, seed=1)
    assert e0.min() >= 0.0


def test_noise_deterministic_per_seed():
    s = SensorSpec()
    lam = np.full((32, 32), 100.0)
    a = _noise(lam, s, seed=3)
    b = _noise(lam, s, seed=3)
    c = _noise(lam, s, seed=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dark_current_adds_to_signal():
    s = SensorSpec(pixel=PixelSpec(dark_current_e_per_s=1000.0, read_noise_e=24.0))
    frame = expose(np.full((128, 128), 100.0), s, 1.0, seed=5)
    assert dn_to_electrons(frame).mean() == pytest.approx(1100.0, rel=0.05)


def hdr_12ms_rate():
    """A full-dye rate whose 12 ms exposure puts λ ≈ 3-4 on an 800 x 800
    block, as under hdr_fulldye's shadow, and 100-3000 elsewhere."""
    rng = np.random.default_rng(0)
    lam = rng.uniform(100.0, 3000.0, (1440, 2560))
    lam[400:1200, 1600:2400] = rng.uniform(2.8, 4.0, (800, 800))
    return lam / 12e-3


@pytest.mark.parametrize("at", [None, np.arange(0, 37 * 53, 5)], ids=["whole", "at"])
def test_expose_is_the_noise_kernel_of_rate_times_duration_plus_dark(at):
    s = SensorSpec(pixel=PixelSpec(dark_current_e_per_s=1000.0))
    rate = np.random.default_rng(6).uniform(0.0, 4e4, (37, 53))
    rate = rate if at is None else rate.reshape(-1)[at]
    before = rate.copy()
    got = expose(rate, s, 3e-3, seed=8, at=at)
    lam = rate * 3e-3 + 1000.0 * 3e-3
    want = adc(kernels.sample_sensor_noise(lam, s.pixel.read_noise_e, s.effective_well_e(),
                                           8, at=at), s, 3e-3)
    assert got.dn.tobytes() == want.dn.tobytes()
    assert got.saturated.tobytes() == want.saturated.tobytes()
    assert rate.tobytes() == before.tobytes()


def test_expose_of_a_full_dye_frame_peaks_below_three_frames():
    """One λ frame and the noise kernel's output are alive at once; the
    ADC's raster is allocated after λ is freed."""
    rate = hdr_12ms_rate()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        expose(rate, SensorSpec(), 12e-3, seed=7)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 3 * rate.nbytes, peak / rate.nbytes


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

