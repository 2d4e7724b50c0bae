import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from camsim import spectral
from camsim.spectral import (DIMENSIONLESS, IRRADIANCE, RADIANCE, Spectrum,
                             WavelengthGrid, d65_spectrum, illuminance_lux,
                             luminance_cd_m2, luminance_weights, photopic_curve,
                             project_bands, resample)
from camsim.cie_data import HC, LUMENS_PER_WATT_555


def test_grid_wavelengths():
    g = WavelengthGrid(400.0, 10.0, 4)
    assert np.allclose(g.wavelengths_nm, [400, 410, 420, 430])


def test_grid_validation():
    with pytest.raises(ValueError):
        WavelengthGrid(400.0, -5.0, 10)
    with pytest.raises(ValueError):
        WavelengthGrid(400.0, 10.0, 0)


def test_photon_energy_round_trip():
    g = WavelengthGrid(500.0, 10.0, 3)
    s = Spectrum.from_energy(np.array([1.0, 2.0, 3.0]), g, unit=RADIANCE)
    back = s.to_energy()
    assert np.allclose(back, [1.0, 2.0, 3.0], rtol=1e-12)
    # photon rate = energy / (hc/lambda): more photons per watt at longer waves
    assert s.values[2] / s.values[0] == pytest.approx(3.0 * 520.0 / 500.0)


def test_luminance_monochromatic_555nm_oracle():
    """1 W/(m^2 sr nm) in a single 1 nm bin at 555 nm is 683 cd/m^2."""
    g = WavelengthGrid(555.0, 1.0, 1)
    s = Spectrum.from_energy(np.array([1.0]), g, unit=RADIANCE)
    assert luminance_cd_m2(s) == pytest.approx(LUMENS_PER_WATT_555, rel=2e-3)


def test_illuminance_unit_check():
    g = WavelengthGrid(555.0, 1.0, 1)
    rad = Spectrum.from_energy(np.array([1.0]), g, unit=RADIANCE)
    with pytest.raises(ValueError):
        illuminance_lux(rad)
    irr = Spectrum.from_energy(np.array([1.0]), g, unit=IRRADIANCE)
    assert illuminance_lux(irr) == pytest.approx(LUMENS_PER_WATT_555, rel=2e-3)


@st.composite
def band_products(draw):
    """(K, Nλ) values, float32 or float64, and (C, Nλ) float64 weights,
    signed zeros included."""
    k, n, c = draw(st.integers(1, 40)), draw(st.integers(1, 31)), draw(st.integers(1, 4))
    finite = st.floats(-2.0 ** 100, 2.0 ** 100, width=32)
    values = draw(arrays(np.float64, (k, n), elements=finite))
    return (values.astype(draw(st.sampled_from([np.float32, np.float64]))),
            draw(arrays(np.float64, (c, n), elements=finite)))


@settings(max_examples=200, deadline=None)
@given(case=band_products(), strip_rows=st.sampled_from([1, 3, None]))
@example(case=(np.full((2, 5), -0.0), np.ones((3, 5))), strip_rows=None)
@example(case=(np.linspace(-1.0, 1.0, 3000)[None, :] ** 3, np.full((1, 3000), 0.1)),
         strip_rows=None)
def test_project_bands_adds_band_after_band_from_zero(case, strip_rows):
    """Each sum is a float64 Python loop from 0.0 over the bands in order,
    and a row's bits are those of the row projected alone, in strips of
    any length and whether there are more sums than bands or fewer."""
    values, weights = case
    strips = spectral._STRIP_ROWS if strip_rows is None else strip_rows
    with mock.patch.object(spectral, "_STRIP_ROWS", strips):
        got = project_bands(values, weights)
        for r in range(len(values)):
            assert project_bands(values[r:r + 1], weights).tobytes() == got[r].tobytes()
    want = np.zeros(got.shape)
    for r, row in enumerate(values.tolist()):
        for c, weight in enumerate(weights.tolist()):
            acc = 0.0
            for v, w in zip(row, weight):
                acc += v * w
            want[r, c] = acc
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_photopic_curve_peak():
    g = WavelengthGrid(380.0, 1.0, 401)
    v = photopic_curve(g).values
    peak_nm = g.wavelengths_nm[int(np.argmax(v))]
    assert abs(peak_nm - 555.0) <= 5.0
    assert v.max() == pytest.approx(1.0, abs=5e-3)


def test_luminance_weights_scale_with_bin_width():
    g1 = WavelengthGrid(500.0, 5.0, 11)
    g2 = WavelengthGrid(500.0, 10.0, 6)
    w1 = luminance_weights(g1)
    w2 = luminance_weights(g2)
    assert w2[0] == pytest.approx(2.0 * w1[0], rel=1e-12)


def test_resample_interpolates_and_zero_fills():
    g = WavelengthGrid(500.0, 10.0, 3)  # 500, 510, 520
    s = Spectrum(g, np.array([0.1, 0.3, 0.5]), unit=DIMENSIONLESS)
    t = WavelengthGrid(495.0, 10.0, 4)  # 495, 505, 515, 525
    r = resample(s, t)
    assert np.allclose(r.values, [0.0, 0.2, 0.4, 0.0])


def test_resample_disjoint_grids_error():
    s = Spectrum(WavelengthGrid(400.0, 10.0, 3), np.ones(3), unit=DIMENSIONLESS)
    with pytest.raises(ValueError, match="disjoint"):
        resample(s, WavelengthGrid(700.0, 10.0, 3))


def test_spectrum_json_round_trip():
    g = WavelengthGrid(400.0, 10.0, 5)
    s = Spectrum(g, np.arange(5, dtype=float), unit=RADIANCE)
    r = Spectrum.from_json(s.to_json())
    assert r.grid == s.grid
    assert r.unit == RADIANCE
    assert np.array_equal(r.values, s.values)
    doc = json.loads(s.to_json())
    assert set(doc) == {"start_nm", "step_nm", "count", "unit", "values"}


def test_d65_is_a_daylight_shape():
    s = d65_spectrum()
    e = s.to_energy()
    # blue-rich relative to red, finite everywhere
    assert e[np.argmin(np.abs(s.grid.wavelengths_nm - 460))] > \
        e[np.argmin(np.abs(s.grid.wavelengths_nm - 700))]
    assert np.all(np.isfinite(e)) and np.all(e >= 0)


def test_spectrum_values_are_immutable():
    s = Spectrum(WavelengthGrid(400.0, 10.0, 3), np.ones(3), unit=DIMENSIONLESS)
    with pytest.raises(ValueError):
        s.values[0] = 2.0
