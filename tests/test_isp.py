import gc
import math
import sys
import threading
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camsim import isp as isp_module
from camsim.exposure import HDRFrame
from camsim.isp import (_NEIGHBOURS, _RGGB_PICKS, GammaSpec, IspConfig, RGBImage, _gamma_band,
                        _gamma_exponent, fit_color_matrix, reflectance_patches, render,
                        top_percentile, write_ppm)
from camsim.sensor import MONO, RCCC, RGGB, RawFrame, SensorSpec, adc


def mosaic_frame(dn: np.ndarray, sensor=None) -> RawFrame:
    sensor = sensor or SensorSpec()
    dn = dn.astype(np.uint16)
    return RawFrame(dn, dn == sensor.max_code(), 1e-3, sensor)


def demosaic(frame: RawFrame) -> np.ndarray:
    """The frame rendered through the demosaic stage alone."""
    return render(frame, IspConfig(stages=("demosaic",))).values


def gamma(v: np.ndarray, spec: GammaSpec) -> tuple:
    """(`v` through the gamma kernels that `render` runs, the exponent used):
    exact values that 10-bit DN cannot reach."""
    exponent = _gamma_exponent(spec, v.mean())
    out = np.empty_like(v)
    _gamma_band(v, exponent, out)
    return out, exponent


def test_demosaic_constant_field_exact():
    frame = mosaic_frame(np.full((8, 8), 600))
    # exact at every pixel, borders included (reflect padding keeps parity)
    assert np.allclose(demosaic(frame), 600.0 / 1023.0, atol=1e-12)


def test_demosaic_red_flat_field_fixture():
    """Hand-computed 3x3 fixture: R sites at 1023, G/B sites at 0.

    Every red interpolation averages pure-red neighbors, so the red plane is
    exactly 1 and the other planes exactly 0 at all nine pixels.
    """
    dn = np.array([[1023, 0, 1023],
                   [0, 0, 0],
                   [1023, 0, 1023]])
    v = demosaic(mosaic_frame(dn))
    assert np.allclose(v[:, :, 0], 1.0, atol=1e-12)
    assert np.allclose(v[:, :, 1], 0.0, atol=1e-12)
    assert np.allclose(v[:, :, 2], 0.0, atol=1e-12)


def test_demosaic_interior_bilinear_values():
    # single hot green pixel at a Gr site (0,1) -> quarter weight at the
    # diagonal R/B neighbors' green estimate
    dn = np.zeros((4, 4))
    dn[1, 1] = 1023  # B site
    img = demosaic(mosaic_frame(dn))
    v = 1.0
    assert img[1, 1, 2] == pytest.approx(v)
    assert img[1, 2, 2] == pytest.approx(v / 2)    # Gb site, horiz avg
    assert img[2, 2, 2] == pytest.approx(v / 4)    # R site, diag avg
    assert img[1, 1, 1] == pytest.approx(0.0)      # green at the B site


def bilinear_reference(x: np.ndarray) -> np.ndarray:
    """Per-pixel bilinear RGGB interpolation with reflected borders, summed
    in the order the demosaic uses, in the dtype of `x`."""
    h, w = x.shape

    def px(i, j):
        i = -i if i < 0 else 2 * (h - 1) - i if i >= h else i
        j = -j if j < 0 else 2 * (w - 1) - j if j >= w else j
        return x[i, j]

    out = np.empty((h, w, 3), x.dtype)
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
    want = bilinear_reference((dn / 1023.0).astype(np.float32))
    got = demosaic(frame)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_demosaic_mono_replicates():
    s = SensorSpec(cfa=MONO)
    img = demosaic(mosaic_frame(np.full((4, 4), 100), s))
    assert img.shape == (4, 4, 3)
    assert np.allclose(img[..., 0], img[..., 2])


def test_demosaic_rccc_refuses():
    s = SensorSpec(cfa=RCCC)
    with pytest.raises(ValueError, match="no demosaic"):
        demosaic(mosaic_frame(np.zeros((4, 4)), s))


def test_color_matrix_maps_white_to_neutral():
    s = SensorSpec()
    m = fit_color_matrix(s)
    from camsim.spectral import DEFAULT_GRID, IRRADIANCE, d65_spectrum, resample
    illum = d65_spectrum(DEFAULT_GRID, IRRADIANCE)
    qe = np.stack([resample(s.qe[ch], DEFAULT_GRID).values for ch in "RGB"])
    white = illum.values @ qe.T
    corrected = m @ (white / white[1])
    assert np.allclose(corrected, corrected[1], rtol=0.05)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-12, 1.0 + 1e-12],
                         ids=["nan", "+inf", "-inf", "below-0", "above-1"])
def test_rgb_image_rejects_values_outside_the_unit_interval(bad):
    v = np.full((2, 3, 3), 0.5)
    v[1, 2, 0] = bad
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        RGBImage(v)


def test_rgb_image_rejects_an_empty_image():
    with pytest.raises(ValueError):
        RGBImage(np.zeros((0, 4, 3)))


def test_color_stage_rejects_a_singular_matrix():
    with pytest.raises(ValueError, match="non-singular"):
        IspConfig(stages=("demosaic", "color"), matrix=((0.0,) * 3,) * 3)


def test_adaptive_gamma_input_mean_identity():
    rng = np.random.default_rng(0)
    v = rng.uniform(0.05, 0.95, size=(32, 32, 3))
    _, gamma_used = gamma(v, GammaSpec(mode="adaptive", target=0.2))
    assert (float(v.mean()) ** gamma_used) == pytest.approx(0.2, abs=1e-9)


def test_fixed_gamma_matches_direct_power():
    rng = np.random.default_rng(2)
    v = rng.uniform(0.0, 1.0, size=(8, 8, 3))
    out, gamma_used = gamma(v, GammaSpec("fixed", gamma=0.1))
    assert np.allclose(out, np.power(v, 0.1), atol=1e-12)
    assert gamma_used == 0.1


def test_adaptive_gamma_degenerate_mean_warns():
    with pytest.warns(UserWarning, match="adaptive gamma"):
        _, gamma_used = gamma(np.zeros((4, 4, 3)), GammaSpec(mode="adaptive"))
    assert gamma_used == 1.0


@pytest.mark.parametrize("exponent", [0.5, 1.0, 3.0, 7.0, 2.2, 0.437, 1 / 2.4, None],
                         ids=lambda e: "srgb" if e is None else f"{e:.3g}")
@pytest.mark.parametrize("in_place", [True, False], ids=["in-place", "into-out"])
def test_gamma_band_has_the_bytes_of_power_over_every_value(exponent, in_place):
    """_gamma_band skips +0.0 (and the sRGB curve's linear segment) in
    np.power; on float32 bands that hold +0.0 and -0.0 among other values
    its bytes are those of np.power over every value. np.power keeps the
    sign of -0.0 for some exponents (0.5, odd integers) and not others."""
    rng = np.random.default_rng(7)
    v = rng.random((6, 37, 3), dtype=np.float32)
    flat = v.reshape(-1)
    flat[::5], flat[2::7], flat[3::11] = 0.0, -0.0, 1.0
    flat[:40] = -0.0  # a run of signed zeros, as a dark band has
    if exponent is None:
        want, _ = frozen_apply_gamma(v.copy(), GammaSpec("srgb"))
    else:
        want = np.clip(np.power(v, np.float32(exponent)), 0.0, 1.0)
    before = v.copy()
    out = v if in_place else np.empty_like(v)
    _gamma_band(v, exponent, out)
    assert out.tobytes() == want.tobytes()
    if not in_place:
        assert v.tobytes() == before.tobytes()


def test_srgb_encode_breakpoints():
    v = np.array([[[0.0, 0.0031308, 1.0]]])
    out, _ = gamma(v, GammaSpec(mode="srgb"))
    assert out[0, 0, 0] == 0.0
    assert out[0, 0, 1] == pytest.approx(12.92 * 0.0031308, rel=1e-9)
    assert out[0, 0, 2] == pytest.approx(1.0, abs=1e-9)


def test_reflectance_patches_shape_and_range():
    p = reflectance_patches()
    assert p.shape == (24, 31)
    assert p.min() >= 0.0 and p.max() <= 1.0
    # last six are the neutral series
    assert np.allclose(p[-6:], p[-6:, :1])


def test_render_default_pipeline_tags():
    frame = adc(np.full((8, 8), 5000.0), SensorSpec())
    img = render(frame)
    assert img.gamma_used is not None


def test_render_fits_the_matrix_unless_one_is_given():
    frame = mosaic_frame(np.random.default_rng(3).integers(0, 1024, (8, 10)))
    linear = demosaic(frame)
    stages = ("demosaic", "color")
    fitted = render(frame, IspConfig(stages=stages)).values
    want = frozen_color_correct(linear, fit_color_matrix(frame.sensor))
    assert fitted.tobytes() == want.tobytes()
    matrix = ((0.5, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.25))
    given = render(frame, IspConfig(stages=stages, matrix=matrix)).values
    assert given.tobytes() == (linear * np.float32((0.5, 1.0, 0.25))).tobytes()


def test_render_raw_stage():
    frame = adc(np.full((8, 8), 5000.0), SensorSpec())
    img = render(frame, IspConfig(stages=("raw",)))
    assert img.values.shape == (8, 8, 1)
    assert np.allclose(img.values[:, :, 0], frame.dn / frame.sensor.max_code())


def test_render_unknown_stage():
    frame = adc(np.zeros((8, 8)), SensorSpec())
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        render(frame, IspConfig(stages=("sharpen",)))


def test_ppm_output(tmp_path):
    v = np.zeros((2, 3, 3))
    v[0, 0] = [1.0, 0.5, 0.0]
    write_ppm(RGBImage(v), tmp_path / "x.ppm")
    blob = (tmp_path / "x.ppm").read_bytes()
    assert blob.startswith(b"P6\n3 2\n255\n")
    pixels = np.frombuffer(blob.split(b"255\n", 1)[1], dtype=np.uint8)
    assert list(pixels[:3]) == [255, 128, 0]



def hdr_frame(rate, sensor=None):
    sensor = sensor or SensorSpec()
    rate = np.asarray(rate, dtype=np.float64)
    return HDRFrame(rate, np.ones(rate.shape, bool), np.zeros(rate.shape, np.int64),
                    (1e-3,), sensor)


@pytest.mark.parametrize("rate", [
    np.random.default_rng(1).lognormal(8.0, 2.0, (37, 53)),
    np.random.default_rng(2).uniform(-5.0, 4e5, (16, 24)),
    np.zeros((6, 8)),  # percentile 0: the norm = 1.0 fallback
    np.full((4, 4), 7.5),
], ids=["lognormal", "negative-and-bright", "all-zero", "flat"])
def test_hdr_tone_map_matches_the_frozen_expression(rate):
    mosaic = render(hdr_frame(rate), IspConfig(stages=("raw",))).values[..., 0]
    norm = float(np.percentile(rate, 99.9))
    norm = norm if norm > 0 else 1.0
    max_code = SensorSpec().max_code()
    want = np.round(np.clip(rate / norm, 0, 1) * max_code).astype(np.uint16)
    assert mosaic.tobytes() == (want / max_code).astype(np.float32).tobytes()


# rasters of tied codes over bracket durations, as HDR fusion makes them, or
# of distinct finite values; -0.0 compares equal to 0.0, so a partition may
# return either and no rate is ever -0.0
_TIED = st.builds(lambda codes, durations: np.array(codes, float) / np.array(durations),
                  st.lists(st.integers(0, 1023), min_size=1, max_size=400),
                  st.sampled_from([1.0, 1e-3, 12e-3]))
_DISTINCT = st.lists(st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)
                     .filter(lambda x: not (x == 0.0 and math.copysign(1.0, x) < 0)),
                     min_size=1, max_size=400).map(np.array)


@settings(max_examples=300, deadline=None)
@given(values=st.one_of(_TIED, _DISTINCT),
       q=st.sampled_from([99.9, 99.0, 50.0, 100.0, 0.0]) | st.floats(0.0, 100.0),
       stride=st.sampled_from([1, 3, 64, 1000]),
       sample_q=st.sampled_from([99.5, 0.0, 100.0]))
@example(values=np.zeros(70), q=99.9, stride=64, sample_q=99.5)  # all zero
@example(values=np.full(9, 3.25), q=99.9, stride=64, sample_q=99.5)  # constant, < stride
@example(values=np.arange(5000.0), q=99.9, stride=64, sample_q=100.0)  # forced fallback
def test_top_percentile_is_np_percentile_bit_for_bit(values, q, stride, sample_q):
    want = np.percentile(values, q)
    with mock.patch.multiple(isp_module, _SAMPLE_STRIDE=stride, _SAMPLE_PERCENTILE=sample_q):
        got = top_percentile(values, q)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_top_percentile_falls_back_when_too_few_reach_the_bound(monkeypatch):
    # the maximum of every 64th value, 199936, leaves 64 of 200000 values,
    # fewer than the 201 from the 99.9th percentile's floor rank up, so every
    # value is partitioned; the 99.5th percentile of the sample leaves more
    values = np.arange(200_000.0)
    sizes = []
    partition = np.partition
    monkeypatch.setattr(np, "partition", lambda a, kth: sizes.append(a.size) or partition(a, kth))
    want = np.percentile(values, 99.9)
    assert top_percentile(values, 99.9) == want and 201 <= sizes[-1] < values.size
    monkeypatch.setattr(isp_module, "_SAMPLE_PERCENTILE", 100.0)
    assert top_percentile(values, 99.9) == want and sizes[-1] == values.size


@pytest.mark.parametrize("shape", [(1, 1), (1, 6), (5, 1), (2, 2), (3, 4), (9, 7)])
def test_demosaic_matches_the_padded_expression(shape):
    # the pre-padded mosaic the demosaic used to build with np.pad, whose
    # 'reflect' repeats the edge of a side one pixel long
    dn = np.random.default_rng(shape[0] * 13 + shape[1]).integers(0, 1024, shape)
    p = np.pad((dn / 1023).astype(np.float32), 1, mode="reflect")
    h, w = shape
    want = np.empty((h, w, 3), np.float32)
    for (dy, dx), picks in _RGGB_PICKS.items():
        for c, pick in enumerate(picks):
            offsets = _NEIGHBOURS[pick]
            total = sum(p[1 + dy + oy:1 + h + oy:2, 1 + dx + ox:1 + w + ox:2]
                        for oy, ox in offsets)
            want[dy::2, dx::2, c] = total / len(offsets)
    got = demosaic(mosaic_frame(dn))
    assert got.tobytes() == np.clip(want, 0.0, 1.0).tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), cfa=st.sampled_from([RGGB, MONO]))
def test_demosaic_planes_lie_in_the_unit_interval(data, cfa):
    """The demosaic has no clip: on mosaics of code 0, max_code and random
    codes, every plane value lies in [0, 1] and none is -0.0."""
    sensor = SensorSpec(cfa=cfa)
    top = sensor.max_code()
    shape = data.draw(st.tuples(st.integers(1, 12), st.integers(1, 12)))
    codes = st.sampled_from([0, top]) | st.integers(0, top)
    dn = data.draw(hnp.arrays(np.uint16, shape, elements=codes))
    h, w = shape
    mosaic = np.pad((dn / top).astype(np.float32), 1, mode="reflect")
    planes = np.empty((3, h, w), np.float32)
    isp_module._demosaic_band(mosaic if cfa is RGGB else mosaic[1:-1, 1:-1], cfa is MONO,
                              planes)
    assert planes.min() >= 0.0 and planes.max() <= 1.0
    assert not np.signbit(planes).any()
    assert demosaic(RawFrame(dn, dn == top, 1e-3, sensor)).transpose(2, 0, 1).tobytes() \
        == planes.tobytes()


# The whole-frame ISP chain as it stood before render worked in bands, frozen
# as the byte oracle for render, on float32 buffers; its color stage sums
# each channel in a fixed order. On float64 buffers, with matmul for the
# color stage, it is the float64 chain the float32 render is bounded against.

def frozen_hdr_to_mosaic_frame(hdr):
    norm = float(np.percentile(hdr.rate_e_per_s, 99.9))
    norm = norm if norm > 0 else 1.0
    max_code = hdr.sensor.max_code()
    v = np.divide(hdr.rate_e_per_s, norm)
    np.clip(v, 0.0, 1.0, out=v)
    np.multiply(v, max_code, out=v)
    dn = np.round(v, out=v).astype(np.uint16)
    return RawFrame(dn, dn == max_code, 0.0, hdr.sensor)


def frozen_demosaic_bilinear(frame, dtype=np.float32):
    if frame.sensor.cfa.pattern == MONO.pattern:
        x = (frame.dn / frame.sensor.max_code()).astype(dtype)
        return np.repeat(x[:, :, None], 3, axis=2)
    h, w = frame.dn.shape
    p = np.empty((h + 2, w + 2), dtype)
    np.divide(frame.dn, frame.sensor.max_code(), out=p[1:-1, 1:-1])
    ry, rx = min(1, h - 1), min(1, w - 1)
    p[0, 1:-1], p[-1, 1:-1] = p[1 + ry, 1:-1], p[h - ry, 1:-1]
    p[:, 0], p[:, -1] = p[:, 1 + rx], p[:, w - rx]
    out = np.empty((h, w, 3), dtype)
    total = np.empty(((h + 1) // 2, (w + 1) // 2), dtype)
    for (dy, dx), picks in _RGGB_PICKS.items():
        phase = total[:(h - dy + 1) // 2, :(w - dx + 1) // 2]
        for c, pick in enumerate(picks):
            planes = [p[1 + dy + oy:1 + h + oy:2, 1 + dx + ox:1 + w + ox:2]
                      for oy, ox in _NEIGHBOURS[pick]]
            if len(planes) == 1:
                out[dy::2, dx::2, c] = planes[0]
                continue
            np.add(planes[0], planes[1], out=phase)
            for plane in planes[2:]:
                np.add(phase, plane, out=phase)
            np.divide(phase, len(planes), out=phase)
            out[dy::2, dx::2, c] = phase
    return np.clip(out, 0.0, 1.0, out=out)


def frozen_color_correct(v, matrix):
    if v.dtype == np.float64:
        out = v @ np.asarray(matrix, dtype=np.float64).T
    else:
        m = np.asarray(matrix, dtype=np.float64).astype(v.dtype)
        out = np.stack([m[i, 0] * v[..., 0] + m[i, 1] * v[..., 1] + m[i, 2] * v[..., 2]
                        for i in range(3)], axis=2)
    return np.clip(out, 0.0, 1.0, out=out)


def frozen_apply_gamma(v, spec):
    gamma_used = None
    if spec.mode == "srgb":
        lo = v <= 0.0031308
        out = np.where(lo, 12.92 * v, 1.055 * np.power(v, 1 / 2.4) - 0.055)
    elif spec.mode == "fixed":
        gamma_used = spec.gamma
        out = np.power(v, spec.gamma)
    else:
        m = float(v.mean())
        if not 0.0 < m < 1.0:
            gamma_used = 1.0
        else:
            gamma_used = float(np.log(spec.target) / np.log(m))
        out = np.power(v, gamma_used)
    return np.clip(out, 0.0, 1.0, out=out), gamma_used


def frozen_render(frame, isp, dtype=np.float32):
    if isinstance(frame, HDRFrame):
        frame = frozen_hdr_to_mosaic_frame(frame)
    v, gamma_used = None, None
    for stage in isp.stages:
        if stage == "demosaic":
            v = frozen_demosaic_bilinear(frame, dtype)
        elif stage == "color":
            matrix = fit_color_matrix(frame.sensor) if isp.matrix is None else isp.matrix
            v = frozen_color_correct(v, matrix)
        elif stage == "gamma":
            v, gamma_used = frozen_apply_gamma(v, isp.gamma)
        else:
            v = (frame.dn / frame.sensor.max_code()).astype(dtype)[:, :, None]
    return v, gamma_used


MATRIX = ((1.6, -0.4, -0.2), (-0.3, 1.5, -0.2), (0.05, -0.5, 1.45))
GAMMAS = [GammaSpec("adaptive", target=0.3), GammaSpec("fixed", gamma=0.45),
          GammaSpec("srgb")]
ISP_CONFIGS = ([IspConfig(stages=("demosaic",)), IspConfig(stages=("raw",))]
               + [IspConfig(stages=("demosaic", "color"), matrix=m) for m in (None, MATRIX)]
               + [IspConfig(stages=("demosaic", "color", "gamma"), gamma=g, matrix=m)
                  for g in GAMMAS for m in (None, MATRIX)]
               + [IspConfig(stages=(first, "gamma"), gamma=g)
                  for first in ("demosaic", "raw") for g in GAMMAS])


def isp_id(isp):
    gamma = f"-{isp.gamma.mode}" if "gamma" in isp.stages else ""
    matrix = ("-given" if isp.matrix else "-fitted") if "color" in isp.stages else ""
    return ",".join(isp.stages) + gamma + matrix


def oracle_frame(kind, cfa, shape, seed):
    sensor = SensorSpec(cfa=cfa)
    rng = np.random.default_rng(seed)
    if kind == "raw":
        return mosaic_frame(rng.integers(0, 1024, shape), sensor)
    rate = rng.lognormal(6.0, 1.5, shape)
    rate.flat[::7] = 0.0
    return hdr_frame(rate, sensor)


@pytest.mark.parametrize("cfa", [RGGB, MONO], ids=["RGGB", "MONO"])
@pytest.mark.parametrize("kind", ["raw", "hdr"])
@pytest.mark.parametrize("isp", ISP_CONFIGS, ids=isp_id)
def test_render_matches_the_frozen_whole_frame_chain(isp, kind, cfa, monkeypatch):
    # 2x2 in one band; 13 and 17 rows in bands of 2, 5 (rounded down to an
    # even 4) and 6 rows, which do not divide them; 17x10 in the default band
    cases = [((2, 2), None), ((13, 10), 2), ((13, 10), 5), ((13, 10), 6), ((17, 10), 6),
             ((17, 10), None)]
    for i, (shape, rows) in enumerate(cases):
        if rows is not None:
            monkeypatch.setattr(isp_module, "_BAND_BYTES", rows * 4 * shape[1] * 3)
        frame = oracle_frame(kind, cfa, shape, seed=i)
        want, want_gamma = frozen_render(frame, isp)
        got = render(frame, isp)
        assert got.values.shape == want.shape
        assert got.values.tobytes() == want.tobytes(), (shape, rows)
        assert got.gamma_used == want_gamma
        monkeypatch.undo()


EPS32 = float(np.finfo(np.float32).eps)  # one float32 ulp of 1.0


@pytest.mark.parametrize("cfa", [RGGB, MONO], ids=["RGGB", "MONO"])
@pytest.mark.parametrize("kind", ["raw", "hdr"])
@pytest.mark.parametrize("isp", ISP_CONFIGS, ids=isp_id)
def test_render_is_within_a_few_float32_ulps_of_the_float64_chain(isp, kind, cfa):
    """The stages before gamma stay within 4 ulps of 1.0 of the float64
    chain's values (absolute: the color stage's cancellation leaves no
    relative bound), and gamma within 4 float32 ulps, relative, of the
    float64 gamma of the same linear values with the same float32-rounded
    exponent. Gamma's slope near 0 magnifies any difference in its input
    without bound, so it is bounded on its own; the float32 exponent is
    checked by criterion 8."""
    frame = oracle_frame(kind, cfa, (37, 53), seed=5)
    linear_isp = IspConfig(stages=tuple(s for s in isp.stages if s != "gamma"),
                           matrix=isp.matrix)
    linear = render(frame, linear_isp).values
    want, _ = frozen_render(frame, linear_isp, np.float64)
    assert linear.dtype == np.float32
    assert np.abs(linear - want).max() <= 4 * EPS32
    if "gamma" in isp.stages:
        got = render(frame, isp)
        v = linear.astype(np.float64)
        if isp.gamma.mode == "srgb":
            want, _ = frozen_apply_gamma(v, isp.gamma)
        else:
            want = np.clip(np.power(v, float(np.float32(got.gamma_used))), 0.0, 1.0)
        assert np.all(np.abs(got.values - want) <= 4 * EPS32 * want)


def test_hdr_tone_map_keeps_no_negative_zero():
    # the frozen chain's uint16 codes have no sign; neither may the doubles
    rate = np.array([[-0.0, 5e-324], [-5e-324, 1e3]])
    assert not np.signbit(render(hdr_frame(rate), IspConfig(stages=("raw",))).values[..., 0]).any()


def test_two_threads_render_the_serial_bytes():
    frames = [oracle_frame("hdr", RGGB, (64, 48), seed=1),
              oracle_frame("raw", RGGB, (50, 70), seed=2)]
    isp = IspConfig(stages=("demosaic", "color", "gamma"), matrix=MATRIX)
    serial = [render(f, isp).values.tobytes() for f in frames]
    seen = [set(), set()]

    def work(i):
        for _ in range(20):
            seen[i].add(render(frames[i], isp).values.tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [{serial[0]}, {serial[1]}]


def test_render_warns_once_when_adaptive_gamma_is_undefined():
    frame = mosaic_frame(np.zeros((6, 8)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = render(frame, IspConfig(gamma=GammaSpec(mode="adaptive")))
    assert [w.category for w in caught] == [UserWarning]
    assert "adaptive gamma" in str(caught[0].message)
    assert out.gamma_used == 1.0


def full_dye_hdr_frame():
    rate = np.random.default_rng(3).lognormal(12.5, 1.0, (1440, 2560))
    rate[360:1080, 1280:2000] /= 100.0
    return hdr_frame(rate)


def traced_peak(fn) -> tuple:
    """(fn's result, the tracemalloc peak of the call above what was
    allocated before it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_render_of_a_full_dye_hdr_frame_adds_little_to_its_output():
    """The default render of every row of a 1440x2560 HDR frame peaks below
    the 42 MiB float32 RGB output plus 8 MiB: no whole-frame mosaic or
    other frame-sized temporary is built beside the output."""
    frame = full_dye_hdr_frame()
    out, peak = traced_peak(lambda: render(frame))
    assert peak < out.values.nbytes + 8 * 2**20, (peak, out.values.nbytes)


def test_render_of_one_window_of_a_full_dye_hdr_frame_peaks_below_a_quarter_frame():
    """The default render (adaptive gamma: one pass of every band up to the
    color stage for the mean) for one detector window's rows peaks below a
    quarter of the 42 MiB RGB frame it no longer builds."""
    frame = full_dye_hdr_frame()
    img, peak = traced_peak(lambda: render(frame, rows=range(700, 740)))
    frame_bytes = 1440 * 2560 * 3 * 4
    assert peak < frame_bytes / 4, (peak / frame_bytes)
    assert img.read_rows(700, 740).shape == (40, 2560, 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 12), st.sampled_from([1, 3]), st.integers(1, 9),
       st.sampled_from([1, 128, 200, 1000]), st.integers(0, 2**32 - 1), st.floats(0, 1))
@example(h=1, w=1, c=1, band=1, leaf=1, seed=0, clipped=0.0)
def test_streamed_mean_is_the_ndarray_mean(h, w, c, band, leaf, seed, clipped):
    """`_flat_mean` over an (H, W, C) float32 image's bands, each copied in
    turn into one reused buffer as `render` streams them, has the bits of
    `ndarray.mean`; band sizes (rounded to an even count of rows) need not
    divide the rows, and leaves below numpy's pairwise block of 128 are
    not split. A `clipped` share of the values is 0 or 1."""
    rng = np.random.default_rng(seed)
    v = rng.random((h, w, c), dtype=np.float32)
    v[rng.random(v.shape) < clipped] = rng.integers(0, 2)
    with mock.patch.object(isp_module, "_BAND_BYTES", band * 4 * w * c), \
            mock.patch.object(isp_module, "_SUM_LEAF", leaf):
        step = isp_module._band_rows(v.shape)
        buffer = np.empty((step, w, c), np.float32)

        def bands():
            for i0 in range(0, h, step):
                b = v[i0:i0 + step]
                buffer[:len(b)] = b
                yield buffer[:len(b)].reshape(-1)

        got = isp_module._flat_mean(bands(), v.size)
    want = v.mean()
    assert type(got) is type(want) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("shape", [(1440, 2560, 3), (360, 640, 3), (17, 10, 1)])
def test_streamed_mean_of_workload_sized_images(shape):
    v = np.random.default_rng(4).random(shape, dtype=np.float32)
    step = isp_module._band_rows(shape)
    got = isp_module._flat_mean((v[i:i + step].reshape(-1) for i in range(0, shape[0], step)),
                                v.size)
    assert got.tobytes() == v.mean().tobytes()


# reads of (first row, end row) of a 29-row image rendered for `DECLARED`
# in bands of 4 rows: bands 1, 2 and 5 (rows 4:12 and 20:24) are held
DECLARED = [5, 6, 9, 21, -3, 99]
HELD_READS = [(5, 7), (4, 12), (9, 11), (7, 9), (20, 24), (21, 22), (-9, -6), (6, 5),
              (11, 12), (5, 7)]
OTHER_READS = [(0, 29), (3, 4), (12, 13), (9, 19), (23, 25), (28, 40), (-5, 29)]


@pytest.mark.parametrize("cfa", [RGGB, MONO], ids=["RGGB", "MONO"])
@pytest.mark.parametrize("kind", ["raw", "hdr"])
@pytest.mark.parametrize("isp", ISP_CONFIGS, ids=isp_id)
def test_row_reads_equal_the_rows_of_the_whole_render(isp, kind, cfa, monkeypatch):
    """An image rendered for some rows reads, in any order, the rows of the
    bands that meet them, within a band or across two, with the bytes of a
    render of every row; a read that meets any other band raises, and so
    does `values`. Bands of 4 rows do not divide 29."""
    channels = 1 if isp.stages[0] == "raw" else 3
    monkeypatch.setattr(isp_module, "_BAND_BYTES", 4 * 4 * 11 * channels)
    frame = oracle_frame(kind, cfa, (29, 11), seed=7)
    whole = render(frame, isp)
    img = render(frame, isp, rows=DECLARED)
    assert img.gamma_used == whole.gamma_used and img.shape == whole.values.shape
    for r0, r1 in HELD_READS:
        got = img.read_rows(r0, r1)
        want = whole.values[r0:r1]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), (r0, r1)
    for r0, r1 in OTHER_READS:
        with pytest.raises(ValueError, match="not rendered for"):
            img.read_rows(r0, r1)
    with pytest.raises(ValueError, match="rows=None"):
        img.values


@pytest.mark.parametrize("mode", ["adaptive", "fixed"])
def test_render_renders_no_band_outside_the_rows_until_read(mode, monkeypatch):
    """Without adaptive gamma, the bands that meet no declared row are not
    rendered at all; with it, each is rendered once up to the color stage
    for the mean. Neither is gamma-corrected, and a read of one raises
    without rendering it."""
    monkeypatch.setattr(isp_module, "_BAND_BYTES", 4 * 4 * 11 * 3)
    frame = oracle_frame("hdr", RGGB, (29, 11), seed=8)
    linear, gamma = [], []
    pipeline_linear, gamma_band = isp_module._Pipeline.linear, isp_module._gamma_band
    monkeypatch.setattr(isp_module._Pipeline, "linear",
                        lambda self, i0, out: linear.append(i0) or pipeline_linear(self, i0, out))
    monkeypatch.setattr(isp_module, "_gamma_band",
                        lambda v, e, out: gamma.append(len(v)) or gamma_band(v, e, out))
    spec = GammaSpec("adaptive") if mode == "adaptive" else GammaSpec("fixed", gamma=0.45)
    img = render(frame, IspConfig(gamma=spec, matrix=MATRIX), rows=range(9, 12))
    assert linear == (list(range(0, 29, 4)) if mode == "adaptive" else [8])
    assert gamma == [4]  # band 2, rows 8:12
    rendered = list(linear)
    with pytest.raises(ValueError, match="rows 13:19 meet rows 12:16"):
        img.read_rows(13, 19)
    assert linear == rendered and gamma == [4]


@pytest.mark.parametrize("kind", ["raw", "hdr"])
def test_a_row_limited_image_does_not_keep_its_frame_alive(kind):
    """An image rendered for some rows holds its bands and nothing of its
    frame: once the caller drops the frame, the frame's raster (a
    RawFrame's dn, an HDRFrame's rate) is freed while the image lives."""
    frame = oracle_frame(kind, RGGB, (29, 11), seed=10)
    raster = weakref.ref(frame.dn if kind == "raw" else frame.rate_e_per_s)
    img = render(frame, IspConfig(), rows=range(9, 12))
    del frame
    gc.collect()
    assert raster() is None
    assert img.read_rows(9, 12).shape == (3, 11, 3)
