import tracemalloc

import numpy as np
import pytest

from camsim import kernels
from camsim.exposure import (DEFAULT_BRACKET_S, DEFAULT_CAP_S, ExposurePlan, _bracket_seed,
                             acquire, effective_dynamic_range, hdr_combine, metered_duration,
                             metering_window)
from camsim.optics import LensSpec, OpticalImage, optical_image
from camsim.scene import Region, SceneSpec, synthesize
from camsim.sensor import PixelSpec, SensorSpec, dn_to_electrons, expected_rate
from camsim.spectral import WavelengthGrid
from frames import brackets, noise_free

GRID = WavelengthGrid(400.0, 30.0, 11)
LENS = LensSpec()
SENSOR = SensorSpec(dye_width_mm=0.192, dye_height_mm=0.192)  # 64x64 @ 3 µm


def scene(**kw):
    base = dict(width=64, height=64, grid=GRID, seed=0)
    base.update(kw)
    return synthesize(SceneSpec(**base))


def rate(sc, sensor=SENSOR):
    """The scene's expected electrons/s per sensor pixel, as `acquire` samples it."""
    return expected_rate(optical_image(sc, LENS, sensor), sensor)


def noise_free_brackets(sc):
    r = rate(sc)
    return [noise_free(r, SENSOR, t) for t in DEFAULT_BRACKET_S]


def test_plan_validation():
    with pytest.raises(ValueError, match="mode"):
        ExposurePlan("manual")
    with pytest.raises(ValueError, match="decreasing"):
        ExposurePlan("bracketed", durations_s=(1e-3, 2e-3))
    with pytest.raises(ValueError):
        ExposurePlan("fixed", t_s=1.0)  # above the cap


def test_default_bracket_and_cap():
    assert DEFAULT_BRACKET_S == (12e-3, 0.12e-3, 12e-6)
    assert DEFAULT_CAP_S == 16e-3


def test_metering_window_area_fraction():
    y0, x0, y1, x1 = metering_window(100, 200, 0.01)
    assert (y1 - y0) * (x1 - x0) == pytest.approx(0.01 * 100 * 200, rel=0.1)
    # centered
    assert abs((y0 + y1) / 2 - 50) <= 1
    assert abs((x0 + x1) / 2 - 100) <= 1


def test_center_weighted_targets_90_percent_of_well():
    sc = scene(background_luminance_cd_m2=2000.0)
    plan = ExposurePlan("center_weighted")
    r = rate(sc)
    t = metered_duration(r, SENSOR, plan)
    assert 0 < t < DEFAULT_CAP_S
    y0, x0, y1, x1 = metering_window(*r.shape, plan.window_fraction)
    peak = r[y0:y1, x0:x1].max() * t
    assert peak == pytest.approx(0.9 * SENSOR.effective_well_e(), rel=1e-9)


def test_center_weighted_cap_on_dark_scene():
    sc = scene().scaled(1e-4)
    t = metered_duration(rate(sc), SENSOR, ExposurePlan("center_weighted"))
    assert t == DEFAULT_CAP_S


def test_center_weighted_meters_the_center_not_the_edges():
    # a bright patch in the center must shorten the exposure; the same patch
    # in a corner must not
    bright_center = scene(background_luminance_cd_m2=2000.0,
                          speculars=(Region((28, 28, 36, 36), 100.0),))
    bright_corner = scene(background_luminance_cd_m2=2000.0,
                          speculars=(Region((0, 0, 8, 8), 100.0),))
    plain = scene(background_luminance_cd_m2=2000.0)
    plan = ExposurePlan("center_weighted")
    t_center = metered_duration(rate(bright_center), SENSOR, plan)
    t_corner = metered_duration(rate(bright_corner), SENSOR, plan)
    t_plain = metered_duration(rate(plain), SENSOR, plan)
    assert t_center < t_plain / 50
    assert t_corner == pytest.approx(t_plain, rel=1e-12)


def test_p99_statistic_ignores_a_single_hot_pixel():
    plan_max = ExposurePlan("center_weighted", statistic="max")
    plan_p99 = ExposurePlan("center_weighted", statistic="p99")
    big = SensorSpec(dye_width_mm=0.768, dye_height_mm=0.768)  # 25x25 window
    sc = synthesize(SceneSpec(width=256, height=256, grid=GRID, seed=0,
                              background_luminance_cd_m2=2000.0,
                              speculars=(Region((128, 128, 129, 129), 1000.0),)))
    r = rate(sc, big)
    t_max = metered_duration(r, big, plan_max)
    t_p99 = metered_duration(r, big, plan_p99)
    assert t_p99 > 10 * t_max


def test_bracketed_capture_seeds_differ_per_frame():
    sc = scene()
    frames = brackets(rate(sc), SENSOR, (1e-3, 1e-4), seed=5)
    assert frames[0].exposure_s == 1e-3
    assert _bracket_seed(5, 0) != _bracket_seed(5, 1)
    # the seeds reach the noise: two brackets of one duration differ
    same = brackets(rate(sc), SENSOR, (1e-3, 1e-3), seed=5)
    assert not np.array_equal(same[0].dn, same[1].dn)


def test_hdr_combine_prefers_longest_unsaturated():
    sc = scene(speculars=(Region((0, 0, 16, 16), 1000.0),))
    frames = noise_free_brackets(sc)
    hdr = hdr_combine(frames)
    assert hdr.valid.all()
    assert hdr.chosen[40, 40] == 0          # dim background: longest frame
    assert hdr.chosen[4, 4] > 0             # hot patch: a shorter frame


def test_hdr_combine_noise_free_quantization_bound():
    sc = scene(speculars=(Region((0, 0, 16, 16), 500.0),),
               shadows=(Region((48, 48, 64, 64), 0.01),))
    true_rate = rate(sc)
    hdr = hdr_combine([noise_free(true_rate, SENSOR, t) for t in DEFAULT_BRACKET_S])
    step_e = SENSOR.effective_well_e() / SENSOR.max_code()
    t_chosen = np.array(DEFAULT_BRACKET_S)[hdr.chosen]
    bound = step_e / t_chosen + 1e-9
    ok = hdr.valid
    assert np.all(np.abs(hdr.rate_e_per_s - true_rate)[ok] <= bound[ok])


def test_hdr_combine_flags_fully_saturated_pixels():
    sc = scene(speculars=(Region((0, 0, 8, 8), 1e9),))
    frames = noise_free_brackets(sc)
    hdr = hdr_combine(frames)
    assert not hdr.valid[2, 2]
    assert hdr.valid[40, 40]


@pytest.mark.parametrize("chunk", [7, None], ids=["chunk-7", "chunk-default"])
def test_fused_rate_is_dn_to_electrons_over_the_chosen_duration(monkeypatch, chunk):
    """The fusion reads each code's rate from a table, a chunk of codes at a
    time; the rate it keeps is dn_to_electrons of the chosen bracket's
    frame divided by its duration, byte for byte."""
    if chunk is not None:
        monkeypatch.setattr(kernels, "_CHUNK", chunk)
    rng = np.random.default_rng(4)
    raster = rng.uniform(1e3, 3e6, (96, 700 if chunk is None else 9))  # > one chunk
    raster[rng.random(raster.shape) < 0.1] = 5e8  # saturates the two longer brackets
    frames = brackets(raster, SENSOR, DEFAULT_BRACKET_S, seed=2)
    hdr = hdr_combine(frames)
    want = np.choose(hdr.chosen, [dn_to_electrons(f) / f.exposure_s for f in frames])
    assert set(np.unique(hdr.chosen)) == {0, 1, 2}
    assert hdr.rate_e_per_s.tobytes() == want.tobytes()


def test_hdr_combine_validates_input():
    sc = scene()
    frames = brackets(rate(sc), SENSOR, (1e-3, 1e-4), seed=0)
    with pytest.raises(ValueError, match="decreasing"):
        hdr_combine(frames[::-1])
    with pytest.raises(ValueError, match="no frames"):
        hdr_combine([])


def test_lazy_brackets_equal_full_brackets_fused(monkeypatch):
    """acquire samples bracket i only where brackets 0..i-1 saturated, and
    its HDR frame equals hdr_combine of the full brackets, field by field."""
    sensor = SensorSpec(dye_width_mm=0.96, dye_height_mm=0.96)  # 320x320: > one chunk
    sc = synthesize(SceneSpec(width=320, height=320, grid=GRID, seed=3, speculars=(
        Region((0, 0, 40, 40), 300.0),           # bracket 1
        Region((100, 100, 140, 140), 3e3),       # bracket 2
        Region((200, 200, 220, 230), 1e9))))     # saturated in every bracket
    assert 320 * 320 > kernels._CHUNK
    sampled = []
    stream = kernels.stream_noise

    def counting(size, *args, **kwargs):
        sampled.append(size)
        return stream(size, *args, **kwargs)

    monkeypatch.setattr(kernels, "stream_noise", counting)
    image = optical_image(sc, LENS, sensor)
    hdr = acquire(image, sensor, ExposurePlan("bracketed"), seed=11).source
    lazy_sampled = sum(sampled)
    full = hdr_combine(brackets(expected_rate(image, sensor), sensor, DEFAULT_BRACKET_S,
                                seed=11))

    for name in ("rate_e_per_s", "valid", "chosen"):
        got, want = getattr(hdr, name), getattr(full, name)
        assert got.shape == want.shape and got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert hdr.durations_s == full.durations_s
    assert np.count_nonzero((hdr.chosen == 1) & hdr.valid) == 1600
    assert np.count_nonzero((hdr.chosen == 2) & hdr.valid) == 1600
    assert np.count_nonzero(~hdr.valid) == 600
    # bracket 0 everywhere, bracket 1 where 0 saturated, bracket 2 where both did
    assert lazy_sampled == hdr.chosen.size + np.count_nonzero(hdr.chosen >= 1) \
        + np.count_nonzero(hdr.chosen == 2)


def test_bracketed_acquire_on_a_full_dye_raster_peaks_below_two_frames():
    """`acquire` of the three default brackets on 1440x2560 1.5 µm pixels
    peaks below two float64 frames, all it allocates included: the rate
    raster, the streamed exposure of each bracket and the fusion, whose
    rate raster is allocated after the expected-rate raster is freed.
    The raster is lit as the full-dye benchmark scene is: a shadowed block
    on the Knuth noise path, a patch that saturates the longest bracket and
    a specular one that saturates the two longer brackets."""
    sensor = SensorSpec(pixel=PixelSpec(size_um=1.5))
    area = (1.5e-6) ** 2
    labels = np.zeros((1440, 2560), dtype=np.uint32)
    labels[400:1200, 1600:2400] = 1
    labels[640:800, 1200:1360] = 2
    labels[100:200, 100:300] = 3
    # background, shadow, specular and bright: 1e5, 300, 5e7 and 1e6 e-/s per pixel
    palette = np.repeat(np.array([[1e5], [300.0], [5e7], [1e6]]) / area, 3, axis=1)
    image = OpticalImage(labels.shape, sensor.cfa.channels, 1.5, palette=palette,
                         labels=labels)
    frame_bytes = labels.size * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hdr = acquire(image, sensor, ExposurePlan("bracketed"), seed=5).source
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert hdr.rate_e_per_s.shape == (1440, 2560) and set(np.unique(hdr.chosen)) == {0, 1, 2}
    assert peak < 2 * frame_bytes, (peak / frame_bytes)


def test_effective_dynamic_range_extension():
    # 12 ms / 12 µs = 1000x -> +60 dB over the sensor's own range
    assert effective_dynamic_range(55.0, DEFAULT_BRACKET_S) == pytest.approx(115.0)
    assert effective_dynamic_range(55.0, (1e-3,)) == pytest.approx(55.0)
