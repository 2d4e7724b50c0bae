"""Acceptance gate: fourteen end-to-end checks, one printed pass/fail line
each. Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

from camsim import evalmetrics as ev
from camsim.annotation import LabelPolicy, apply_policy, project_truth, scene_truth
from camsim.cli import main as cli_main
from camsim.detector import ProxyDetectorConfig, detectability, proxy_detect
from camsim.exposure import (DEFAULT_BRACKET_S, DEFAULT_CAP_S, ExposurePlan, acquire,
                             effective_dynamic_range, hdr_combine, metered_duration,
                             metering_window)
from camsim.isp import GammaSpec, IspConfig, render
from camsim.optics import LensSpec, optical_image, psf_blur, psf_sigma
from camsim.scene import (Region, SceneSpec, TargetSpec, edge_case_scene,
                          synthesize)
from camsim.sensor import (RawFrame, SensorSpec, derive_geometry, dynamic_range_db,
                           expected_rate)
from camsim.spectral import WavelengthGrid
from frames import noise_free

GRID11 = WavelengthGrid(400.0, 30.0, 11)
LENS = LensSpec()


def report(num, name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:2d} ({name}): {detail}"
    print(line)
    assert ok, line


def test_criterion_01_geometry_sweep():
    s = SensorSpec()
    got = {p: derive_geometry(p, s) for p in (1.5, 3.0, 6.0)}
    ok = (got[1.5] == (1440, 2560) and got[3.0] == (720, 1280)
          and got[6.0] == (360, 640))
    report(1, "geometry sweep", ok,
           f"{ {k: (v[1], v[0]) for k, v in got.items()} }")


def test_criterion_02_dynamic_range():
    dr = dynamic_range_db(SensorSpec())
    report(2, "dynamic range", abs(dr - 55.0) <= 0.1, f"{dr:.4f} dB")


def test_criterion_03_sensor_linearity():
    sc = synthesize(SceneSpec(width=64, height=64, grid=GRID11, seed=0))
    sensor = SensorSpec(dye_width_mm=0.192, dye_height_mm=0.192)
    durations = np.geomspace(12e-6, 12e-3, 10)
    means = []
    with pytest.warns(UserWarning):
        rate = expected_rate(optical_image(sc, LENS, sensor), sensor)
    for t in durations:
        frame = noise_free(rate, sensor, float(t))
        means.append(frame.dn.mean())
        assert not frame.saturated.any()
    means = np.array(means)
    slope, intercept = np.polyfit(durations, means, 1)
    fitted = slope * durations + intercept
    ss_res = float(((means - fitted) ** 2).sum())
    ss_tot = float(((means - means.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot
    report(3, "sensor linearity", r2 > 0.999, f"R^2 = {r2:.6f}")


def test_criterion_04_poisson_validity():
    from camsim.kernels import sample_sensor_noise
    lam = np.full((256, 256), 1000.0)
    e = sample_sensor_noise(lam, 0.0, 1e9, seed=42)
    ratio = float(e.var() / e.mean())
    report(4, "poisson validity", 0.97 <= ratio <= 1.03,
           f"variance/mean = {ratio:.4f}")


def test_criterion_05_psf():
    pitch = 0.375
    labels = np.zeros((129, 129), dtype=np.uint32)
    labels[64, 64] = 1  # the one lit cell
    out = psf_blur(np.array([[0.0], [1.0]]), labels,
                   psf_sigma(pitch, LensSpec(psf_fwhm_um=1.5)))[:, :, 0]
    profile = out[64, :]
    half = profile.max() / 2.0
    above = np.nonzero(profile >= half)[0]
    lo, hi = above[0], above[-1]
    f_lo = lo - (profile[lo] - half) / (profile[lo] - profile[lo - 1])
    f_hi = hi + (profile[hi] - half) / (profile[hi] - profile[hi + 1])
    fwhm = (f_hi - f_lo) * pitch
    flux_err = abs(out.sum() - 1.0)
    ok = abs(fwhm - 1.5) / 1.5 < 0.05 and flux_err < 1e-6
    report(5, "psf", ok, f"FWHM = {fwhm:.4f} µm, flux error = {flux_err:.2e}")


def test_criterion_06_hdr_combine():
    sc = synthesize(SceneSpec(
        width=64, height=64, grid=GRID11, seed=0,
        speculars=(Region((0, 0, 16, 16), 500.0),),
        shadows=(Region((48, 48, 64, 64), 0.02),)))  # 2.5e4 intra-scene range
    sensor = SensorSpec(dye_width_mm=0.192, dye_height_mm=0.192)
    with pytest.warns(UserWarning):
        true_rate = expected_rate(optical_image(sc, LENS, sensor), sensor)
    hdr = hdr_combine([noise_free(true_rate, sensor, t) for t in DEFAULT_BRACKET_S])
    step_e = sensor.effective_well_e() / sensor.max_code()
    bound = step_e / np.array(DEFAULT_BRACKET_S)[hdr.chosen] + 1e-9
    err = np.abs(hdr.rate_e_per_s - true_rate)
    within = bool(np.all(err[hdr.valid] <= bound[hdr.valid]))
    ext = effective_dynamic_range(55.0, DEFAULT_BRACKET_S) - 55.0
    ok = within and abs(ext - 60.0) < 1e-9 and hdr.valid.all()
    report(6, "hdr combine", ok,
           f"max rate error/bound = {(err / bound).max():.3f}, "
           f"extension = {ext:.1f} dB")


def test_criterion_07_auto_exposure_cap():
    base = synthesize(SceneSpec(width=64, height=64, grid=GRID11, seed=0,
                                background_luminance_cd_m2=2000.0))
    sensor = SensorSpec(dye_width_mm=0.192, dye_height_mm=0.192)
    plan = ExposurePlan("center_weighted")
    with pytest.warns(UserWarning):
        dark = expected_rate(optical_image(base.scaled(0.01), LENS, sensor), sensor)
        rate = expected_rate(optical_image(base.scaled(100.0), LENS, sensor), sensor)
    t_dark = metered_duration(dark, sensor, plan)
    t_bright = metered_duration(rate, sensor, plan)
    y0, x0, y1, x1 = metering_window(*rate.shape, plan.window_fraction)
    frac = rate[y0:y1, x0:x1].max() * t_bright / sensor.effective_well_e()
    ok = t_dark == DEFAULT_CAP_S and t_bright < 0.5e-3 and abs(frac - 0.9) <= 0.01
    report(7, "auto-exposure cap", ok,
           f"dark = {t_dark * 1e3:.1f} ms, bright = {t_bright * 1e6:.1f} µs, "
           f"window peak at {frac * 100:.2f}% of well")


def test_criterion_08_adaptive_gamma():
    sc = synthesize(SceneSpec(width=64, height=64, grid=GRID11, seed=3,
                              targets=(TargetSpec("car", 20.0, (0.06, 0.05),
                                                  reflectance=0.1),)))
    sensor = SensorSpec(dye_width_mm=0.192, dye_height_mm=0.192)
    with pytest.warns(UserWarning):
        frame = acquire(optical_image(sc, LENS, sensor), sensor,
                        ExposurePlan("fixed", t_s=5e-3), seed=1).source
    linear = render(frame, IspConfig(stages=("demosaic", "color")))
    out = render(frame, IspConfig(gamma=GammaSpec(mode="adaptive", target=0.2)))
    m = float(linear.values.mean())
    adaptive_err = abs(m ** out.gamma_used - 0.2)
    fixed = render(frame, IspConfig(gamma=GammaSpec(mode="fixed", gamma=0.1)))
    fixed_err = float(np.abs(fixed.values - np.power(linear.values, 0.1)).max())
    ok = 0 < m < 1 and adaptive_err <= 1e-9 and fixed_err <= 1e-12
    report(8, "adaptive gamma", ok,
           f"mean^gamma error = {adaptive_err:.1e}, fixed error = {fixed_err:.1e}")


def test_criterion_09_demosaic():
    sensor = SensorSpec()
    flat = RawFrame(np.full((8, 8), 600, dtype=np.uint16),
                    np.zeros((8, 8), bool), 1e-3, sensor)
    demosaic = IspConfig(stages=("demosaic",))
    interior = render(flat, demosaic).values[1:-1, 1:-1]
    flat_ok = np.allclose(interior, 600.0 / 1023.0, atol=1e-12)
    red = RawFrame(np.array([[1023, 0, 1023], [0, 0, 0], [1023, 0, 1023]],
                            dtype=np.uint16),
                   np.zeros((3, 3), bool), 1e-3, sensor)
    rgb = render(red, demosaic).values
    red_ok = (np.allclose(rgb[:, :, 0], 1.0, atol=1e-12)
              and np.allclose(rgb[:, :, 1:], 0.0, atol=1e-12))
    report(9, "demosaic", flat_ok and red_ok,
           f"constant-field exact: {flat_ok}, red fixture exact: {red_ok}")


def test_criterion_10_ap_oracle():
    from test_eval import brute_force_ap, random_instance
    rng = random.Random(20240901)
    mismatches = 0
    for _ in range(1000):
        dets, gts = random_instance(rng)
        if ev.average_precision(dets, gts) != brute_force_ap(dets, gts):
            mismatches += 1
    report(10, "ap oracle equivalence", mismatches == 0,
           f"{mismatches} mismatches in 1000 random instances")


def test_criterion_11_od50():
    r = ev.od50((ev.APBin(40.0, 50.0, 0.6, 5), ev.APBin(50.0, 60.0, 0.4, 5)))
    fixture_ok = r == pytest.approx(50.0, abs=1e-12)
    rng = random.Random(7)
    monotone_ok = True
    for _ in range(100):
        aps = [rng.random() for _ in range(rng.randint(2, 12))]
        i = rng.randrange(len(aps))
        raised = list(aps)
        raised[i] = min(1.0, raised[i] + rng.random())
        def val(vals):
            return ev.od50(tuple(ev.APBin(k * 10.0, (k + 1) * 10.0, a, 5)
                                 for k, a in enumerate(vals)))
        if val(raised) < val(aps) - 1e-12:
            monotone_ok = False
    report(11, "od50", fixture_ok and monotone_ok,
           f"fixture -> {r:.1f} m, monotone on 100 random curves: "
           f"{monotone_ok}")


def test_criterion_12_end_to_end_pixel_sweep():
    """Distance sweep at three pixel sizes; smaller pixels must see farther."""
    dists = list(range(15, 150, 10))
    spec0 = SceneSpec(
        width=1280, height=720, grid_pitch_um=0.75,
        grid=WavelengthGrid(400.0, 75.0, 5),
        background_luminance_cd_m2=500.0,
        targets=tuple(TargetSpec("car", float(d), (0.4, 0.35), reflectance=0.2)
                      for d in dists))
    policy = LabelPolicy(min_box_w=1, min_box_h=1, apply_visibility=False)
    sizes = (1.5, 3.0, 6.0)
    base = SensorSpec(dye_width_mm=0.96, dye_height_mm=0.54)
    sensors = {p: base.with_pixel_size(p) for p in sizes}
    pools = {p: ([], []) for p in sizes}  # gts, dets
    for seed in range(20):
        sc = synthesize(replace(spec0, seed=100 + seed))
        image = optical_image(sc, LENS, base)  # one projection serves every size
        for p in sizes:
            acq = acquire(image, sensors[p], ExposurePlan("fixed", t_s=12e-3),
                          seed=7000 + seed)
            img = render(acq.source)
            boxes = apply_policy(project_truth(scene_truth(sc), acq.geometry), policy)
            sid = f"s{seed}"
            gts, dets = pools[p]
            gts.extend(ev.as_gt(sid, b) for b in boxes)
            dets.extend(proxy_detect(img, boxes, ProxyDetectorConfig(seed=seed),
                                     image_id=sid))
    od = {}
    curves_ok = True
    for p in sizes:
        gts, dets = pools[p]
        curve = ev.ap_vs_distance(dets, gts, max_distance_m=150.0)
        aps = [b.ap for b in curve if b.ap is not None]
        violations = sum(1 for a, b in zip(aps, aps[1:]) if b > a + 1e-9)
        curves_ok &= violations <= 1
        od[p] = ev.od50(curve)
    order_ok = od[1.5] >= od[3.0] >= od[6.0]
    report(12, "end-to-end pixel sweep", curves_ok and order_ok,
           f"OD50 = {od[1.5]:.1f} / {od[3.0]:.1f} / {od[6.0]:.1f} m "
           f"for 1.5 / 3 / 6 µm")


def test_criterion_13_edge_case():
    seed = 2  # fixed acceptance seed
    sc = edge_case_scene()
    sensor = SensorSpec()
    image = optical_image(sc, LENS, sensor)
    results = {}
    for name in ("center_weighted", "bracketed"):
        acq = acquire(image, sensor, ExposurePlan(name), seed)
        img = render(acq.source)
        boxes = apply_policy(project_truth(scene_truth(sc), acq.geometry), LabelPolicy())
        shadow = next(b for b in boxes if b.instance_id == 2)
        cfg = ProxyDetectorConfig(seed=seed)
        dets = proxy_detect(img, boxes, cfg, image_id=name)
        hit = any(ev.iou(d, shadow) >= 0.5 for d in dets)
        dprime = detectability(img.values, shadow, cfg.min_pixels, cfg.snr_scale)
        results[name] = (dprime, hit)
    d_cw, hit_cw = results["center_weighted"]
    d_br, hit_br = results["bracketed"]
    ok = d_br > 2.0 * d_cw and hit_br and not hit_cw
    report(13, "edge case", ok,
           f"shadow d' bracketed/center-weighted = {d_br:.2f}/{d_cw:.2f} "
           f"(x{d_br / max(d_cw, 1e-9):.1f}), detected: {hit_br}/{hit_cw}")


def test_criterion_14_determinism(tmp_path, monkeypatch):
    cfg = {
        "scenes": {"source": "synth", "count": 4, "spec": {
            "width": 128, "height": 128, "grid_pitch_um": 3.0,
            "grid": {"start_nm": 400.0, "step_nm": 30.0, "count": 11},
            "background_luminance_cd_m2": 500.0,
            "targets": [{"class": "car", "distance_m": 20,
                         "size_m": [0.06, 0.05], "reflectance": 0.2}],
        }},
        "sensor": {"dye_width_mm": 0.384, "dye_height_mm": 0.384},
        "exposure": {"mode": "bracketed"},
        "policy": {"min_box_w": 1, "min_box_h": 1},
        "output_dir": str(tmp_path / "out"),
        "seed": 9,
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for threads in ("1", "8", "1", "8"):
        monkeypatch.setenv("CAMSIM_THREADS", threads)
        assert cli_main(["run", str(path)]) == 0
        blobs.append((tmp_path / "out" / "metrics.csv").read_bytes())
    ok = all(b == blobs[0] for b in blobs)
    report(14, "determinism", ok,
           f"metric CSVs byte-identical across 4 runs at 1 and 8 threads: {ok}")
