import json
import os
from pathlib import Path

import numpy as np
import pytest

from camsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, RunConfig, main
from camsim.scene import load_scene, project_extent_px, scene_statistics

SCENE_SPEC = {
    "width": 128, "height": 128, "grid_pitch_um": 3.0,
    "grid": {"start_nm": 400.0, "step_nm": 30.0, "count": 11},
    "background_luminance_cd_m2": 500.0,
    "targets": [
        {"class": "car", "distance_m": 20, "size_m": [0.06, 0.05],
         "reflectance": 0.2},
    ],
}
SYNTH_SPEC = {**SCENE_SPEC, "seed": 4}  # a run config seeds each scene itself


def run_config(tmp_path, **overrides):
    cfg = {
        "scenes": {"source": "synth", "spec": SCENE_SPEC, "count": 2},
        "sensor": {"dye_width_mm": 0.384, "dye_height_mm": 0.384},
        "exposure": {"mode": "bracketed"},
        "policy": {"min_box_w": 1, "min_box_h": 1},
        "output_dir": str(tmp_path / "out"),
        "seed": 9,
    }
    cfg.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_command_outputs(tmp_path):
    rc = main(["run", str(run_config(tmp_path))])
    assert rc == EXIT_OK
    out = tmp_path / "out"
    for name in ("metrics.csv", "summary.json", "detections.json",
                 "dataset.json", "exposures.json"):
        assert (out / name).is_file(), name
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_ground_truth"] == 2
    dataset = json.loads((out / "dataset.json").read_text())
    assert len(dataset["images"]) == 2


def test_run_missing_config_is_config_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG


def test_run_invalid_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == EXIT_CONFIG


def test_run_bad_field_is_config_error(tmp_path):
    path = run_config(tmp_path, exposure={"mode": "telepathic"})
    assert main(["run", str(path)]) == EXIT_CONFIG


def test_run_unknown_sensor_key_is_config_error(tmp_path):
    path = run_config(tmp_path, sensor={"dye_w_mm": 1.0})
    assert main(["run", str(path)]) == EXIT_CONFIG


def test_run_unknown_detector_key_is_config_error(tmp_path):
    path = run_config(tmp_path, detector={"snr_scale": 1.0, "min_pixels": 150})
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "out").exists()


def scenes(**spec):
    return {"source": "synth", "spec": {**SCENE_SPEC, **spec}}


@pytest.mark.parametrize("overrides, dotted", [
    ({"lense": {"f_number": 99}}, "lense"),
    ({"lens": {"fnumber": 99}}, "lens.fnumber"),
    ({"exposure": {"mode": "fixed", "t_sec": 0.01}}, "exposure.t_sec"),
    ({"policy": {"min_box_width": 1}}, "policy.min_box_width"),
    ({"sensor": {"dye_width_mm": 0.384, "dye_height_mm": 0.384,
                 "pixel": {"sizeum": 6.0}}}, "sensor.pixel.sizeum"),
    ({"detector": {"proxy": {"min_pixel": 1e9}}}, "detector.proxy.min_pixel"),
    ({"scenes": {**scenes(), "cuont": 2}}, "scenes.cuont"),
    ({"scenes": scenes(widht=64)}, "scenes.spec.widht"),
    ({"scenes": scenes(grid={**SCENE_SPEC["grid"], "cnt": 5})}, "scenes.spec.grid.cnt"),
    ({"scenes": scenes(targets=[{**SCENE_SPEC["targets"][0], "reflectence": 0.9}])},
     "scenes.spec.targets[0].reflectence"),
    ({"scenes": scenes(shadows=[{"rect": [0, 0, 8, 8], "attenuaton": 0.5}])},
     "scenes.spec.shadows[0].attenuaton"),
    ({"scenes": scenes(seed=4)}, "scenes.spec.seed"),  # the runner seeds every scene
    # the lens's focal length lays out every synth scene
    ({"scenes": scenes(focal_length_mm=12.0)}, "scenes.spec.focal_length_mm"),
    # keys the scene source does not read
    ({"scenes": {**scenes(), "path": "/nonexistent"}}, "scenes.path"),
    ({"scenes": {"source": "dir", "path": ".", "count": 5}}, "scenes.count"),
    ({"scenes": {"source": "dir", "path": ".", "spec": SCENE_SPEC}}, "scenes.spec"),
    ({"isp": {"stagez": ["raw"]}}, "isp.stagez"),
    ({"isp": {"gamma": {"gama": 0.5}}}, "isp.gamma.gama"),
    ({"exposure": {"t_s": 0.002}}, "exposure.mode"),  # a given section names its mode
    # bad values are rejected at load too, naming their section
    ({"isp": {"gamma": {"mode": "bogus"}}}, "isp.gamma: "),
    ({"isp": {"stages": ["sharpen"]}}, "isp: "),
    ({"scenes": {**scenes(), "count": "two"}}, "scenes: "),
    ({"sensor": {"dye_width_mm": 0.384, "dye_height_mm": 0.384, "cfa": "XYZ"}}, "sensor.cfa: "),
    ({"lens": {"transmission": {"start_nm": 400.0, "step_nm": 30.0, "count": 11,
                                "values": [0.9] * 11}}}, "lens.transmission.unit"),
    ({"target_lux": -5}, "target_lux"),
    ({"target_lux": 0}, "target_lux"),
    ({"target_lux": "abc"}, "target_lux"),
    # exposure and ISP values the pipeline cannot honour
    ({"exposure": {"mode": "center_weighted", "statistic": "bogus"}}, "exposure: statistic"),
    ({"exposure": {"mode": "center_weighted", "window_fraction": 0}},
     "exposure: window_fraction"),
    ({"exposure": {"mode": "center_weighted", "window_fraction": 5}},
     "exposure: window_fraction"),
    ({"exposure": {"mode": "center_weighted", "target_fraction": -1}},
     "exposure: target_fraction"),
    ({"isp": {"stages": ["demosaic", "gamma", "color"]}}, "isp: stages"),
    ({"isp": {"stages": ["raw", "color"]}}, "isp: stages"),
    ({"isp": {"stages": ["raw", "demosaic"]}}, "isp: stages"),
    # scalars of the wrong JSON type
    ({"seed": "abc"}, "config: seed"),
    ({"policy": {"min_box_w": "a"}}, "policy: min_box_w"),
    ({"lens": {"cos4_falloff": "yes"}}, "lens: cos4_falloff"),
    ({"save_images": "no"}, "config: save_images"),
    # a synth grid the sensor's pixels cannot sample
    ({"scenes": scenes(grid_pitch_um=1.5),
      "sensor": {"dye_width_mm": 0.384, "dye_height_mm": 0.384, "pixel": {"size_um": 2.0}}},
     "scenes.spec"),
], ids=["top", "lens", "exposure", "policy", "sensor.pixel", "detector.proxy",
        "scenes", "scenes.spec", "scenes.spec.grid", "scenes.spec.targets",
        "scenes.spec.shadows", "scenes.spec.seed", "scenes.spec.focal_length_mm",
        "scenes.path=synth", "scenes.count=dir",
        "scenes.spec=dir", "isp", "isp.gamma", "exposure.mode",
        "isp.gamma.mode=bogus", "isp.stages=sharpen", "scenes.count=two", "sensor.cfa=XYZ",
        "spectrum-without-unit", "target_lux=-5", "target_lux=0", "target_lux=abc",
        "exposure.statistic=bogus", "exposure.window_fraction=0",
        "exposure.window_fraction=5", "exposure.target_fraction=-1",
        "isp.stages=demosaic,gamma,color", "isp.stages=raw,color", "isp.stages=raw,demosaic",
        "seed=abc", "policy.min_box_w=a", "lens.cos4_falloff=yes", "save_images=no",
        "scenes.spec.grid_pitch_um=1.5"])
def test_run_unknown_key_names_dotted_path(tmp_path, capsys, overrides, dotted):
    path = run_config(tmp_path, **overrides)
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert dotted in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectrum_objects_are_honoured(tmp_path):
    """A flat transmission and reflectance given as spectrum objects run
    exactly as the same scalars do."""
    def flat(v):
        return {**SCENE_SPEC["grid"], "unit": "dimensionless", "values": [v] * 11}

    car = SCENE_SPEC["targets"][0]
    outs = []
    for name, t, refl in (("scalar", 0.9, 0.2), ("spectrum", flat(0.9), flat(0.2))):
        out = tmp_path / name
        path = run_config(tmp_path, scenes={**scenes(targets=[{**car, "reflectance": refl}]),
                                            "count": 1},
                          lens={"transmission": t}, output_dir=str(out))
        assert main(["run", str(path)]) == EXIT_OK
        outs.append(out)
    for name in RUN_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_documented_and_benchmark_configs_parse(tmp_path, monkeypatch):
    """The README's run config and every perfbench workload's config load."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text().split("### Run config", 1)[1]
    configs = [json.loads(readme.split("```json", 1)[1].split("```", 1)[0])]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from workloads import WORKLOADS

    configs += [w.config(0, str(tmp_path)) for w in WORKLOADS.values()]
    for cfg in configs:
        RunConfig.from_dict(cfg)


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
@pytest.mark.parametrize("argv", [["run"], ["sweep-pixel", "--sizes", "3", "6"]],
                         ids=["run", "sweep-pixel"])
def test_bad_thread_count_is_config_error(tmp_path, monkeypatch, capsys, value, argv):
    monkeypatch.setenv("CAMSIM_THREADS", value)
    assert main([argv[0], str(run_config(tmp_path)), *argv[1:]]) == EXIT_CONFIG
    assert "CAMSIM_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_malformed_spec_is_config_error(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{bad")
    assert main(["synth", str(spec), str(tmp_path / "scenes")]) == EXIT_CONFIG
    assert not (tmp_path / "scenes").exists()


def test_synth_unknown_spec_key_is_config_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SYNTH_SPEC, "widht": 64}))
    assert main(["synth", str(spec), str(tmp_path / "scenes")]) == EXIT_CONFIG
    assert "widht" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


def test_run_deterministic_across_thread_counts(tmp_path, monkeypatch):
    path = run_config(tmp_path, scenes={"source": "synth", "spec": SCENE_SPEC,
                                        "count": 4})
    blobs = []
    for threads in ("1", "8"):
        monkeypatch.setenv("CAMSIM_THREADS", threads)
        assert main(["run", str(path)]) == EXIT_OK
        blobs.append((tmp_path / "out" / "metrics.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_synth_records_the_scene_statistics(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    assert main(["synth", str(spec), str(tmp_path / "scenes"), "-n", "2"]) == EXIT_OK
    manifest = json.loads((tmp_path / "scenes" / "manifest.json").read_text())
    for entry in manifest["scenes"]:
        d = tmp_path / "scenes" / entry["id"]
        stats = scene_statistics(load_scene(d))
        meta = json.loads((d / "meta.json").read_text())
        assert {k: entry[k] for k in stats} == stats
        assert {k: meta[k] for k in stats} == stats


def test_lens_focal_length_lays_out_synth_scenes(tmp_path):
    # the 0.06 m car at 20 m spans 6 grid cells of 3 µm through a 6 mm lens,
    # and 12 through a 12 mm lens; a 3 µm pixel bins one cell
    path = run_config(tmp_path, lens={"focal_length_mm": 12.0})
    assert main(["run", str(path)]) == EXIT_OK
    dataset = json.loads((tmp_path / "out" / "dataset.json").read_text())
    widths = {a["bbox"][2] for a in dataset["annotations"]}
    assert widths == {project_extent_px(0.06, 20.0, 12.0, 3.0)} == {12}


def test_synth_and_dir_run(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    rc = main(["synth", str(spec), str(tmp_path / "scenes"), "-n", "2"])
    assert rc == EXIT_OK
    manifest = json.loads((tmp_path / "scenes" / "manifest.json").read_text())
    assert len(manifest["scenes"]) == 2
    path = run_config(tmp_path, scenes={"source": "dir",
                                        "path": str(tmp_path / "scenes")})
    assert main(["run", str(path)]) == EXIT_OK


def test_eval_command_round_trip(tmp_path):
    path = run_config(tmp_path)
    assert main(["run", str(path)]) == EXIT_OK
    out = tmp_path / "out"
    rc = main(["eval", str(out / "dataset.json"), str(out / "detections.json"),
               str(tmp_path / "scores")])
    assert rc == EXIT_OK
    a = json.loads((out / "summary.json").read_text())
    b = json.loads((tmp_path / "scores" / "summary.json").read_text())
    assert a["ap_overall"] == b["ap_overall"]


def test_plot_command(tmp_path):
    path = run_config(tmp_path)
    assert main(["run", str(path)]) == EXIT_OK
    svg = tmp_path / "c.svg"
    rc = main(["plot", str(tmp_path / "out" / "metrics.csv"), str(svg)])
    assert rc == EXIT_OK
    assert svg.read_text().startswith("<svg")


def test_edge_case_command(tmp_path):
    cfg = {"scenes": {"source": "synth", "spec": {}},
           "output_dir": str(tmp_path / "out"), "seed": 2}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    assert main(["edge-case", str(path)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "edge_case.json").read_text())
    assert set(report["algorithms"]) == {"center_weighted", "bracketed"}


def test_edge_case_at_a_pixel_pitch_finer_than_3um(tmp_path):
    # the stress scene is laid out on a 1.5 µm grid for 1.5 µm pixels
    cfg = {"scenes": {"source": "synth", "spec": {"grid_pitch_um": 1.5}},
           "sensor": {"pixel": {"size_um": 1.5}},
           "output_dir": str(tmp_path / "out"), "seed": 2}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    assert main(["edge-case", str(path)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "edge_case.json").read_text())
    assert set(report["algorithms"]) == {"center_weighted", "bracketed"}
    for result in report["algorithms"].values():
        assert set(result["targets"]) == {"1", "2"}


def test_sweep_pixel_command(tmp_path):
    path = run_config(tmp_path)
    rc = main(["sweep-pixel", str(path), "--sizes", "3", "6"])
    assert rc == EXIT_OK
    csv_text = (tmp_path / "out" / "sweep_pixel.csv").read_text().splitlines()
    assert csv_text[0] == "pixel_size_um,rows,cols,ap_overall,od50_m"
    assert len(csv_text) == 3


def test_sweep_pixel_reports_the_captured_geometry(tmp_path):
    # a 128x128 scene at 3 µm on a 0.768 mm dye: the dye holds 256x256
    # pixels, but the frames are cut to the scene
    path = run_config(tmp_path, sensor={"dye_width_mm": 0.768, "dye_height_mm": 0.768})
    assert main(["sweep-pixel", str(path), "--sizes", "3"]) == EXIT_OK
    out = tmp_path / "out"
    row = (out / "sweep_pixel.csv").read_text().splitlines()[1].split(",")
    images = json.loads((out / "pixel_3um" / "dataset.json").read_text())["images"]
    assert {(im["height"], im["width"]) for im in images} == {(128, 128)}
    assert row[:3] == ["3.0", "128", "128"]


@pytest.mark.parametrize("argv, flag", [
    (["sweep-pixel", "--sizes", "0.5"], "--sizes"),
    (["sweep-pixel", "--sizes", "3", "12"], "--sizes"),
    (["sweep-exposure", "--lux", "-5"], "--lux"),
    (["sweep-exposure", "--lux", "10", "0"], "--lux"),
    (["sweep-exposure", "--lux", "nan"], "--lux"),
    (["sweep-pixel", "--sizes", "2.0"], "--sizes"),  # cannot sample the 3 µm synth grid
    # two values that would share one output directory
    (["sweep-pixel", "--sizes", "3", "3.0"], "--sizes"),
    (["sweep-exposure", "--lux", "10", "10"], "--lux"),
], ids=["sizes=0.5", "sizes=12", "lux=-5", "lux=0", "lux=nan", "sizes=2-on-3um-grid",
        "sizes=3,3.0", "lux=10,10"])
def test_bad_sweep_flag_is_config_error(tmp_path, capsys, argv, flag):
    path = run_config(tmp_path)
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_exits_runtime_error_when_a_size_fails(tmp_path):
    # a 2 µm pixel does not sample a 1.5 µm grid; a saved scene's pitch is known
    # only once it loads, so every scene fails at 2 µm at run time; the sweep
    # still writes its table, and fails as a run with lost scenes does
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SYNTH_SPEC, "grid_pitch_um": 1.5}))
    assert main(["synth", str(spec), str(tmp_path / "scenes"), "-n", "2"]) == EXIT_OK
    path = run_config(tmp_path, scenes={"source": "dir", "path": str(tmp_path / "scenes")})
    assert main(["sweep-pixel", str(path), "--sizes", "2.0", "3.0"]) == EXIT_RUNTIME
    out = tmp_path / "out"
    rows = (out / "sweep_pixel.csv").read_text().splitlines()
    assert rows[1] == "2.0,,,,beyond-range"
    assert rows[2].startswith("3.0,")
    assert "does not evenly divide" in (out / "pixel_2um" / "errors.log").read_text()
    assert not (out / "pixel_3um" / "errors.log").exists()


def test_run_continues_after_scene_error(tmp_path):
    # one scene directory is corrupted; the other still being processed
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    assert main(["synth", str(spec), str(tmp_path / "scenes"), "-n", "2"]) == EXIT_OK
    bad = tmp_path / "scenes" / "scene_0000" / "radiance.sic"
    bad.write_bytes(b"XXXX" + bad.read_bytes()[4:])
    path = run_config(tmp_path, scenes={"source": "dir",
                                        "path": str(tmp_path / "scenes")})
    rc = main(["run", str(path)])
    assert rc == EXIT_RUNTIME
    out = tmp_path / "out"
    assert (out / "errors.log").read_text().startswith("scene_0000")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["n_ground_truth"] == 1  # the good scene was still scored


@pytest.mark.parametrize("argv, written", [
    (["run"], "summary.json"),
    (["sweep-pixel", "--sizes", "3", "6"], "sweep_pixel.csv"),
    (["sweep-exposure", "--lux", "10"], "sweep_exposure.csv"),
])
def test_spec_that_synthesis_rejects_fails_the_command(tmp_path, argv, written):
    # reflectance 1.5 parses, but synthesis rejects it for every scene
    spec = {**SCENE_SPEC, "targets": [{**SCENE_SPEC["targets"][0], "reflectance": 1.5}]}
    path = run_config(tmp_path, scenes={"source": "synth", "spec": spec, "count": 2})
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_RUNTIME
    assert not list(tmp_path.rglob(written))


PSF_SPEC = {**SCENE_SPEC, "width": 192, "height": 160, "grid_pitch_um": 0.75,
            "targets": [{"class": "car", "distance_m": d, "size_m": [0.06, 0.05],
                         "reflectance": 0.2} for d in (5, 8, 12)]}
RUN_FILES = ("summary.json", "metrics.csv", "detections.json", "exposures.json",
             "dataset.json")


@pytest.mark.parametrize("mode", ["center_weighted", "bracketed"])
def test_sweep_pixel_matches_separate_runs(tmp_path, mode):
    """Each size directory of one sweep (scenes projected once, the PSF
    applied at the 0.75 µm grid) is byte-identical to a separate run."""
    base = {"scenes": {"source": "synth", "spec": PSF_SPEC, "count": 3},
            "sensor": {"dye_width_mm": 0.12, "dye_height_mm": 0.096},
            "exposure": {"mode": mode},
            "policy": {"min_box_w": 1, "min_box_h": 1}, "seed": 5}
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({**base, "output_dir": str(tmp_path / "sweep")}))
    assert main(["sweep-pixel", str(sweep), "--sizes", "1.5", "3"]) == EXIT_OK
    for size in (1.5, 3.0):
        single = tmp_path / f"run_{size:g}.json"
        out = tmp_path / f"run_{size:g}"
        single.write_text(json.dumps({**base, "output_dir": str(out),
                                      "sensor": {**base["sensor"],
                                                 "pixel": {"size_um": size}}}))
        assert main(["run", str(single)]) == EXIT_OK
        for name in RUN_FILES:
            assert (tmp_path / "sweep" / f"pixel_{size:g}um" / name).read_bytes() == \
                (out / name).read_bytes(), (size, name)


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("argv, mode, images", [
    (["sweep-pixel", "--sizes", "3", "6"], "fixed", 1),
    (["run"], "center_weighted", 1),
    (["run"], "bracketed", 1),
    (["sweep-exposure", "--lux", "10", "500"], "fixed", 2),  # one image per lux level
])
def test_scene_synthesized_and_projected_once(tmp_path, monkeypatch, argv, mode, images):
    from camsim import cli, optics, scene

    counts = {}
    _count_calls(monkeypatch, cli, "synthesize", counts)
    _count_calls(monkeypatch, cli, "optical_image", counts)
    _count_calls(monkeypatch, optics, "psf_blur", counts)
    _count_calls(monkeypatch, optics, "project", counts)
    _count_calls(monkeypatch, scene, "project_bands", counts)  # the luminance pass
    path = run_config(tmp_path, exposure={"mode": mode})
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_OK
    n = 2  # run_config has two scenes
    # sweep-exposure also projects onto luminance to scale each scene to its lux level
    projections = 2 * images if argv[0] == "sweep-exposure" else images
    assert counts == {"synthesize": n, "optical_image": n * images, "psf_blur": n * images,
                      "project": n * projections, "project_bands": 0}
