import csv
import json
import os
import shlex
import subprocess
import sys
import typing
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from camsim import config
from camsim.cli import (EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, RunConfig, build_parser, main,
                        run_pipeline)
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
    # shadow and specular rects: four integers, 0 <= x0 < x1 <= width and
    # 0 <= y0 < y1 <= height
    ({"scenes": scenes(shadows=[{"rect": [-10, 0, 10, 10], "attenuation": 0.5}])},
     "scenes.spec.shadows[0]: "),
    ({"scenes": scenes(shadows=[{"rect": [10, 10, 5, 5], "attenuation": 0.5}])},
     "scenes.spec.shadows[0]: "),
    ({"scenes": scenes(speculars=[{"rect": [0, 0, 8.5, 8], "gain": 2.0}])},
     "scenes.spec.speculars[0]: "),
    ({"scenes": scenes(speculars=[{"rect": [0, 0, 8], "gain": 2.0}])},
     "scenes.spec.speculars[0]: "),
    ({"scenes": scenes(shadows=[{"rect": [0, 0, 8, 8], "attenuation": 0.5},
                                {"rect": [0, 120, 8, 129], "attenuation": 0.5}])},
     "scenes.spec.shadows[1]: "),
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
    # external detections are scored by `camsim eval`, not by a run
    ({"detector": {"import": "detections.json"}}, "detector.import"),
    # non-finite numbers, which JSON readers accept, in scalars, lists and spectra
    ({"lens": {"f_number": float("nan")}}, "lens.f_number: NaN"),
    ({"lens": {"transmission": {"start_nm": 400.0, "step_nm": 30.0, "count": 11,
                                "unit": "dimensionless",
                                "values": [0.9] * 10 + [float("nan")]}}}, "lens.transmission: NaN"),
    ({"policy": {"max_distance_m": float("inf")}}, "policy.max_distance_m: NaN"),
    ({"scenes": scenes(targets=[{**SCENE_SPEC["targets"][0], "size_m": [0.06, float("nan")]}])},
     "scenes.spec.targets[0].size_m: NaN"),
    # ap_vs_distance makes one 10 m bin per step up to max_distance_m
    ({"policy": {"max_distance_m": 0}}, "policy: max_distance_m"),
    ({"policy": {"max_distance_m": -5}}, "policy: max_distance_m"),
    ({"policy": {"max_distance_m": 301}}, "policy: max_distance_m"),
    ({"exposure": {"mode": "bracketed", "durations_s": []}}, "exposure: bracketed"),
    # one spelling per ISP variant: no gamma stage skips gamma
    ({"isp": {"gamma": {"mode": "none"}}}, "isp.gamma: unknown gamma mode 'none'"),
    ({"isp": {"gamma": {"mode": "adaptive", "solve_output_mean": True}}},
     "isp.gamma.solve_output_mean"),
    ({"plot": True}, "unknown config keys: plot"),
    ({"scenes": scenes(targets=[{**SCENE_SPEC["targets"][0], "shading": 1.0}])},
     "scenes.spec.targets[0].shading"),
    # ISP settings that no stage of the pipeline reads
    ({"isp": {"stages": ["demosaic", "gamma"], "matrix": np.eye(3).tolist()}}, "isp: matrix"),
    ({"isp": {"stages": ["demosaic", "color"], "gamma": {"mode": "srgb"}}}, "isp: gamma"),
    # gamma values that the gamma mode does not read
    ({"isp": {"gamma": {"mode": "adaptive", "gamma": 0.45}}}, "isp.gamma: gamma"),
    ({"isp": {"gamma": {"mode": "srgb", "target": 0.5}}}, "isp.gamma: target"),
], ids=["top", "lens", "exposure", "policy", "sensor.pixel", "detector.proxy",
        "scenes", "scenes.spec", "scenes.spec.grid", "scenes.spec.targets",
        "scenes.spec.shadows", "shadows.rect=negative", "shadows.rect=inverted",
        "speculars.rect=float", "speculars.rect=3-element", "shadows.rect=beyond-height",
        "scenes.spec.seed", "scenes.spec.focal_length_mm",
        "scenes.path=synth", "scenes.count=dir",
        "scenes.spec=dir", "isp", "isp.gamma", "exposure.mode",
        "isp.gamma.mode=bogus", "isp.stages=sharpen", "scenes.count=two", "sensor.cfa=XYZ",
        "spectrum-without-unit", "target_lux=-5", "target_lux=0", "target_lux=abc",
        "exposure.statistic=bogus", "exposure.window_fraction=0",
        "exposure.window_fraction=5", "exposure.target_fraction=-1",
        "isp.stages=demosaic,gamma,color", "isp.stages=raw,color", "isp.stages=raw,demosaic",
        "seed=abc", "policy.min_box_w=a", "lens.cos4_falloff=yes", "save_images=no",
        "scenes.spec.grid_pitch_um=1.5", "detector.import", "lens.f_number=NaN",
        "lens.transmission=NaN", "policy.max_distance_m=Infinity",
        "scenes.spec.targets.size_m=NaN", "policy.max_distance_m=0",
        "policy.max_distance_m=-5", "policy.max_distance_m=301",
        "exposure.durations_s=[]", "isp.gamma.mode=none", "isp.gamma.solve_output_mean",
        "plot", "scenes.spec.targets.shading", "isp.matrix-without-color",
        "isp.gamma-without-gamma", "isp.gamma.gamma-not-fixed",
        "isp.gamma.target-not-adaptive"])
def test_run_unknown_key_names_dotted_path(tmp_path, capsys, overrides, dotted):
    path = run_config(tmp_path, **overrides)
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert dotted in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_isp_settings_its_stages_read_load():
    """The same settings load where a stage reads them, and a gamma section
    equal to the default needs no gamma stage."""
    isp = RunConfig.from_dict({"scenes": scenes(), "isp": {
        "stages": ["demosaic", "color", "gamma"], "matrix": np.eye(3).tolist(),
        "gamma": {"mode": "srgb"}}}).isp
    assert isp.matrix is not None and isp.gamma.mode == "srgb"
    RunConfig.from_dict({"scenes": scenes(), "isp": {"stages": ["raw"],
                                                     "gamma": {"mode": "adaptive"}}})


# every key a run config can set, by dotted path ("[]": each list element)
SETTABLE_KEYS = {
    "detector.proxy.fp_rate_per_image", "detector.proxy.jitter_px",
    "detector.proxy.min_pixels", "detector.proxy.snr_scale",
    "exposure.cap_s", "exposure.durations_s", "exposure.mode", "exposure.statistic",
    "exposure.t_s", "exposure.target_fraction", "exposure.window_fraction",
    "isp.gamma.gamma", "isp.gamma.mode", "isp.gamma.target", "isp.matrix", "isp.stages",
    "lens.cos4_falloff", "lens.f_number", "lens.focal_length_mm", "lens.psf_fwhm_um",
    "lens.transmission",
    "output_dir",
    "policy.apply_visibility", "policy.max_distance_m", "policy.min_box_h", "policy.min_box_w",
    "save_images",
    "scenes.count", "scenes.path", "scenes.source",
    "scenes.spec.background_luminance_cd_m2", "scenes.spec.background_reflectance",
    "scenes.spec.description", "scenes.spec.grid.count", "scenes.spec.grid.start_nm",
    "scenes.spec.grid.step_nm", "scenes.spec.grid_pitch_um", "scenes.spec.height",
    "scenes.spec.shadows[].attenuation", "scenes.spec.shadows[].rect",
    "scenes.spec.speculars[].gain", "scenes.spec.speculars[].rect",
    "scenes.spec.targets[].class", "scenes.spec.targets[].distance_m",
    "scenes.spec.targets[].position_px", "scenes.spec.targets[].reflectance",
    "scenes.spec.targets[].size_m", "scenes.spec.width",
    "seed",
    "sensor.adc_bits", "sensor.analog_gain", "sensor.cfa", "sensor.dye_height_mm",
    "sensor.dye_width_mm", "sensor.pixel.conversion_gain_uV_per_e",
    "sensor.pixel.dark_current_e_per_s", "sensor.pixel.fill_factor",
    "sensor.pixel.read_noise_e", "sensor.pixel.size_um", "sensor.pixel.voltage_swing_V",
    "sensor.pixel.well_capacity_e", "sensor.scale_well_with_area",
    "target_lux",
}


def test_settable_keys_are_pinned():
    """A new run-config option shows up here as a deliberate diff."""
    def walk(cls, keys, path):
        hints = typing.get_type_hints(cls)
        for key, f in config._keys(cls, keys).items():
            hint, dotted = hints[f.name], f"{path}{key}"
            args = typing.get_args(hint)
            if "parse" not in f.metadata and is_dataclass(hint):
                yield from walk(hint, f.metadata.get("keys"), dotted + ".")
            elif typing.get_origin(hint) is tuple and args[1:] == (Ellipsis,) \
                    and is_dataclass(args[0]):
                yield from walk(args[0], f.metadata.get("keys"), dotted + "[].")
            else:
                yield dotted

    keys = list(walk(RunConfig, None, ""))
    assert len(keys) == len(SETTABLE_KEYS) == 63
    assert set(keys) == SETTABLE_KEYS


def test_rccc_renders_raw_only(tmp_path, capsys):
    """An RCCC mosaic has no demosaic, so the default ISP is rejected at
    load; the raw pipeline runs."""
    sensor = {"dye_width_mm": 0.384, "dye_height_mm": 0.384, "cfa": "RCCC"}
    assert main(["run", str(run_config(tmp_path, sensor=sensor))]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sensor.cfa" in err and "isp.stages" in err
    assert not (tmp_path / "out").exists()
    path = run_config(tmp_path, sensor=sensor, isp={"stages": ["raw", "gamma"]})
    assert main(["run", str(path)]) == EXIT_OK


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


def test_readme_command_lines_parse():
    """Every `camsim` line of the README's command-line block parses, so a
    deleted flag or a renamed command cannot linger in the docs."""
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Command line", 1)[1]
    block = block.split("```bash", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line.split("#", 1)[0]) for line in block.splitlines()
             if line.startswith("camsim ")]
    assert lines
    for argv in lines:
        build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("argv", [["synth", "spec.json", "out"], ["run", "run.json"],
                                  ["sweep-pixel", "run.json"], ["sweep-exposure", "run.json"],
                                  ["edge-case", "run.json"]], ids=lambda argv: argv[0])
def test_seed_flag_is_rejected(capsys, argv):
    """The seed lives in the run config (or scene spec) only."""
    with pytest.raises(SystemExit) as e:
        main([*argv, "--seed", "3"])
    assert e.value.code == EXIT_CONFIG
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
@pytest.mark.parametrize("argv", [["run"], ["sweep-pixel", "--sizes", "3", "6"]],
                         ids=["run", "sweep-pixel"])
def test_bad_thread_count_is_config_error(tmp_path, monkeypatch, capsys, value, argv):
    monkeypatch.setenv("CAMSIM_THREADS", value)
    assert main([argv[0], str(run_config(tmp_path)), *argv[1:]]) == EXIT_CONFIG
    assert "CAMSIM_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_synth_negative_count_is_config_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    assert main(["synth", str(spec), str(tmp_path / "scenes"), "-n", "-2"]) == EXIT_CONFIG
    assert "-n" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


def test_synth_malformed_spec_is_config_error(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text("{bad")
    assert main(["synth", str(spec), str(tmp_path / "scenes")]) == EXIT_CONFIG
    assert not (tmp_path / "scenes").exists()


def test_synth_nonfinite_spec_value_is_config_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SYNTH_SPEC, "background_luminance_cd_m2": float("nan")}))
    assert main(["synth", str(spec), str(tmp_path / "scenes")]) == EXIT_CONFIG
    assert "background_luminance_cd_m2" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


def test_synth_unknown_spec_key_is_config_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SYNTH_SPEC, "widht": 64}))
    assert main(["synth", str(spec), str(tmp_path / "scenes")]) == EXIT_CONFIG
    assert "widht" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


def test_synth_rect_beyond_the_raster_is_config_error(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**SYNTH_SPEC,
                                "speculars": [{"rect": [120, 0, 130, 8], "gain": 2.0}]}))
    assert main(["synth", str(spec), str(tmp_path / "scenes")]) == EXIT_CONFIG
    assert "speculars[0]: rect [120, 0, 130, 8] reaches beyond" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


@pytest.mark.parametrize("reflectance", [1e-160, 2e-313])
def test_near_black_background_is_config_error(tmp_path, capsys, reflectance):
    """Scaled to 500 cd/m², a background this dark would put the target's
    spectrum (1e-160) or every spectrum (2e-313) beyond float32's range."""
    spec = {**SCENE_SPEC, "background_reflectance": reflectance}
    path = run_config(tmp_path, scenes={"source": "synth", "spec": spec, "count": 2})
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "scenes.spec.background_reflectance" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    synth_spec = tmp_path / "spec.json"
    synth_spec.write_text(json.dumps({**SYNTH_SPEC, "background_reflectance": reflectance}))
    assert main(["synth", str(synth_spec), str(tmp_path / "scenes")]) == EXIT_CONFIG
    assert "background_reflectance" in capsys.readouterr().err
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


def test_dir_run_matches_the_synth_run(tmp_path):
    """Saved scenes, loaded with a palette row per run of equal pixels, give
    the same outputs as the synthesized scenes, whose palettes hold one row
    per distinct spectrum: both project each row to the same bits."""
    spec = {**SCENE_SPEC, "shadows": [{"rect": [0, 0, 64, 128], "attenuation": 0.2}],
            "speculars": [{"rect": [40, 0, 100, 30], "gain": 20.0}]}
    synth_run = run_config(tmp_path, scenes={"source": "synth", "spec": spec, "count": 2},
                           output_dir=str(tmp_path / "synth_run"))
    assert main(["run", str(synth_run)]) == EXIT_OK
    seed = json.loads(synth_run.read_text())["seed"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({**spec, "seed": seed}))
    assert main(["synth", str(spec_path), str(tmp_path / "scenes"), "-n", "2"]) == EXIT_OK
    dir_run = run_config(tmp_path, scenes={"source": "dir", "path": str(tmp_path / "scenes")},
                         output_dir=str(tmp_path / "dir_run"))
    assert main(["run", str(dir_run)]) == EXIT_OK
    for name in ("summary.json", "detections.json", "exposures.json", "metrics.csv",
                 "dataset.json"):
        assert (tmp_path / "dir_run" / name).read_bytes() == \
            (tmp_path / "synth_run" / name).read_bytes(), name


def test_eval_command_round_trip(tmp_path):
    path = run_config(tmp_path)
    assert main(["run", str(path)]) == EXIT_OK
    out = tmp_path / "out"
    rc = main(["eval", str(out / "dataset.json"), str(out / "detections.json"),
               str(tmp_path / "scores")])
    assert rc == EXIT_OK
    summary = (out / "summary.json").read_bytes()
    assert (tmp_path / "scores" / "summary.json").read_bytes() == summary


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    """A finished 2-scene run's output directory."""
    tmp_path = tmp_path_factory.mktemp("run")
    assert main(["run", str(run_config(tmp_path))]) == EXIT_OK
    return tmp_path / "out"


@pytest.mark.parametrize("bad, records, message", [
    ("detections", None, "Expecting"),
    ("detections", [{"bbox": [1, 1, 4, 4], "score": 1.5}], "outside [0, 1]"),
    ("detections", [{"bbox": [1, 1, 4], "score": 0.5}], "is not [x, y, w, h]"),
    ("detections", [{"bbox": [1, 1, 4, 4]}], "missing key 'score'"),
    ("dataset", [{"bbox": [1, 1, 4, 4], "score": 0.5}], "missing key 'distance_m'"),
], ids=["not-json", "score=1.5", "bbox-of-3", "no-score", "dataset-without-distance_m"])
def test_eval_malformed_detections_is_config_error(tmp_path, capsys, run_output, bad, records,
                                                   message):
    """Malformed detections, or a dataset whose annotations lack their
    distance, exit 2 naming the file."""
    dataset = json.loads((run_output / "dataset.json").read_text())
    if bad == "dataset":
        for a in dataset["annotations"]:
            del a["distance_m"]
    files = {"dataset": tmp_path / "dataset.json", "detections": tmp_path / "dets.json"}
    files["dataset"].write_text(json.dumps(dataset))
    image_id = dataset["images"][0]["id"]
    files["detections"].write_text("{not json" if records is None else json.dumps(
        [{"image_id": image_id, **r} for r in records]))
    rc = main(["eval", str(files["dataset"]), str(files["detections"]),
               str(tmp_path / "scores")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{files[bad]}: " in err and message in err
    assert not (tmp_path / "scores").exists()


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


def test_edge_case_ignores_the_scenes_section(tmp_path):
    # 1.5 µm pixels cannot sample the default 3 µm scenes.spec, which only
    # run and the sweeps read; edge-case lays out its own scene
    cfg = {"scenes": {"source": "synth", "spec": {}}, "sensor": {"pixel": {"size_um": 1.5}},
           "output_dir": str(tmp_path / "out"), "seed": 2}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    assert main(["edge-case", str(path)]) == EXIT_OK
    assert (tmp_path / "out" / "edge_case.json").is_file()
    cfg["output_dir"] = str(tmp_path / "run")
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not (tmp_path / "run").exists()


def test_edge_case_honours_the_exposure_section(tmp_path):
    # the metering target and the bracket durations come from the config
    reports = []
    for target in (0.9, 0.45):
        cfg = {"scenes": {"source": "synth", "spec": {}}, "seed": 2,
               "exposure": {"mode": "fixed", "durations_s": [8e-3, 1e-4],
                            "target_fraction": target},
               "output_dir": str(tmp_path / f"out_{target:g}")}
        path = tmp_path / "e.json"
        path.write_text(json.dumps(cfg))
        assert main(["edge-case", str(path)]) == EXIT_OK
        reports.append(json.loads((tmp_path / f"out_{target:g}" / "edge_case.json").read_text()))
    for report in reports:
        assert report["algorithms"]["bracketed"]["duration_s"] == [8e-3, 1e-4]
    metered = [r["algorithms"]["center_weighted"]["duration_s"] for r in reports]
    assert metered[1] == pytest.approx(metered[0] / 2) and metered[0] < 16e-3


CAP_10MS = {"mode": "center_weighted", "cap_s": 0.01}
NO_BRACKETS = {"mode": "fixed", "durations_s": []}


@pytest.mark.parametrize("argv, exposure", [
    (["sweep-exposure", "--lux", "10"], CAP_10MS), (["edge-case"], CAP_10MS),
    (["sweep-exposure", "--lux", "10"], NO_BRACKETS), (["edge-case"], NO_BRACKETS),
], ids=["sweep-exposure", "edge-case", "sweep-exposure-no-brackets", "edge-case-no-brackets"])
def test_plan_the_exposure_section_rules_out_is_config_error(tmp_path, capsys, argv, exposure):
    # a 10 ms cap rules out the 12 ms fixed plan and the 12 ms bracket; a
    # fixed section's empty bracket list, which `run` never reads, rules out
    # the bracketed plan
    path = run_config(tmp_path, exposure=exposure)
    assert main(["run", str(path)]) == EXIT_OK
    out = tmp_path / "out"
    out.rename(tmp_path / "run")
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_CONFIG
    assert "exposure: " in capsys.readouterr().err
    assert not out.exists()


def test_edge_case_lists_targets_the_policy_rejects(tmp_path):
    # at 10 µm both stress targets fall below the label policy's minimum box
    cfg = {"scenes": {"source": "synth", "spec": {}}, "sensor": {"pixel": {"size_um": 10.0}},
           "output_dir": str(tmp_path / "out"), "seed": 2}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(cfg))
    assert main(["edge-case", str(path)]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "edge_case.json").read_text())
    for result in report["algorithms"].values():
        assert set(result["targets"]) == {"1", "2"}
        for t in result["targets"].values():
            assert t["labeled"] is False and t["dprime"] is None and t["detected"] is False
            assert t["distance_m"] > 0


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


@pytest.mark.parametrize("section", [{"mode": "bracketed"},
                                     {"mode": "center_weighted", "cap_s": 0.05}],
                         ids=["cap=16ms", "cap=50ms"])
def test_cw_histogram_counts_every_scored_scene(tmp_path, section):
    # at 1e5 and 1e7 lux the metered durations fall below 12 µs, the first
    # default bin edge, and at 10 lux a 50 ms cap lets them pass 16 ms, the
    # last; the end bins reach out to them
    path = run_config(tmp_path, scenes={"source": "synth", "spec": SCENE_SPEC, "count": 3},
                      exposure=section)
    assert main(["sweep-exposure", str(path), "--lux", "10", "1e5", "1e7"]) == EXIT_OK
    out = tmp_path / "out"
    with open(out / "cw_duration_histogram.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    durations = []
    for lux in (10.0, 1e5, 1e7):
        # one duration per scored scene
        scored = json.loads((out / f"lux{lux:g}_center_weighted" / "exposures.json").read_text())
        durations += scored.values()
        counts = [int(r["count"]) for r in rows if float(r["lux"]) == lux]
        assert len(counts) == 12 and sum(counts) == len(scored) == 3
    assert min(durations) < 12e-6
    assert (max(durations) > 16e-3) == ("cap_s" in section)


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
    assert summary["n_images"] == 1 and summary["n_errors"] == 1


def test_sweep_variant_summary_holds_the_counts(tmp_path):
    """Each variant's summary.json is the summary run_pipeline returns, with
    the images it scored and the scenes it lost."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SYNTH_SPEC))
    assert main(["synth", str(spec), str(tmp_path / "scenes"), "-n", "2"]) == EXIT_OK
    bad = tmp_path / "scenes" / "scene_0001" / "radiance.sic"
    bad.write_bytes(b"XXXX" + bad.read_bytes()[4:])
    cfg = RunConfig.from_file(run_config(tmp_path, scenes={
        "source": "dir", "path": str(tmp_path / "scenes")}))
    variants = [replace(cfg, sensor=cfg.sensor.with_pixel_size(size),
                        output_dir=cfg.output_dir / f"pixel_{size:g}um") for size in (3.0, 6.0)]
    for v, (summary, results) in zip(variants, run_pipeline(cfg, variants)):
        assert list(results) == ["scene_0000"]
        assert summary["n_images"] == 1 and summary["n_errors"] == 1
        assert json.loads((v.output_dir / "summary.json").read_text()) == summary


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


SWEEP_PLANS = {"fixed_12ms": {"mode": "fixed", "t_s": 12e-3},
               "fixed_0.12ms": {"mode": "fixed", "t_s": 0.12e-3},
               "fixed_12us": {"mode": "fixed", "t_s": 12e-6},
               "center_weighted": {"mode": "center_weighted"},
               "bracketed": {"mode": "bracketed"}}


@pytest.mark.parametrize("argv, section", [
    (["sweep-pixel", "--sizes", "1.5", "3"], {"mode": "center_weighted"}),
    (["sweep-pixel", "--sizes", "1.5", "3"], {"mode": "bracketed"}),
    (["sweep-exposure", "--lux", "10", "500"], {"mode": "bracketed"}),
    # every plan, not only center_weighted, runs on the config's own section
    (["sweep-exposure", "--lux", "500"], {"mode": "center_weighted", "target_fraction": 0.5}),
], ids=["pixel-center_weighted", "pixel-bracketed", "exposure",
        "exposure-target_fraction=0.5"])
def test_sweep_matches_separate_runs(tmp_path, argv, section):
    """Each variant directory of one sweep (scenes projected once, the PSF
    applied at the 0.75 µm grid) is byte-identical to a separate run of that
    variant's config, and the sweep's CSV row repeats the variant's
    summary.json (and, for a pixel size, its frame size in dataset.json)."""
    base = {"scenes": {"source": "synth", "spec": PSF_SPEC, "count": 3},
            "sensor": {"dye_width_mm": 0.12, "dye_height_mm": 0.096},
            "exposure": section,
            "policy": {"min_box_w": 1, "min_box_h": 1}, "seed": 5}
    values = [float(v) for v in argv[2:]]
    if argv[0] == "sweep-pixel":
        variants = {f"pixel_{size:g}um": {"sensor": {**base["sensor"], "pixel": {"size_um": size}}}
                    for size in values}
    else:
        variants = {f"lux{lux:g}_{name}": {"target_lux": lux, "exposure": {**section, **plan}}
                    for lux in values for name, plan in SWEEP_PLANS.items()}
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({**base, "output_dir": str(tmp_path / "sweep")}))
    assert main([argv[0], str(sweep), *argv[1:]]) == EXIT_OK
    for name, overrides in variants.items():
        single = tmp_path / f"{name}.json"
        out = tmp_path / "runs" / name
        single.write_text(json.dumps({**base, **overrides, "output_dir": str(out)}))
        assert main(["run", str(single)]) == EXIT_OK
        for file in RUN_FILES:
            assert (tmp_path / "sweep" / name / file).read_bytes() == \
                (out / file).read_bytes(), (name, file)

    table = argv[0].replace("-", "_")
    with open(tmp_path / "sweep" / f"{table}.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    assert len(rows) == len(variants)
    for row in rows:
        name = f"pixel_{float(row[0]):g}um" if argv[0] == "sweep-pixel" \
            else f"lux{float(row[0]):g}_{row[1]}"
        summary = json.loads((tmp_path / "sweep" / name / "summary.json").read_text())
        od50 = "beyond-range" if summary["od50_beyond_range"] else str(summary["od50_m"])
        assert row[-2:] == [str(summary["ap_overall"]), od50], name
        if argv[0] == "sweep-pixel":
            images = json.loads((tmp_path / "sweep" / name / "dataset.json").read_text())["images"]
            assert {(im["height"], im["width"]) for im in images} == {(int(row[1]), int(row[2]))}


def _count_calls(monkeypatch, module, name, counts):
    fn = getattr(module, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


# run_config's scenes on a 0.75 µm grid, where the 1.5 µm PSF blurs
FINE_GRID = {"scenes": {"source": "synth", "count": 2, "spec": {
    **SCENE_SPEC, "width": 256, "height": 256, "grid_pitch_um": 0.75}},
    "sensor": {"dye_width_mm": 0.192, "dye_height_mm": 0.192}}


@pytest.mark.parametrize("argv, mode, images, overrides", [
    (["sweep-pixel", "--sizes", "3", "6"], "fixed", 1, {}),
    (["run"], "center_weighted", 1, {}),
    (["run"], "bracketed", 1, {}),
    (["sweep-exposure", "--lux", "10", "500"], "fixed", 2, {}),  # one image per lux level
    (["run"], "fixed", 1, {"lens": {"cos4_falloff": True}}),
    (["sweep-pixel", "--sizes", "3", "6"], "fixed", 1, FINE_GRID),
], ids=["sweep-pixel", "run-center_weighted", "run-bracketed", "sweep-exposure", "run-cos4",
        "sweep-pixel-psf"])
def test_scene_synthesized_and_projected_once(tmp_path, monkeypatch, argv, mode, images,
                                              overrides):
    from camsim import cli, optics, scene

    counts = {}
    _count_calls(monkeypatch, cli, "synthesize", counts)
    _count_calls(monkeypatch, cli, "optical_image", counts)
    _count_calls(monkeypatch, optics, "psf_sigma", counts)
    _count_calls(monkeypatch, optics, "psf_blur", counts)
    _count_calls(monkeypatch, optics, "project", counts)
    _count_calls(monkeypatch, scene, "project_bands", counts)  # the luminance pass
    path = run_config(tmp_path, exposure={"mode": mode}, **overrides)
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_OK
    n = 2  # run_config has two scenes
    # the PSF never blurs on run_config's 3 µm grid, so an optical image is
    # projected onto (H, W, C) planes only under the cos⁴ falloff; scaling a
    # scene to a lux level weighs its palette by label areas, with no planes.
    # On the fine grid each scene's blur reads its palette, never the planes,
    # and calls itself once more for the blurred palette that fills its
    # one-label row blocks
    projections = images * ("lens" in overrides)
    blurs = 2 * ("sensor" in overrides)
    assert counts == {"synthesize": n, "optical_image": n * images, "psf_sigma": n * images,
                      "psf_blur": n * blurs, "project": n * projections, "project_bands": 0}


@pytest.mark.parametrize("argv, variants", [
    (["run"], 1),
    (["sweep-pixel", "--sizes", "3", "6"], 2),
    (["sweep-exposure", "--lux", "10", "500"], 10),  # five plans per lux level
    (["edge-case"], 1),  # both exposure plans share the variant's ISP
], ids=["run", "sweep-pixel", "sweep-exposure", "edge-case"])
def test_color_matrix_fitted_once_per_variant(tmp_path, monkeypatch, argv, variants):
    """Each variant fits its colour matrix once, not once per rendered frame."""
    from camsim import cli, isp

    def refuse(*args, **kwargs):
        raise AssertionError("render fitted a colour matrix")
    counts = {}
    _count_calls(monkeypatch, cli, "fit_color_matrix", counts)
    monkeypatch.setattr(isp, "fit_color_matrix", refuse)
    path = run_config(tmp_path, exposure={"mode": "fixed"})
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_OK
    assert counts == {"fit_color_matrix": variants}


@pytest.mark.parametrize("argv, target_lux", [
    (["run"], 1e30),
    (["sweep-exposure", "--lux", "1e30"], None),
], ids=["run", "sweep-exposure"])
def test_target_lux_beyond_float32_is_a_scene_error(tmp_path, argv, target_lux):
    """A target_lux that scales the float32 palette past its finite range
    fails each scene with a message naming target_lux, not with overflow
    warnings and empty scores."""
    from camsim import cli

    path = run_config(tmp_path, target_lux=target_lux)
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_RUNTIME
    out = tmp_path / "out"
    runs = [out] if target_lux else [out / f"lux1e+30_{name}" for name in cli.PLANS]
    for run in runs:
        lines = (run / "errors.log").read_text().splitlines()
        assert len(lines) == 2 and all("target_lux 1e+30" in line for line in lines), lines


@pytest.mark.parametrize("argv", [
    ["sweep-pixel", "--sizes", "3", "6"],
    ["sweep-exposure", "--lux", "10", "500"],
], ids=["sweep-pixel", "sweep-exposure"])
def test_scene_truth_once_per_scene(tmp_path, monkeypatch, argv):
    from camsim import cli

    counts = {}
    _count_calls(monkeypatch, cli, "scene_truth", counts)
    path = run_config(tmp_path, exposure={"mode": "fixed"})
    assert main([argv[0], str(path), *argv[1:]]) == EXIT_OK
    assert counts == {"scene_truth": 2}  # run_config has two scenes


@pytest.mark.parametrize("argv", [["run"], ["sweep-exposure", "--lux", "10", "500"]],
                         ids=["run", "sweep-exposure"])
def test_radiance_cube_freed_before_capture(tmp_path, monkeypatch, argv):
    """No variant holds the scene's radiance: its palette is gone by the time
    the first acquisition of the scene runs. (`radiance` is built afresh on
    each access, so a weak reference to it would die at once; the label
    raster lives on in the optical image.)"""
    import gc
    import weakref

    from camsim import cli

    monkeypatch.setenv("CAMSIM_THREADS", "1")  # one scene at a time, in order
    cubes, freed = [], []
    synthesize, acquire = cli.synthesize, cli.acquire

    def tracked_synthesize(spec):
        sc = synthesize(spec)
        cubes.append(weakref.ref(sc.palette))
        return sc

    def checked_acquire(*args, **kwargs):
        gc.collect()
        freed.append(cubes[-1]() is None)
        return acquire(*args, **kwargs)
    monkeypatch.setattr(cli, "synthesize", tracked_synthesize)
    monkeypatch.setattr(cli, "acquire", checked_acquire)
    assert main([argv[0], str(run_config(tmp_path)), *argv[1:]]) == EXIT_OK
    assert len(cubes) == 2 and freed and all(freed)


@pytest.mark.parametrize("argv", [["run"], ["sweep-exposure", "--lux", "10", "500"]],
                         ids=["run", "sweep-exposure"])
def test_rate_and_earlier_images_freed_before_render(tmp_path, monkeypatch, argv):
    """When a variant's frame is rendered, the expected-rate raster it was
    exposed from is gone, and so is every image rendered before it (none is
    saved): a scene worker holds one variant's arrays at a time."""
    import gc
    import weakref

    from camsim import cli, exposure

    monkeypatch.setenv("CAMSIM_THREADS", "1")  # one scene at a time, in order
    rates, images, checks = [], [], []
    expected_rate, render = exposure.expected_rate, cli.render

    def tracked_rate(*args, **kwargs):
        rate = expected_rate(*args, **kwargs)
        rates.append(weakref.ref(rate))
        return rate

    def checked_render(*args, **kwargs):
        gc.collect()
        checks.append((rates[-1]() is None, [ref() is None for ref in images]))
        img = render(*args, **kwargs)
        images.append(weakref.ref(img))
        return img
    monkeypatch.setattr(exposure, "expected_rate", tracked_rate)
    monkeypatch.setattr(cli, "render", checked_render)
    assert main([argv[0], str(run_config(tmp_path)), *argv[1:]]) == EXIT_OK
    variants = len(cli.PLANS) * 2 if argv[0] == "sweep-exposure" else 1
    assert len(checks) == len(rates) == 2 * variants  # run_config has two scenes
    assert checks == [(True, [True] * i) for i in range(len(checks))]


def test_a_saved_image_holds_its_values_not_its_frame(tmp_path, monkeypatch):
    """With save_images, each variant's image is kept until the run is
    written, whole: it holds its values, and the frame it was rendered from
    is gone."""
    import gc
    import weakref

    from camsim import cli

    monkeypatch.setenv("CAMSIM_THREADS", "1")
    frames, images, alive = [], [], []
    acquire, render, write_run = cli.acquire, cli.render, cli._write_run

    def tracked_acquire(*args, **kwargs):
        acq = acquire(*args, **kwargs)
        frames.append(weakref.ref(acq.source.rate_e_per_s))  # run_config brackets
        return acq

    def tracked_render(*args, **kwargs):
        images.append(render(*args, **kwargs))
        return images[-1]

    def checked_write_run(*args, **kwargs):
        gc.collect()
        alive.append([ref() is not None for ref in frames])
        return write_run(*args, **kwargs)
    monkeypatch.setattr(cli, "acquire", tracked_acquire)
    monkeypatch.setattr(cli, "render", tracked_render)
    monkeypatch.setattr(cli, "_write_run", checked_write_run)
    assert main(["run", str(run_config(tmp_path, save_images=True))]) == EXIT_OK
    assert alive == [[False, False]]
    for i, img in enumerate(images):
        assert img._values is img.values
        assert (tmp_path / "out" / f"scene_{i:04d}.ppm").is_file()


def test_failed_variants_free_their_frames(tmp_path, monkeypatch):
    """A variant whose detector raises is recorded as an error without its
    traceback, so its acquisition and rendered image are gone before the
    run is written, and errors.log still names each failure."""
    import gc
    import weakref

    from camsim import cli

    monkeypatch.setenv("CAMSIM_THREADS", "1")
    images, alive = [], []
    render, write_run = cli.render, cli._write_run

    def tracked_render(*args, **kwargs):
        img = render(*args, **kwargs)
        images.append(weakref.ref(img))
        return img

    def failing_detect(*args, **kwargs):
        raise RuntimeError("detector down")

    def checked_write_run(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in images))
        return write_run(*args, **kwargs)
    monkeypatch.setattr(cli, "render", tracked_render)
    monkeypatch.setattr(cli, "proxy_detect", failing_detect)
    monkeypatch.setattr(cli, "_write_run", checked_write_run)
    cfg = run_config(tmp_path)
    assert main(["sweep-exposure", str(cfg), "--lux", "10", "500"]) == EXIT_RUNTIME
    variants = len(cli.PLANS) * 2
    assert len(images) == 2 * variants  # run_config has two scenes
    assert alive == [0] * variants
    log = (tmp_path / "out" / "lux10_fixed_12ms" / "errors.log").read_text()
    assert log.splitlines() == ["scene_0000: detector down", "scene_0001: detector down"]


_NO_SCIPY_PROBE = """
import json, sys
import camsim.cli
from camsim import optics
blur, sigmas = optics.psf_blur, []
optics.psf_blur = lambda rates, labels, sigma, *falloff: (sigmas.append(sigma)
                                                          or blur(rates, labels, sigma, *falloff))
rc = camsim.cli.main(["sweep-pixel", sys.argv[1], "--sizes", "1.5"])
print(json.dumps({"rc": rc, "blurs": len(sigmas),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_cli_runs_the_psf_without_scipy(tmp_path):
    """A fresh interpreter imports the CLI and runs a sweep whose 0.75 µm
    grid makes the 1.5 µm PSF blur, without loading any scipy module: its
    import would cost a few tenths of a second on every call."""
    path = run_config(tmp_path, scenes={"source": "synth", "count": 1, "spec": {
        **SCENE_SPEC, "width": 64, "height": 64, "grid_pitch_um": 0.75}})
    env = {**os.environ, "CAMSIM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(done.stdout.splitlines()[-1]) == {"rc": EXIT_OK, "blurs": 1, "scipy": []}
