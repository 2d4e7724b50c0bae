"""The benchmark's workloads: one camsim CLI invocation each.

A workload turns a benchmark seed into a run config and a CLI argument list.
The config seed is ``base_seed + seed % REFERENCE_SEEDS``, so every benchmark
seed lands on a config whose outputs are recorded in ``reference.json``.
Configs use only keys camsim honours; detector options sit under
``detector.proxy`` (the README's top-level ``detector.snr_scale`` and
``detector.min_pixels`` are not read by the code).
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEEDS = 10

_CAR = {"class": "car", "size_m": [0.4, 0.35], "reflectance": 0.2}
_GRID_11 = {"start_nm": 400.0, "step_nm": 30.0, "count": 11}
_LENS = {"focal_length_mm": 6.0, "f_number": 4.0, "psf_fwhm_um": 1.5}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # "run" or "sweep-pixel"
    base_seed: int
    scenes: int  # distinct scenes per invocation
    pixel_sizes: tuple = ()  # sweep-pixel only

    @property
    def variants(self) -> int:
        """Scene-variants one invocation completes."""
        return self.scenes * max(1, len(self.pixel_sizes))

    def config_seed(self, seed: int) -> int:
        return self.base_seed + seed % REFERENCE_SEEDS

    def config(self, seed: int, output_dir: str) -> dict:
        cfg = _CONFIGS[self.name](self.scenes)
        cfg["output_dir"] = output_dir
        cfg["seed"] = self.config_seed(seed)
        return cfg

    def argv(self, config_path: str) -> list:
        if self.command == "sweep-pixel":
            return ["sweep-pixel", config_path, "--sizes", *(f"{s:g}" for s in self.pixel_sizes)]
        return ["run", config_path]


def _readme_run(count: int) -> dict:
    return {
        "scenes": {"source": "synth", "count": count, "spec": {
            "width": 640, "height": 480, "grid_pitch_um": 1.5, "grid": _GRID_11,
            "background_luminance_cd_m2": 500.0,
            "targets": [{**_CAR, "distance_m": 30}]}},
        "lens": _LENS,
        "sensor": {"pixel": {"size_um": 3.0}},
        "exposure": {"mode": "center_weighted"},
        "isp": {"stages": ["demosaic", "color", "gamma"]},
        "policy": {"min_box_w": 10, "min_box_h": 15},
        "detector": {"proxy": {"snr_scale": 1.0, "min_pixels": 150}},
    }


def _pixel_sweep(count: int) -> dict:
    # acceptance criterion 12: 14 cars at 15..145 m on a 0.96 x 0.54 mm dye
    return {
        "scenes": {"source": "synth", "count": count, "spec": {
            "width": 1280, "height": 720, "grid_pitch_um": 0.75,
            "grid": {"start_nm": 400.0, "step_nm": 75.0, "count": 5},
            "background_luminance_cd_m2": 500.0,
            "targets": [{**_CAR, "distance_m": d} for d in range(15, 150, 10)]}},
        "lens": {},
        "sensor": {"dye_width_mm": 0.96, "dye_height_mm": 0.54},
        "exposure": {"mode": "fixed", "t_s": 12e-3},
        "policy": {"min_box_w": 1, "min_box_h": 1, "apply_visibility": False},
        "detector": {"proxy": {}},
    }


def _hdr_fulldye(count: int) -> dict:
    return {
        "scenes": {"source": "synth", "count": count, "spec": {
            "width": 2560, "height": 1440, "grid_pitch_um": 1.5, "grid": _GRID_11,
            "background_luminance_cd_m2": 100.0,
            "targets": [{**_CAR, "distance_m": 40}],
            "shadows": [{"rect": [1600, 400, 2400, 1200], "attenuation": 0.01}],
            "speculars": [{"rect": [1200, 640, 1360, 800], "gain": 300.0}]}},
        "lens": _LENS,
        "sensor": {"pixel": {"size_um": 1.5}},
        "exposure": {"mode": "bracketed", "durations_s": [12e-3, 0.12e-3, 12e-6]},
        "isp": {"stages": ["demosaic", "color", "gamma"]},
        "detector": {"proxy": {}},
    }


_CONFIGS = {"readme_run": _readme_run, "pixel_sweep": _pixel_sweep,
            "hdr_fulldye": _hdr_fulldye}

WORKLOADS = {w.name: w for w in (
    Workload(
        "readme_run",
        "The default first-run path: center-weighted metering runs optics twice per scene "
        "and 48 small eagerly loaded scenes pass through the pool; bypasses PSF, Knuth "
        "noise and detectability.",
        "run", base_seed=0, scenes=48),
    Workload(
        "pixel_sweep",
        "The paper's headline question (OD50 vs pixel size): the only workload where the "
        "PSF runs; 14 targets load project_truth and detectability; optics run 3x per scene.",
        "sweep-pixel", base_seed=100, scenes=8, pixel_sizes=(1.5, 3.0, 6.0)),
    Workload(
        "hdr_fulldye",
        "Bracketed full-dye 2560x1440 scenes: short brackets put most pixels on the "
        "small-lambda Knuth noise loop, 3 optics passes over a 324 MB cube drive peak RSS, "
        "2 scenes on 2 workers show the straggler.",
        "run", base_seed=5, scenes=2),
)}
