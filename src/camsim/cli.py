"""Batch experiment driver.

Commands: synth, run, sweep-pixel, sweep-exposure, edge-case, eval, plot.
All experiment parameters live in a single JSON config; flags only select
the command, config path, seed override, and verbosity. CAMSIM_THREADS caps
the scene worker pool. Exit codes: 0 ok, 2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import evalmetrics as ev
from .annotation import LabelPolicy, apply_policy, export_dataset, project_truth
from .config import ConfigError, from_config
from .detector import DetectorConfig, detectability, import_detections, proxy_detect
from .exposure import ExposurePlan, acquire
from .isp import IspConfig, render, write_ppm
from .optics import LensSpec, OpticalImage, mean_illuminance_lux, optical_image
from .optics import radiance_to_irradiance  # noqa: F401  (perfbench/selftest.py wraps this binding)
from .plotting import curve_svg
from .rng import stream_key
from .scene import Scene, SceneSpec, edge_case_scene, load_scene, save_scene, synthesize
from .sensor import SensorSpec, sensor_geometry

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


@dataclass(frozen=True)
class ScenesConfig:
    """The run's scenes: `count` syntheses of `spec`, each seeded from the
    run seed, or the saved scene directories under `path`."""
    source: str
    path: str | None = field(default=None, metadata={"when": ("source", "dir")})
    count: int = field(default=1, metadata={"when": ("source", "synth")})
    # the runner seeds each scene and lays it out with the lens's focal
    # length, so the spec's own seed and focal length cannot be set here
    spec: SceneSpec = field(default_factory=SceneSpec,
                            metadata={"keys": {"seed": None, "focal_length_mm": None},
                                      "when": ("source", "synth")})

    def __post_init__(self):
        if self.source not in ("synth", "dir"):
            raise ValueError("source must be 'synth' or 'dir'")
        if self.source == "dir" and not (self.path and Path(self.path).is_dir()):
            raise ValueError(f"scene directory not found: {self.path}")
        if self.count < 0:
            raise ValueError(f"count must be a non-negative integer, got {self.count!r}")


@dataclass
class RunConfig:
    scenes: ScenesConfig
    lens: LensSpec = field(default_factory=LensSpec)
    sensor: SensorSpec = field(default_factory=SensorSpec)
    # a given exposure section must name its mode; an omitted one meters
    exposure: ExposurePlan = field(default_factory=lambda: ExposurePlan("center_weighted"))
    isp: IspConfig = field(default_factory=IspConfig)
    policy: LabelPolicy = field(default_factory=LabelPolicy)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    output_dir: Path = field(default=Path("out"), metadata={"parse": Path})
    seed: int = 0
    target_lux: float | None = None
    save_images: bool = False
    plot: bool = False

    def __post_init__(self):
        lux = self.target_lux
        if lux is not None and not 0 < lux < float("inf"):
            raise ValueError(f"target_lux must be a positive number, got {lux!r}")
        if self.scenes.source == "synth":
            spec = self.scenes.spec
            try:
                sensor_geometry((spec.height, spec.width), spec.grid_pitch_um, self.sensor)
            except ValueError as e:
                raise ValueError(f"the sensor cannot sample scenes.spec: {e}") from e

    @staticmethod
    def from_file(path, seed_override: int | None = None) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            d = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config JSON invalid: {e}") from e
        return RunConfig.from_dict(d, seed_override)

    @staticmethod
    def from_dict(d: dict, seed_override: int | None = None) -> "RunConfig":
        cfg = from_config(RunConfig, d)
        return cfg if seed_override is None else replace(cfg, seed=seed_override)


def _n_workers() -> int:
    """Scene workers: CAMSIM_THREADS when set, else the CPU count up to 8."""
    env = os.environ.get("CAMSIM_THREADS")
    if not env:
        return min(8, os.cpu_count() or 1)
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"CAMSIM_THREADS must be a positive integer, got {env!r}")
    return n


def _load_scenes(cfg: RunConfig) -> list:
    """[(scene_id, source)] ordered by id. A source is the SceneSpec to
    synthesize (laid out with the lens's focal length) or the scene directory
    to load; each scene's pool task opens its own, so at most one scene per
    worker is held in memory."""
    src = cfg.scenes
    if src.source == "dir":
        dirs = sorted(p for p in Path(src.path).iterdir() if (p / "radiance.sic").is_file())
        return [(p.name, p) for p in dirs]
    spec = replace(src.spec, focal_length_mm=cfg.lens.focal_length_mm)
    return [(f"scene_{i:04d}", replace(spec, seed=cfg.seed + i)) for i in range(src.count)]


def _scale_to_lux(sc: Scene, lens: LensSpec, target_lux: float | None) -> Scene:
    """Scalar radiance scale so mean sensor-plane illuminance hits the target
    (None: the scene as it is)."""
    current = 0.0 if target_lux is None else mean_illuminance_lux(sc, lens)
    return sc.scaled(target_lux / current) if current > 0 else sc


def _capture_and_detect(v: RunConfig, sc: Scene, image: OpticalImage, seed: int,
                        image_id) -> tuple:
    """One variant of a scene: acquire -> ISP -> annotate -> proxy-detect.
    Returns (acquisition, rendered image, boxes, proxy config, detections)."""
    acq = acquire(image, v.sensor, v.exposure, seed)
    rendered = render(acq.source, v.isp)
    boxes = apply_policy(project_truth(sc, acq.geometry), v.policy)
    pconf = replace(v.detector.proxy, seed=seed)
    # imported detections are read after the pool completes
    dets = [] if v.detector.imported else proxy_detect(rendered, boxes, pconf,
                                                       image_id=image_id)
    return acq, rendered, boxes, pconf, dets


def _process_scene(args):
    """One scene, opened once and projected once per target_lux, through every
    variant. Returns (scene_id, [result dict or exception, one per variant]).
    A spec that synthesis rejects raises and fails the run; a scene directory
    that does not load, or a scene that does not project, is an error of
    every variant, and the other scenes still run."""
    cfg, variants, scene_id, index, source = args
    sc = synthesize(source) if isinstance(source, SceneSpec) else None
    try:
        sc = load_scene(source) if sc is None else sc
        images = {lux: optical_image(_scale_to_lux(sc, cfg.lens, lux), cfg.lens, cfg.sensor)
                  for lux in dict.fromkeys(v.target_lux for v in variants)}
    except Exception as e:  # skip the broken scene, keep the rest
        return scene_id, [e] * len(variants)
    seed = int(stream_key(cfg.seed, 3, index) & np.uint64(0x7FFFFFFF))
    out = []
    for v in variants:
        try:
            acq, rendered, boxes, _, dets = _capture_and_detect(
                v, sc, images[v.target_lux], seed, scene_id)
        except Exception as e:  # this variant failed; the others still run
            out.append(e)
            continue
        out.append({"gts": [ev.as_gt(scene_id, b) for b in boxes], "dets": dets,
                    "duration_s": acq.duration_s,
                    "rows": acq.geometry.rows, "cols": acq.geometry.cols,
                    "image": rendered if v.save_images else None, "boxes": boxes})
    return scene_id, out


def run_pipeline(cfg: RunConfig, variants: list | None = None) -> list:
    """Full cmd_run over the configured scenes. Each variant (default: cfg
    alone) is a config sharing cfg's scenes, lens, seed and sensor CFA/QE;
    every scene is opened once, projected once per target_lux among the
    variants and captured by each variant. Writes each variant's artifacts to
    its output_dir and returns its summary dict, in variant order."""
    variants = [cfg] if variants is None else variants
    workers = _n_workers()
    jobs = [(cfg, variants, sid, i, source)
            for i, (sid, source) in enumerate(_load_scenes(cfg))]
    results = [{} for _ in variants]
    errors = [[] for _ in variants]
    if jobs:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for sid, outs in pool.map(_process_scene, jobs):
                for k, r in enumerate(outs):
                    if isinstance(r, Exception):
                        errors[k].append((sid, r))
                    else:
                        results[k][sid] = r
    return [_write_run(v, results[k], errors[k]) for k, v in enumerate(variants)]


def _write_scores(dets: list, gts: list, out: Path, max_distance_m: float) -> tuple:
    """metrics.csv and summary.json; returns (AP curve, summary dict)."""
    curve = ev.ap_vs_distance(dets, gts, max_distance_m=max_distance_m)
    ev.write_metrics_csv(curve, out / "metrics.csv")
    return curve, ev.write_summary_json(curve, dets, gts, out / "summary.json")


def _write_run(cfg: RunConfig, results: dict, errors: list) -> dict:
    """Write one run's artifacts from its per-scene results; returns the summary."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(results)
    gts, dets, images_meta, truths = [], [], [], {}
    for sid in ordered:
        r = results[sid]
        gts.extend(r["gts"])
        dets.extend(r["dets"])
        images_meta.append({"id": sid, "file": f"{sid}.ppm",
                            "width": r["cols"], "height": r["rows"]})
        truths[sid] = r["boxes"]
        if r["image"] is not None:
            write_ppm(r["image"], out / f"{sid}.ppm")
    if cfg.detector.imported:
        sizes = {m["id"]: (m["width"], m["height"]) for m in images_meta}
        dets = import_detections(cfg.detector.imported, sizes)

    curve, summary = _write_scores(dets, gts, out, cfg.policy.max_distance_m)
    (out / "detections.json").write_text(json.dumps(ev.detections_to_json(dets), indent=1))
    export_dataset(images_meta, truths, out / "dataset.json", seed=cfg.seed)
    durations = {sid: results[sid]["duration_s"] for sid in ordered}
    (out / "exposures.json").write_text(json.dumps(durations, indent=1))
    if errors:
        (out / "errors.log").write_text(
            "\n".join(f"{sid}: {exc}" for sid, exc in errors))
    if cfg.plot:
        pts = [(0.5 * (b.low_m + b.high_m), b.ap) for b in curve.bins if b.ap is not None]
        curve_svg([("AP", pts)], out / "ap_vs_distance.svg")
    summary["n_images"] = len(ordered)
    summary["n_errors"] = len(errors)
    return summary


# ------------------------------------------------------------- commands ----

def cmd_synth(args) -> int:
    try:
        spec_doc = json.loads(Path(args.spec).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"spec JSON invalid: {e}") from e
    base = from_config(SceneSpec, spec_doc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.count):
        s = replace(base, seed=(args.seed if args.seed is not None else base.seed) + i)
        name = f"scene_{i:04d}"
        stats = save_scene(synthesize(s), out / name)
        entries.append({"id": name, "seed": s.seed, **stats})
    (out / "manifest.json").write_text(json.dumps({"scenes": entries}, indent=1))
    print(f"synthesized {len(entries)} scenes into {out}")
    return EXIT_OK


def _exit_code(summaries: list) -> int:
    """A run or sweep fails when any of its variants lost a scene."""
    return EXIT_OK if all(s["n_errors"] == 0 for s in summaries) else EXIT_RUNTIME


def cmd_run(args) -> int:
    cfg = RunConfig.from_file(args.config, args.seed)
    summaries = run_pipeline(cfg)
    print(json.dumps(summaries[0], indent=1))
    return _exit_code(summaries)


def _distinct(values: list, flag: str) -> list:
    """`values`, unless two of them name one output directory (equal under :g)."""
    names = [f"{v:g}" for v in values]
    if len(set(names)) < len(names):
        raise ConfigError(f"{flag}: duplicate values in {' '.join(names)}")
    return values


def cmd_sweep_pixel(args) -> int:
    cfg = RunConfig.from_file(args.config, args.seed)
    sizes = _distinct(args.sizes or [1.5, 3.0, 6.0], "--sizes")
    try:
        variants = [replace(cfg, sensor=cfg.sensor.with_pixel_size(size),
                            output_dir=cfg.output_dir / f"pixel_{size:g}um") for size in sizes]
    except ValueError as e:
        raise ConfigError(f"--sizes: {e}") from e
    summaries = run_pipeline(cfg, variants)
    rows_out = []
    for size, v, summary in zip(sizes, variants, summaries):
        # the captured frame size, which the scene bounds as well as the dye
        # (the largest frame when the scenes differ in size)
        images = json.loads((v.output_dir / "dataset.json").read_text())["images"]
        rows, cols = max(((im["height"], im["width"]) for im in images), default=("", ""))
        rows_out.append([size, rows, cols, summary["ap_overall"],
                         summary["od50_m"] if not summary["od50_beyond_range"] else "beyond-range"])
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.output_dir / "sweep_pixel.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pixel_size_um", "rows", "cols", "ap_overall", "od50_m"])
        w.writerows(rows_out)
    print(f"wrote {cfg.output_dir / 'sweep_pixel.csv'}")
    return _exit_code(summaries)


def cmd_sweep_exposure(args) -> int:
    cfg = RunConfig.from_file(args.config, args.seed)
    lux_levels = _distinct(args.lux or [10.0, 500.0], "--lux")
    plans = {
        "fixed_12ms": ExposurePlan("fixed", t_s=12e-3),
        "fixed_0.12ms": ExposurePlan("fixed", t_s=0.12e-3),
        "fixed_12us": ExposurePlan("fixed", t_s=12e-6),
        "center_weighted": ExposurePlan("center_weighted"),
        "bracketed": ExposurePlan("bracketed"),
    }
    keys = [(lux, name) for lux in lux_levels for name in plans]
    try:
        variants = [replace(cfg, target_lux=lux, exposure=plans[name],
                            output_dir=cfg.output_dir / f"lux{lux:g}_{name}")
                    for lux, name in keys]
    except ValueError as e:
        raise ConfigError(f"--lux: {e}") from e
    summaries = run_pipeline(cfg, variants)
    rows_out = []
    cw_durations: dict = {}
    for (lux, name), v, summary in zip(keys, variants, summaries):
        rows_out.append([lux, name, summary["ap_overall"],
                         summary["od50_m"] if not summary["od50_beyond_range"]
                         else "beyond-range"])
        if name == "center_weighted":
            durs = json.loads((v.output_dir / "exposures.json").read_text())
            cw_durations[lux] = sorted(durs.values())
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    with open(cfg.output_dir / "sweep_exposure.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lux", "plan", "ap_overall", "od50_m"])
        w.writerows(rows_out)
    edges = np.geomspace(12e-6, 16e-3, 13)
    with open(cfg.output_dir / "cw_duration_histogram.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lux", "bin_low_s", "bin_high_s", "count"])
        for lux, durs in cw_durations.items():
            hist, _ = np.histogram(durs, bins=edges)
            for i, c in enumerate(hist):
                w.writerow([lux, f"{edges[i]:.6g}", f"{edges[i + 1]:.6g}", int(c)])
    print(f"wrote {cfg.output_dir / 'sweep_exposure.csv'}")
    return _exit_code(summaries)


def cmd_edge_case(args) -> int:
    cfg = RunConfig.from_file(args.config, args.seed)
    report = edge_case_report(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "edge_case.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report, indent=1))
    return EXIT_OK


def edge_case_report(cfg: RunConfig) -> dict:
    """Run the fixed edge-case scene under center-weighted and bracketed
    exposure; report per-target detectability and detection outcome. The
    scene is laid out at the largest grid pitch up to 3 µm that divides the
    pixel pitch, with the lens's focal length."""
    p = cfg.sensor.pixel.size_um
    sc = edge_case_scene(p / math.ceil(p / 3.0), cfg.lens.focal_length_mm)
    image = optical_image(sc, cfg.lens, cfg.sensor)
    report = {"algorithms": {}}
    plans = {
        "center_weighted": ExposurePlan("center_weighted"),
        "bracketed": ExposurePlan("bracketed"),
    }
    for name, plan in plans.items():
        v = replace(cfg, exposure=plan, detector=DetectorConfig(cfg.detector.proxy))
        acq, rendered, boxes, pconf, dets = _capture_and_detect(v, sc, image, cfg.seed, name)
        duration = list(plan.durations_s) if plan.mode == "bracketed" else acq.duration_s
        targets = {}
        for b in boxes:
            d = detectability(rendered.values, b, pconf.min_pixels, pconf.snr_scale)
            hit = any(ev.iou(det, b) >= ev.IOU_THRESHOLD for det in dets)
            targets[str(b.instance_id)] = {
                "class": b.class_name, "distance_m": b.distance_m,
                "dprime": d, "detected": hit,
            }
        report["algorithms"][name] = {"duration_s": duration, "targets": targets}
    return report


def cmd_eval(args) -> int:
    dataset = json.loads(Path(args.dataset).read_text())
    sizes = {im["id"]: (im["width"], im["height"]) for im in dataset["images"]}
    gts = [
        ev.GTBox(a["image_id"],
                 (a["bbox"][0], a["bbox"][1],
                  a["bbox"][0] + a["bbox"][2], a["bbox"][1] + a["bbox"][3]),
                 a.get("distance_m", 1.0))
        for a in dataset["annotations"]
    ]
    dets = import_detections(args.detections, sizes)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, summary = _write_scores(dets, gts, out, None)
    print(json.dumps(summary, indent=1))
    return EXIT_OK


def cmd_plot(args) -> int:
    series = []
    for path in args.csv:
        curve = ev.read_metrics_csv(path)
        pts = [(0.5 * (b.low_m + b.high_m), b.ap) for b in curve.bins if b.ap is not None]
        series.append((Path(path).stem, pts))
    curve_svg(series, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="camsim", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate seeded scene directories")
    p.add_argument("spec")
    p.add_argument("out")
    p.add_argument("-n", "--count", type=int, default=1)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="full pipeline over the configured scenes")
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-pixel", help="pixel-size sweep with OD50 collation")
    p.add_argument("config")
    p.add_argument("--sizes", type=float, nargs="+")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep_pixel)

    p = sub.add_parser("sweep-exposure", help="exposure algorithm comparison")
    p.add_argument("config")
    p.add_argument("--lux", type=float, nargs="+")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sweep_exposure)

    p = sub.add_parser("edge-case", help="specular/shadow stress scene comparison")
    p.add_argument("config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_edge_case)

    p = sub.add_parser("eval", help="score external detections against a dataset")
    p.add_argument("dataset")
    p.add_argument("detections")
    p.add_argument("out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="metrics CSV(s) to an SVG curve")
    p.add_argument("csv", nargs="+")
    p.add_argument("out")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:
        if getattr(args, "verbose", False):
            traceback.print_exc()
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
