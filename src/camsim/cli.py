"""Batch experiment driver.

Commands: synth, run, sweep-pixel, sweep-exposure, edge-case, eval, plot.
All experiment parameters live in one JSON config; a sweep is a table of
variants of it, run in one pipeline call. CAMSIM_THREADS caps the scene
worker pool. Exit codes: 0 ok, 2 config error, 3 runtime error.
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
from .annotation import (LabelPolicy, SceneTruth, apply_policy, export_dataset, project_truth,
                         scene_truth)
from .config import ConfigError, from_config
from .detector import DetectorConfig, detectability, proxy_detect, proxy_rows
from .exposure import ExposurePlan, acquire
from .isp import DEMOSAIC_PATTERNS, IspConfig, fit_color_matrix, render, write_ppm
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

    def __post_init__(self):
        lux = self.target_lux
        if lux is not None and not 0 < lux < float("inf"):
            raise ValueError(f"target_lux must be a positive number, got {lux!r}")
        if "demosaic" in self.isp.stages and self.sensor.cfa.pattern not in DEMOSAIC_PATTERNS:
            raise ValueError("sensor.cfa has no demosaic, so isp.stages must start with raw")

    def check_scenes(self) -> None:
        """Reject a synth `scenes.spec` whose grid the sensor's pixels cannot
        sample; checked where the scenes are loaded, since `edge-case` lays
        out its own scene and never reads them."""
        if self.scenes.source == "synth":
            spec = self.scenes.spec
            try:
                sensor_geometry((spec.height, spec.width), spec.grid_pitch_um, self.sensor)
            except ValueError as e:
                raise ValueError(f"the sensor cannot sample scenes.spec: {e}") from e

    @staticmethod
    def from_file(path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            d = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config JSON invalid: {e}") from e
        return RunConfig.from_dict(d)

    @staticmethod
    def from_dict(d: dict) -> "RunConfig":
        return from_config(RunConfig, d)


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
    try:
        cfg.check_scenes()
    except ValueError as e:
        raise ConfigError(e) from e
    src = cfg.scenes
    if src.source == "dir":
        dirs = sorted(p for p in Path(src.path).iterdir() if (p / "radiance.sic").is_file())
        return [(p.name, p) for p in dirs]
    spec = replace(src.spec, focal_length_mm=cfg.lens.focal_length_mm)
    return [(f"scene_{i:04d}", replace(spec, seed=cfg.seed + i)) for i in range(src.count)]


def _scale_to_lux(sc: Scene, lens: LensSpec, target_lux: float | None) -> Scene:
    """Scalar radiance scale so mean sensor-plane illuminance hits the target
    (None: the scene as it is); a target that takes the float32 palette
    beyond its finite range is a ValueError."""
    current = 0.0 if target_lux is None else mean_illuminance_lux(sc, lens)
    if current <= 0:
        return sc
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = sc.scaled(target_lux / current)
    if not np.isfinite(scaled.palette).all():
        raise ValueError(f"target_lux {target_lux:g} scales the scene's radiance beyond "
                         "float32's range")
    return scaled


def _with_color_matrix(v: RunConfig) -> RunConfig:
    """`v` with its colour matrix fitted to its sensor once, when its ISP
    has a color stage and no matrix; `render` would fit the same matrix
    again for every frame."""
    if "color" not in v.isp.stages or v.isp.matrix is not None:
        return v
    matrix = tuple(map(tuple, fit_color_matrix(v.sensor).tolist()))
    return replace(v, isp=replace(v.isp, matrix=matrix))


def _capture_and_detect(v: RunConfig, truth: SceneTruth, image: OpticalImage, seed: int,
                        image_id) -> dict:
    """One variant of a scene: acquire -> annotate -> ISP -> proxy-detect.
    Returns its result dict: detections, duration, frame size, rendered
    image and labeled boxes. The image is rendered whole when it is saved,
    and otherwise holds only the rows the detector reads."""
    acq = acquire(image, v.sensor, v.exposure, seed)
    boxes = apply_policy(project_truth(truth, acq.geometry), v.policy)
    rows = None if v.save_images else proxy_rows(
        boxes, (acq.geometry.rows, acq.geometry.cols), v.detector.proxy)
    rendered = render(acq.source, v.isp, rows=rows)
    dets = proxy_detect(rendered, boxes, replace(v.detector.proxy, seed=seed),
                        image_id=image_id)
    return {"dets": dets, "duration_s": acq.duration_s, "rows": acq.geometry.rows,
            "cols": acq.geometry.cols, "image": rendered, "boxes": boxes}


def _bare(e: Exception) -> Exception:
    """`e` without its traceback or chained exceptions, whose frames would
    keep a failed scene's or variant's arrays alive until the run is
    written; errors.log prints only str(e)."""
    e.__traceback__ = e.__context__ = e.__cause__ = None
    return e


def _scene_seed(run_seed: int, index: int) -> int:
    """The seed of the capture and the detection of the run's scene at
    `index` (its position in `_load_scenes`)."""
    return int(stream_key(run_seed, 3, index) & np.uint64(0x7FFFFFFF))


def _process_scene(args):
    """One scene, opened once and projected once per target_lux, through every
    variant; only its ground truth and optical images are kept past the
    projections, so the scene's palette is freed before any variant runs
    (an optical image without PSF or falloff keeps the label raster).
    Returns (scene_id, [result dict or exception, one per variant]).
    A spec that synthesis rejects raises and fails the run; a scene directory
    that does not load, or a scene that does not project, is an error of
    every variant, and the other scenes still run."""
    cfg, variants, scene_id, index, source = args
    sc = synthesize(source) if isinstance(source, SceneSpec) else None
    try:
        sc = load_scene(source) if sc is None else sc
        images = {lux: optical_image(_scale_to_lux(sc, cfg.lens, lux), cfg.lens, cfg.sensor)
                  for lux in dict.fromkeys(v.target_lux for v in variants)}
        truth = scene_truth(sc)
    except Exception as e:  # skip the broken scene, keep the rest
        return scene_id, [_bare(e)] * len(variants)
    del sc
    seed = _scene_seed(cfg.seed, index)
    out = []
    for v in variants:
        try:
            r = _capture_and_detect(v, truth, images[v.target_lux], seed, scene_id)
        except Exception as e:  # this variant failed; the others still run
            out.append(_bare(e))
            continue
        if not v.save_images:
            r["image"] = None  # freed before the next variant renders its own
        out.append(r)
    return scene_id, out


def run_pipeline(cfg: RunConfig, variants: list) -> list:
    """Full cmd_run over the configured scenes. Each variant is a config
    sharing cfg's scenes, lens, seed and sensor CFA/QE; every scene is
    opened once, projected once per target_lux among the variants (each
    palette spectrum once) and captured by each variant. Writes each
    variant's artifacts to its output_dir and returns its (summary,
    {scene_id: result dict}), in variant order."""
    workers = _n_workers()
    variants = [_with_color_matrix(v) for v in variants]
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
    return [(_write_run(v, results[k], errors[k]), results[k]) for k, v in enumerate(variants)]


def _write_run(cfg: RunConfig, results: dict, errors: list) -> dict:
    """Write one run's artifacts from its per-scene results; returns the summary."""
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    ordered = sorted(results)
    gts, dets, images_meta, truths = [], [], [], {}
    for sid in ordered:
        r = results[sid]
        gts.extend(ev.as_gt(sid, b) for b in r["boxes"])
        dets.extend(r["dets"])
        images_meta.append({"id": sid, "file": f"{sid}.ppm",
                            "width": r["cols"], "height": r["rows"]})
        truths[sid] = r["boxes"]
        if r["image"] is not None:
            write_ppm(r["image"], out / f"{sid}.ppm")
    summary = ev.write_scores(dets, gts, out, cfg.policy.max_distance_m,
                              len(ordered), len(errors))
    (out / "detections.json").write_text(json.dumps(ev.detections_to_json(dets), indent=1))
    export_dataset(images_meta, truths, out / "dataset.json", seed=cfg.seed)
    durations = {sid: results[sid]["duration_s"] for sid in ordered}
    (out / "exposures.json").write_text(json.dumps(durations, indent=1))
    if errors:
        (out / "errors.log").write_text(
            "\n".join(f"{sid}: {exc}" for sid, exc in errors))
    return summary


# ------------------------------------------------------------- commands ----

def cmd_synth(args) -> int:
    if args.count < 0:
        raise ConfigError(f"-n/--count must be a non-negative integer, got {args.count}")
    try:
        spec_doc = json.loads(Path(args.spec).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"spec JSON invalid: {e}") from e
    base = from_config(SceneSpec, spec_doc)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(args.count):
        s = replace(base, seed=base.seed + i)
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
    cfg = RunConfig.from_file(args.config)
    (summary, _), = run_pipeline(cfg, [cfg])
    print(json.dumps(summary, indent=1))
    return _exit_code([summary])


# sweep-exposure's plans, overrides of the config's exposure section
PLANS = {"fixed_12ms": {"mode": "fixed", "t_s": 12e-3},
         "fixed_0.12ms": {"mode": "fixed", "t_s": 0.12e-3},
         "fixed_12us": {"mode": "fixed", "t_s": 12e-6},
         "center_weighted": {"mode": "center_weighted"}, "bracketed": {"mode": "bracketed"}}


def _plans(cfg: RunConfig, names) -> dict:
    """{name: that plan of PLANS on cfg's exposure section}; a plan the
    section makes invalid (a cap below a fixed duration, say) exits 2."""
    try:
        return {name: replace(cfg.exposure, **PLANS[name]) for name in names}
    except ValueError as e:
        raise ConfigError(f"exposure: {e}") from e


def _sweep(cfg: RunConfig, flag: str, values: list, table, csv_name: str, header: list,
           cells=lambda results: ()) -> list:
    """One pipeline call over the [(row labels, variant)] `table(value)` gives
    per `flag` value; writes a CSV row of labels, cells(per-scene results),
    ap_overall and od50_m per variant; returns [(labels, summary, results)]."""
    names = [f"{v:g}" for v in values]
    if len(set(names)) < len(names):
        raise ConfigError(f"{flag}: duplicate values in {' '.join(names)}")
    try:
        rows = [row for value in values for row in table(value)]
    except ValueError as e:
        raise ConfigError(f"{flag}: {e}") from e
    runs = [(labels, *run) for (labels, _), run
            in zip(rows, run_pipeline(cfg, [v for _, v in rows]))]
    with open(cfg.output_dir / csv_name, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow([*header, "ap_overall", "od50_m"])
        for labels, summary, results in runs:
            od50 = "beyond-range" if summary["od50_beyond_range"] else summary["od50_m"]
            w.writerow([*labels, *cells(results), summary["ap_overall"], od50])
    print(f"wrote {cfg.output_dir / csv_name}")
    return runs


def cmd_sweep_pixel(args) -> int:
    cfg = RunConfig.from_file(args.config)

    def table(size):
        v = replace(cfg, sensor=cfg.sensor.with_pixel_size(size),
                    output_dir=cfg.output_dir / f"pixel_{size:g}um")
        v.check_scenes()
        return [((size,), v)]

    # the largest captured frame, which the scene bounds as well as the dye
    runs = _sweep(cfg, "--sizes", args.sizes or [1.5, 3.0, 6.0], table, "sweep_pixel.csv",
                  ["pixel_size_um", "rows", "cols"],
                  lambda results: max(((r["rows"], r["cols"]) for r in results.values()),
                                      default=("", "")))
    return _exit_code([summary for _, summary, _ in runs])


def cmd_sweep_exposure(args) -> int:
    cfg = RunConfig.from_file(args.config)
    plans = _plans(cfg, PLANS)

    def table(lux):
        return [((lux, name), replace(cfg, target_lux=lux, exposure=plan,
                                      output_dir=cfg.output_dir / f"lux{lux:g}_{name}"))
                for name, plan in plans.items()]

    runs = _sweep(cfg, "--lux", args.lux or [10.0, 500.0], table, "sweep_exposure.csv",
                  ["lux", "plan"])
    with open(cfg.output_dir / "cw_duration_histogram.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["lux", "bin_low_s", "bin_high_s", "count"])
        cw = {lux: [r["duration_s"] for r in results.values()]
              for (lux, name), _, results in runs if name == "center_weighted"}
        for lux, durs in cw.items():
            # the end bins reach out to the shortest and the longest duration
            edges = np.geomspace(12e-6, 16e-3, 13)
            edges[0], edges[-1] = min([edges[0], *durs]), max([edges[-1], *durs])
            w.writerows([lux, f"{lo:.6g}", f"{hi:.6g}", int(c)]
                        for lo, hi, c in zip(edges, edges[1:], np.histogram(durs, edges)[0]))
    return _exit_code([summary for _, summary, _ in runs])


def cmd_edge_case(args) -> int:
    cfg = RunConfig.from_file(args.config)
    report = edge_case_report(cfg)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    (cfg.output_dir / "edge_case.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report, indent=1))
    return EXIT_OK


def edge_case_report(cfg: RunConfig) -> dict:
    """Run the fixed edge-case scene under center-weighted and bracketed
    exposure; report every target of the scene, with its detectability and
    detection outcome when the label policy keeps it. The scene is laid out
    at the largest grid pitch up to 3 µm that divides the pixel pitch, with
    the lens's focal length."""
    plans = _plans(cfg, ("center_weighted", "bracketed"))
    cfg = _with_color_matrix(cfg)
    p = cfg.sensor.pixel.size_um
    sc = edge_case_scene(p / math.ceil(p / 3.0), cfg.lens.focal_length_mm)
    image = optical_image(sc, cfg.lens, cfg.sensor)
    truth = scene_truth(sc)
    proxy = cfg.detector.proxy
    report = {"algorithms": {}}
    for name, plan in plans.items():
        r = _capture_and_detect(replace(cfg, exposure=plan), truth, image, cfg.seed, name)
        duration = list(plan.durations_s) if plan.mode == "bracketed" else r["duration_s"]
        labeled = {b.instance_id: b for b in r["boxes"]}
        targets = {}
        for inst_id, (class_name, _, depth) in truth.targets.items():
            b = labeled.get(inst_id)
            entry = {"class": class_name, "distance_m": depth, "labeled": b is not None,
                     "dprime": None, "detected": False}
            if b is not None:
                entry["dprime"] = detectability(r["image"], b, proxy.min_pixels,
                                                proxy.snr_scale)
                entry["detected"] = any(ev.iou(det, b) >= ev.IOU_THRESHOLD
                                        for det in r["dets"])
            targets[str(inst_id)] = entry
        report["algorithms"][name] = {"duration_s": duration, "targets": targets}
    return report


def _read_input(path, parse):
    """parse(the JSON in the file at `path`); input that is not JSON or that
    `parse` rejects is a ConfigError naming the file."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def _dataset_truth(dataset: dict) -> tuple:
    """({image id: (width, height)}, [GTBox]) of an exported dataset.json."""
    sizes = {im["id"]: (im["width"], im["height"]) for im in dataset["images"]}
    gts = [
        ev.GTBox(a["image_id"],
                 (a["bbox"][0], a["bbox"][1],
                  a["bbox"][0] + a["bbox"][2], a["bbox"][1] + a["bbox"][3]),
                 a["distance_m"])
        for a in dataset["annotations"]
    ]
    return sizes, gts


def cmd_eval(args) -> int:
    sizes, gts = _read_input(args.dataset, _dataset_truth)
    dets = _read_input(args.detections, lambda records: ev.detections_from_json(records, sizes))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = ev.write_scores(dets, gts, out, None, len(sizes), 0)
    print(json.dumps(summary, indent=1))
    return EXIT_OK


def cmd_plot(args) -> int:
    # each curve's points: (bin centre, AP) of every bin that has an AP
    curve_svg([(Path(p).stem, [(0.5 * (b.low_m + b.high_m), b.ap)
                               for b in ev.read_metrics_csv(p) if b.ap is not None])
               for p in args.csv], args.out)
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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="full pipeline over the configured scenes")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep-pixel", help="pixel-size sweep with OD50 collation")
    p.add_argument("config")
    p.add_argument("--sizes", type=float, nargs="+")
    p.set_defaults(func=cmd_sweep_pixel)

    p = sub.add_parser("sweep-exposure", help="exposure algorithm comparison")
    p.add_argument("config")
    p.add_argument("--lux", type=float, nargs="+")
    p.set_defaults(func=cmd_sweep_exposure)

    p = sub.add_parser("edge-case", help="specular/shadow stress scene comparison")
    p.add_argument("config")
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
