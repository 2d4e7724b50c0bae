"""Benchmark the pipeline's stages on the benchmark workloads' own frames.

Usage:
    PYTHONPATH=src python3 benchmarks/stage_bench.py [--rows ROW ...] [--repeats 5]

For the first scene of each workload of perfbench/workloads.py, at
benchmark seed 0, three rows time the three calls that the CLI makes on a
scene (``cli._process_scene`` and ``cli._capture_and_detect``):

* ``NAME:optics``: ``optical_image`` of the scene;
* ``NAME:acquire``: ``acquire`` of that optical image with the workload's
  exposure plan and the scene's seed, at each of the workload's pixel sizes
  (one for a ``run`` workload, each ``--sizes`` value for ``sweep-pixel``);
* ``NAME:render``: ``render`` of each of those frames through the
  workload's ISP, its colour matrix fitted once, as the CLI fits it.

``pixel_sweep:loaded:optics`` is pixel_sweep's optics row on its scene
saved with ``save_scene`` and loaded back with ``load_scene``, whose
palette has one row per run of equal pixels, so its PSF blur reads a label
raster of many short runs. The ``noise:`` rows stress the noise kernel,
``kernels.sample_sensor_noise``, on rasters that no workload feeds it:

* ``noise:uniform``: λ ~ U(0, 2000), 1024 x 1024; almost every pixel takes
  the normal approximation;
* ``noise:flat45``: flat λ = 45, 1024 x 1024; every pixel runs a long
  Knuth loop;
* ``noise:short``: 1440 x 2560, λ < 4 on 99% of pixels, a whole frame on
  the Knuth loop, as a short HDR bracket would be if it were sampled in
  full (``acquire`` samples it only where the longer brackets saturated).

A row's inputs are built once and not counted. Each row prints the shape
of what its call reads (the scene grid, the frames, or the λ raster), the
median time of ``--repeats`` calls after one warm-up call, the median wall
time of ``--repeats`` pairs of calls, each pair two copies of the call
started together on two threads (as perfbench's two scene workers run
them), and the tracemalloc peak of one more call above what was allocated
before it.
Each row runs in a fresh Python process (the script run again with
``--row``), so that no row's figure depends on the heap that the rows
before it left behind. Warnings (the PSF skip) are silenced.
"""

import argparse
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

from output_hashes import _workloads

try:
    from camsim.cli import RunConfig, _load_scenes, _scene_seed, _with_color_matrix
    from camsim.exposure import acquire
    from camsim.isp import render
    from camsim.kernels import sample_sensor_noise
    from camsim.optics import optical_image
    from camsim.scene import load_scene, save_scene, synthesize
    from camsim.sensor import sensor_geometry
except ModuleNotFoundError as e:
    if e.name != "camsim":
        raise
    sys.exit("stage_bench.py: camsim is not importable; put its sources on "
             "PYTHONPATH (PYTHONPATH=src)")
import numpy as np  # noqa: E402  (after camsim, which needs it, says whether it imports)


def _short(rng):
    lam = rng.uniform(0.0, 4.0, (1440, 2560))
    bright = rng.random(lam.shape) < 0.01
    lam[bright] = rng.uniform(4.0, 2000.0, np.count_nonzero(bright))
    return lam


# the noise kernel's stress rasters, each drawn from its own generator
NOISE = {"uniform": lambda rng: rng.uniform(0.0, 2000.0, (1024, 1024)),
         "flat45": lambda rng: np.full((1024, 1024), 45.0),
         "short": _short}


def _rows() -> list:
    """Every row, in the order the script runs them."""
    rows = []
    for name in _workloads():
        rows.append(f"{name}:optics")
        if name == "pixel_sweep":
            rows.append(f"{name}:loaded:optics")
        rows += [f"{name}:acquire", f"{name}:render"]
    return rows + [f"noise:{name}" for name in NOISE]


def _shape(shape) -> str:
    return "x".join(map(str, shape))


def _case(row) -> tuple:
    """(the shape of what the row's call reads, the call)."""
    name, _, stage = row.rpartition(":")
    if name == "noise":
        lam = NOISE[stage](np.random.default_rng(0))
        return _shape(lam.shape), lambda: sample_sensor_noise(lam, 24.0, 13500.0, seed=7)
    name, _, loaded = name.partition(":")
    workload = _workloads()[name]
    cfg = RunConfig.from_dict(workload.config(0, "out"))
    scene = synthesize(_load_scenes(cfg)[0][1])
    if loaded:
        with tempfile.TemporaryDirectory() as tmp:
            save_scene(scene, tmp)
            scene = load_scene(tmp)
    if stage == "optics":
        return _shape(scene.labels.shape), lambda: optical_image(scene, cfg.lens, cfg.sensor)
    # the variants of cmd_run (the config) or of cmd_sweep_pixel (one per size)
    variants = [_with_color_matrix(replace(cfg, sensor=cfg.sensor.with_pixel_size(s)))
                for s in workload.pixel_sizes] or [_with_color_matrix(cfg)]
    image = optical_image(scene, cfg.lens, cfg.sensor)
    seed = _scene_seed(cfg.seed, 0)
    frames = ",".join(_shape((g.rows, g.cols)) for g in
                      (sensor_geometry(image.shape, image.pitch_um, v.sensor) for v in variants))

    def acquire_all():
        return [acquire(image, v.sensor, v.exposure, seed) for v in variants]

    if stage == "acquire":
        return frames, acquire_all
    sources = [acq.source for acq in acquire_all()]

    def render_all():
        for source, v in zip(sources, variants):
            render(source, v.isp)

    return frames, render_all


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _seconds(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _pair_seconds(fn) -> float:
    """Wall time of two copies of fn started together on two threads."""
    start = threading.Barrier(3)

    def run():
        start.wait()
        fn()

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    start.wait()
    t0 = time.perf_counter()
    for t in threads:
        t.join()
    return time.perf_counter() - t0


def bench_row(row, repeats):
    """Print the row's line, timed in this process."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        shape, fn = _case(row)
        fn()  # warm up
        one = statistics.median(_seconds(fn) for _ in range(repeats))
        two = statistics.median(_pair_seconds(fn) for _ in range(repeats))
        peak = _peak_mib(fn)
    print(f"{row:<26} {shape:>22} {one * 1e3:>10.2f} {two * 1e3:>10.2f} {peak:>11.1f}")


def bench(rows, repeats):
    print(f"\nper-stage calls, median of {repeats}:")
    print(f"{'row':<26} {'shape':>22} {'time [ms]':>10} {'2 thr [ms]':>10} {'peak [MiB]':>11}")
    for row in rows:
        proc = subprocess.run([sys.executable, __file__, "--row", row, "--repeats", str(repeats)],
                              capture_output=True, text=True)
        if proc.returncode:
            sys.exit(f"stage_bench.py: row {row} failed:\n{proc.stderr}")
        print(proc.stdout, end="", flush=True)


def main():
    rows = _rows()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", nargs="+", choices=rows, default=rows, metavar="ROW",
                   help=f"the rows to run, each in a fresh process: {' '.join(rows)}")
    p.add_argument("--row", choices=rows, metavar="ROW",
                   help="time this one row in this process and print only its line")
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    if args.row:
        bench_row(args.row, args.repeats)
    else:
        bench(args.rows, args.repeats)


if __name__ == "__main__":
    main()
