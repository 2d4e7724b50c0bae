"""Benchmark the optical image and its sampling on the sensor's pixels.

Usage:
    PYTHONPATH=src python3 benchmarks/sampling_bench.py [--workloads NAME ...]
        [--repeats 5]
    PYTHONPATH=src python3 benchmarks/sampling_bench.py --row ROW [--repeats 5]

For the first scene of each workload of perfbench/workloads.py, synthesized
once, times ``optics.optical_image`` followed by ``sensor.expected_rate`` at
each of the workload's pixel sizes (one for a ``run`` workload, each
``--sizes`` value for ``sweep-pixel``), as the pipeline runs them on one
scene. The ``pixel_sweep:loaded`` row times ``pixel_sweep``'s scene saved
with ``save_scene`` and loaded back with ``load_scene``, whose palette has
one row per run of equal pixels, so its PSF blur reads a label raster of
many short runs. Prints the median time over the repeats and the
tracemalloc peak of one call above what was allocated before it. The
scene's own arrays are not counted. The PSF-skip warning is silenced.

Each row is timed in a fresh Python process (the script run again with
``--row``), so that no row's figure depends on the heap that the rows
before it left behind.
"""

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings

from output_hashes import _workloads

try:
    from camsim.cli import RunConfig, _load_scenes
    from camsim.optics import optical_image
    from camsim.scene import load_scene, save_scene, synthesize
    from camsim.sensor import expected_rate
except ModuleNotFoundError as e:
    if e.name != "camsim":
        raise
    sys.exit("sampling_bench.py: camsim is not importable; put its sources on "
             "PYTHONPATH (PYTHONPATH=src)")


def _rows(names):
    """The row names for these workloads: each workload's, and for
    pixel_sweep also its saved and loaded scene's."""
    return [row for name in names
            for row in [name] + ([f"{name}:loaded"] if name == "pixel_sweep" else [])]


def _case(row):
    """(scene, lens, [sensor per pixel size]) of a row: its workload's first
    scene, saved and loaded back for a ':loaded' row."""
    name, _, loaded = row.partition(":")
    workload = _workloads()[name]
    cfg = RunConfig.from_dict(workload.config(0, "out"))
    scene = synthesize(_load_scenes(cfg)[0][1])
    sensors = [cfg.sensor.with_pixel_size(s) for s in workload.pixel_sizes] or [cfg.sensor]
    if loaded:
        with tempfile.TemporaryDirectory() as tmp:
            save_scene(scene, tmp)
            scene = load_scene(tmp)
    return scene, cfg.lens, sensors


def _sample(scene, lens, sensors):
    image = optical_image(scene, lens, sensors[0])
    for sensor in sensors:
        expected_rate(image, sensor)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def bench_row(row, repeats):
    """Print the row's line, timed in this process."""
    scene, lens, sensors = _case(row)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _sample(scene, lens, sensors)  # warm up
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _sample(scene, lens, sensors)
            times.append(time.perf_counter() - t0)
        peak = _peak_mib(lambda: _sample(scene, lens, sensors))
    h, w = scene.labels.shape
    sizes = ",".join(f"{s.pixel.size_um:g}" for s in sensors)
    print(f"{row:<20} {f'{h}x{w}':>10} {sizes:>12} "
          f"{statistics.median(times) * 1e3:>10.2f} {peak:>11.1f}")


def bench(names, repeats):
    print(f"\noptical_image + expected_rate per scene, median of {repeats}:")
    print(f"{'workload':<20} {'grid':>10} {'pixels [um]':>12} {'time [ms]':>10} "
          f"{'peak [MiB]':>11}")
    for row in _rows(names):
        proc = subprocess.run([sys.executable, __file__, "--row", row, "--repeats", str(repeats)],
                              capture_output=True, text=True, check=True)
        print(proc.stdout, end="", flush=True)


def main():
    names = list(_workloads())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--row", choices=_rows(names),
                   help="time this one row in this process and print only its line")
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    if args.row:
        bench_row(args.row, args.repeats)
    else:
        bench(args.workloads, args.repeats)


if __name__ == "__main__":
    main()
