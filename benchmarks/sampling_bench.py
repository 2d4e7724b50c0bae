"""Benchmark the optical image and its sampling on the sensor's pixels.

Usage:
    PYTHONPATH=src python3 benchmarks/sampling_bench.py [--workloads NAME ...]
        [--repeats 5]

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
"""

import argparse
import statistics
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


def _cases(workload):
    """[(row name, scene, lens, [sensor per pixel size])] of the workload's
    first scene, and for pixel_sweep of that scene saved and loaded back."""
    cfg = RunConfig.from_dict(workload.config(0, "out"))
    scene = synthesize(_load_scenes(cfg)[0][1])
    sensors = [cfg.sensor.with_pixel_size(s) for s in workload.pixel_sizes] or [cfg.sensor]
    cases = [(workload.name, scene, cfg.lens, sensors)]
    if workload.name == "pixel_sweep":
        with tempfile.TemporaryDirectory() as tmp:
            save_scene(scene, tmp)
            cases.append((f"{workload.name}:loaded", load_scene(tmp), cfg.lens, sensors))
    return cases


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


def bench(names, repeats):
    workloads = _workloads()
    print(f"\noptical_image + expected_rate per scene, median of {repeats}:")
    print(f"{'workload':<20} {'grid':>10} {'pixels [um]':>12} {'time [ms]':>10} "
          f"{'peak [MiB]':>11}")
    for row, scene, lens, sensors in (case for name in names for case in _cases(workloads[name])):
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


def main():
    names = list(_workloads())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    bench(args.workloads, args.repeats)


if __name__ == "__main__":
    main()
