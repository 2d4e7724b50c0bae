"""Benchmark the numpy sensor-noise sampler.

Usage:
    python3 benchmarks/noise_bench.py [--size 1024] [--repeats 5]

Times the sensor-noise sampler on four expected-electron rasters, and
one frame's exposure, and prints for each the best-of-N time and the
tracemalloc peak of one call above what was allocated before it:

* λ ~ U(0, 2000), size x size: almost every pixel takes the normal
  approximation;
* flat λ = 45, size x size: every pixel runs a long Knuth loop;
* short 1440 x 2560: λ < 4 on 99% of pixels, a whole frame on the Knuth
  path. The pipeline never feeds the sampler such a frame: HDR fusion
  samples a short bracket only on the pixels the 12 ms bracket saturated
  (25,600 of 3,686,400 on the full-dye benchmark scene at config seed 5);
* hdr 12ms 1440 x 2560: the raster the full-dye scene's 12 ms bracket
  feeds the sampler, λ ≈ 3-4 on the 800 x 800 block under a 0.01 shadow
  (17% of pixels) and λ ≥ 50 everywhere else;
* expose hdr 12ms 1440 x 2560: ``sensor.expose`` of that raster as a
  rate over 12 ms on the default sensor: the noise sampler with its
  input, then the ADC.

Pixel integration is plain numpy and is timed end to end by perfbench/.
"""

import argparse
import time
import tracemalloc

import numpy as np

from camsim.kernels import sample_sensor_noise
from camsim.sensor import SensorSpec, expose

_HDR_T = 12e-3  # the duration of the hdr 12ms raster's bracket


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _rasters(size):
    rng = np.random.default_rng(0)
    short = rng.uniform(0.0, 4.0, (1440, 2560))
    bright = rng.random(short.shape) < 0.01
    short[bright] = rng.uniform(4.0, 2000.0, np.count_nonzero(bright))
    rasters = {
        f"U(0,2000) {size}x{size}": rng.uniform(0.0, 2000.0, (size, size)),
        f"flat 45 {size}x{size}": np.full((size, size), 45.0),
        "short 1440x2560": short,
    }
    hdr = rng.uniform(100.0, 3000.0, short.shape)
    hdr[400:1200, 1600:2400] = rng.uniform(2.8, 4.0, (800, 800))
    rasters["hdr 12ms 1440x2560"] = hdr
    return rasters


def _peak_mib(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _cases(size):
    """{row name: the call it times}"""
    rasters = _rasters(size)
    cases = {name: (lambda lam=lam: sample_sensor_noise(lam, 24.0, 13500.0, seed=7))
             for name, lam in rasters.items()}
    rate = rasters["hdr 12ms 1440x2560"] / _HDR_T
    cases["expose hdr 12ms 1440x2560"] = lambda: expose(rate, SensorSpec(), _HDR_T, seed=7)
    return cases


def bench(size, repeats):
    print(f"\nsensor noise, best of {repeats}:")
    print(f"{'raster':<26} {'time [ms]':>12} {'peak [MiB]':>12}")
    for name, fn in _cases(size).items():
        fn()  # warm up
        print(f"{name:<26} {_time(fn, repeats) * 1e3:>12.2f} {_peak_mib(fn):>12.1f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    bench(args.size, args.repeats)


if __name__ == "__main__":
    main()
