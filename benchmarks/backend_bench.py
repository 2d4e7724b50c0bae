"""Benchmark the jitted vs. pure-numpy sensor-noise kernel.

Usage:
    python3 benchmarks/backend_bench.py [--size 1024] [--repeats 5]

Times the sensor-noise sampler under both backends (forced via
CAMSIM_BACKEND) on three expected-electron rasters and prints a timing
table, plus a correctness cross-check between the two paths when numba is
installed:

* λ ~ U(0, 2000), size x size: almost every pixel takes the normal
  approximation;
* flat λ = 45, size x size: every pixel runs a long Knuth loop;
* short bracket, 1440 x 2560: λ < 4 on 99% of pixels, as a short HDR
  bracket of a full-dye frame produces.

Pixel integration is plain numpy (no jitted path) and is timed end to end
by perfbench/.
"""

import argparse
import os
import time

import numpy as np

from camsim.backend import HAVE_NUMBA
from camsim.kernels import sample_sensor_noise


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
    return {
        f"U(0,2000) {size}x{size}": rng.uniform(0.0, 2000.0, (size, size)),
        f"flat 45 {size}x{size}": np.full((size, size), 45.0),
        "short 1440x2560": short,
    }


def _noise(lam):
    return sample_sensor_noise(lam, 24.0, 13500.0, seed=7)


def bench(size, repeats):
    rasters = _rasters(size)
    results = {}
    for backend in ("numpy", "numba"):
        if backend == "numba" and not HAVE_NUMBA:
            print("numba not installed; skipping jitted timings")
            continue
        os.environ["CAMSIM_BACKEND"] = backend
        for name, lam in rasters.items():
            _noise(lam)  # warm up (includes JIT compile for numba)
            results[(backend, name)] = _time(lambda: _noise(lam), repeats)

    print(f"\nsensor noise, best of {repeats}:")
    print(f"{'raster':<24} {'numpy [ms]':>12} {'numba [ms]':>12} {'speedup':>8}")
    for name in rasters:
        t_np = results[("numpy", name)] * 1e3
        t_nb = results.get(("numba", name))
        if t_nb is None:
            print(f"{name:<24} {t_np:>12.2f} {'-':>12} {'-':>8}")
        else:
            t_nb *= 1e3
            print(f"{name:<24} {t_np:>12.2f} {t_nb:>12.2f} {t_np / t_nb:>7.1f}x")

    if HAVE_NUMBA:
        for name, lam in rasters.items():
            os.environ["CAMSIM_BACKEND"] = "numpy"
            a_noise = _noise(lam)
            os.environ["CAMSIM_BACKEND"] = "numba"
            b_noise = _noise(lam)
            print(f"{name}: noise kernels match (atol 1e-9): "
                  f"{bool(np.allclose(a_noise, b_noise, rtol=0.0, atol=1e-9))}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    bench(args.size, args.repeats)


if __name__ == "__main__":
    main()
