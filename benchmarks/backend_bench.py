"""Benchmark the jitted vs. pure-numpy sensor-noise kernel.

Usage:
    python3 benchmarks/backend_bench.py [--size 1024] [--repeats 5]

Times the sensor-noise sampler under both backends (forced via
CAMSIM_BACKEND) and prints a speedup table, plus a correctness cross-check
between the two paths. Pixel integration is plain numpy (no jitted path)
and is timed end to end by perfbench/.
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


def bench(size, repeats):
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.0, 2000.0, (size, size))
    cases = {
        "sensor noise": lambda: sample_sensor_noise(lam, 24.0, 13500.0, seed=7),
    }

    results = {}
    for backend in ("numpy", "numba"):
        if backend == "numba" and not HAVE_NUMBA:
            print("numba not installed; skipping jitted timings")
            continue
        os.environ["CAMSIM_BACKEND"] = backend
        for name, fn in cases.items():
            fn()  # warm up (includes JIT compile for numba)
            results[(backend, name)] = _time(fn, repeats)

    print(f"\nraster {size}x{size}, best of {repeats}:")
    print(f"{'kernel':<20} {'numpy [ms]':>12} {'numba [ms]':>12} {'speedup':>8}")
    for name in cases:
        t_np = results[("numpy", name)] * 1e3
        t_nb = results.get(("numba", name))
        if t_nb is None:
            print(f"{name:<20} {t_np:>12.2f} {'-':>12} {'-':>8}")
        else:
            t_nb *= 1e3
            print(f"{name:<20} {t_np:>12.2f} {t_nb:>12.2f} {t_np / t_nb:>7.1f}x")

    if HAVE_NUMBA:
        os.environ["CAMSIM_BACKEND"] = "numpy"
        a_noise = sample_sensor_noise(lam, 24.0, 13500.0, seed=7)
        os.environ["CAMSIM_BACKEND"] = "numba"
        b_noise = sample_sensor_noise(lam, 24.0, 13500.0, seed=7)
        print(f"\nnoise kernels match (atol 1e-9): "
              f"{bool(np.allclose(a_noise, b_noise, rtol=0.0, atol=1e-9))}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    bench(args.size, args.repeats)


if __name__ == "__main__":
    main()
