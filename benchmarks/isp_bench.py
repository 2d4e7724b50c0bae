"""Benchmark the ISP's render.

Usage:
    python3 benchmarks/isp_bench.py [--size 1440] [--repeats 5]

Renders two frames through the default ISP (demosaic, color, adaptive
gamma) and prints, for each, the best-of-N time and the tracemalloc peak of
one render above what was allocated before it:

* hdr: an HDR frame of size x (16·size/9) pixels, 1440 x 2560 by default
  (the full-dye frame), fused by `hdr_combine` from the default brackets
  (12 ms, 0.12 ms, 12 µs) of a noise-free lognormal rate with a 100x darker
  block. Like the frames the pipeline fuses, it holds codes over durations,
  at most 3 x 1024 distinct values (1201 at the default size), and 7% of
  its pixels come from the shorter brackets;
* raw 240x320: a RawFrame of uniform 10-bit codes.
"""

import argparse
import time
import tracemalloc

import numpy as np

from camsim.exposure import DEFAULT_BRACKET_S, hdr_combine
from camsim.isp import render
from camsim.sensor import RawFrame, SensorSpec, adc


def _time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _peak_mib(fn):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def _frames(size):
    rng = np.random.default_rng(0)
    sensor = SensorSpec()
    h, w = size, 16 * size // 9
    rate = rng.lognormal(12.5, 1.0, (h, w))
    rate[h // 4:3 * h // 4, w // 2:w // 2 + h // 2] /= 100.0
    hdr = hdr_combine([adc(rate * t, sensor, t) for t in DEFAULT_BRACKET_S])
    dn = rng.integers(0, sensor.max_code() + 1, (240, 320)).astype(np.uint16)
    raw = RawFrame(dn, dn == sensor.max_code(), 1e-3, sensor)
    return {f"hdr {h}x{w}": hdr, "raw 240x320": raw}


def bench(size, repeats):
    print(f"\nisp.render (demosaic, color, adaptive gamma), best of {repeats}:")
    print(f"{'frame':<16} {'time [ms]':>12} {'peak [MiB]':>12}")
    for name, frame in _frames(size).items():
        render(frame)  # warm up
        ms = _time(lambda: render(frame), repeats) * 1e3
        print(f"{name:<16} {ms:>12.2f} {_peak_mib(lambda: render(frame)):>12.1f}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--size", type=int, default=1440)
    p.add_argument("--repeats", type=int, default=5)
    args = p.parse_args()
    bench(args.size, args.repeats)


if __name__ == "__main__":
    main()
