"""Smoke test: the noise micro-benchmark script runs and prints all four
raster rows and the exposure row."""

import os
import subprocess
import sys
from pathlib import Path

import camsim

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "noise_bench.py"


def test_noise_bench_runs():
    src = str(Path(camsim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--size", "16", "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for row in ("U(0,2000) 16x16", "flat 45 16x16", "short 1440x2560",
                "hdr 12ms 1440x2560", "expose hdr 12ms 1440x2560"):
        assert any(line.startswith(row) for line in proc.stdout.splitlines()), proc.stdout
