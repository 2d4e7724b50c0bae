"""Smoke test: the ISP micro-benchmark script runs and prints both frame
rows."""

import os
import subprocess
import sys
from pathlib import Path

import camsim

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "isp_bench.py"


def test_isp_bench_runs():
    src = str(Path(camsim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--size", "18", "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for row in ("hdr 18x32", "raw 240x320"):
        assert any(line.startswith(row) for line in lines), proc.stdout
