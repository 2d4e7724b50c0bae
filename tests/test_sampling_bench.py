"""Smoke test: the sampling micro-benchmark script runs and prints a row
per workload, and one for pixel_sweep's scene saved and loaded back, each
timed in a fresh process."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import camsim

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "sampling_bench.py"


def test_sampling_bench_runs():
    src = str(Path(camsim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = {line.split()[0] for line in proc.stdout.splitlines() if line.strip()}
    for row in ("readme_run", "pixel_sweep", "pixel_sweep:loaded", "hdr_fulldye"):
        assert row in rows, proc.stdout


def test_sampling_bench_times_each_row_in_a_fresh_process(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    bench = importlib.import_module("sampling_bench")
    rows = []

    def run(cmd, **kwargs):
        assert cmd[:2] == [sys.executable, bench.__file__]
        rows.append(cmd[cmd.index("--row") + 1])
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{rows[-1]} timed\n")

    monkeypatch.setattr(bench.subprocess, "run", run)
    bench.bench(["readme_run", "pixel_sweep"], 1)
    assert rows == ["readme_run", "pixel_sweep", "pixel_sweep:loaded"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == [f"{row} timed" for row in rows]


def test_sampling_bench_row_prints_only_its_line():
    src = str(Path(camsim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--row", "readme_run", "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["readme_run"]


def test_sampling_bench_without_camsim_says_so():
    """Without site-packages and PYTHONPATH (-S -E), camsim cannot be
    imported, and the script says so in one line."""
    proc = subprocess.run([sys.executable, "-S", "-E", str(SCRIPT)], capture_output=True,
                          text=True, cwd=SCRIPT.parent, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().count("\n") == 0 and "PYTHONPATH" in proc.stderr
