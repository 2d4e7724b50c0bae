"""Smoke test: the output-hash tool runs one workload call and prints the
same hashes twice."""

import json
import os
import subprocess
import sys
from pathlib import Path

import camsim

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "output_hashes.py"


def _hashes() -> dict:
    src = str(Path(camsim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workloads", "readme_run",
                           "--seeds", "0", "--threads", "1"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_output_hashes_are_stable():
    first = _hashes()
    assert first["readme_run/0/1/exit"] == 0
    for name in ("summary.json", "detections.json", "exposures.json", "metrics.csv",
                 "dataset.json"):
        assert len(first[f"readme_run/0/1/{name}"]) == 64, name
    assert _hashes() == first


def test_output_hashes_without_camsim_says_so():
    """Without site-packages and PYTHONPATH (-S -E), camsim cannot be
    imported, and the tool says so in one line instead of a traceback."""
    proc = subprocess.run([sys.executable, "-S", "-E", str(SCRIPT), "--workloads", "readme_run"],
                          capture_output=True, text=True, cwd=SCRIPT.parent, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().count("\n") == 0 and "PYTHONPATH" in proc.stderr
