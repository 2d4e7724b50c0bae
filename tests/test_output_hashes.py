"""Smoke test: the output-hash tool runs one workload call and prints the
same hashes twice, and its --set overrides reach the run config."""

import argparse
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import camsim

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "output_hashes.py"


def _hashes(*args) -> dict:
    src = str(Path(camsim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT), "--workloads", "readme_run",
                           "--seeds", "0", "--threads", "1", *args],
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


def test_set_overrides_a_run_config_key():
    """--set save_images=true makes the run write, and the tool hash, the
    PPM of every scene; every other file keeps its hash, so an image
    rendered whole gives the detections of one rendered for the rows the
    detector reads."""
    plain = _hashes()
    saved = _hashes("--set", "save_images=true")
    ppms = {k for k in saved if k.endswith(".ppm")}
    assert len(ppms) == 48
    assert {k: v for k, v in saved.items() if k not in ppms} == plain


def test_set_parses_a_dotted_key_and_a_json_value(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    tool = importlib.import_module("output_hashes")
    assert tool._override("save_images=true") == (("save_images",), True)
    assert tool._override('isp.gamma={"mode": "srgb"}') == (("isp", "gamma"), {"mode": "srgb"})
    for bad in ("save_images", "=1", "seed=one"):
        with pytest.raises(argparse.ArgumentTypeError):
            tool._override(bad)


def test_output_hashes_without_camsim_says_so():
    """Without site-packages and PYTHONPATH (-S -E), camsim cannot be
    imported, and the tool says so in one line instead of a traceback."""
    proc = subprocess.run([sys.executable, "-S", "-E", str(SCRIPT), "--workloads", "readme_run"],
                          capture_output=True, text=True, cwd=SCRIPT.parent, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().count("\n") == 0 and "PYTHONPATH" in proc.stderr
