"""The stage micro-benchmark: it runs end to end, times each row in a fresh
process, says in one line when camsim is not importable, and its acquire
rows time the frames that the workloads' own commands acquire."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import camsim
from camsim import cli
from camsim.exposure import HDRFrame

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "stage_bench.py"

ROWS = ["readme_run:optics", "readme_run:acquire", "readme_run:render",
        "pixel_sweep:optics", "pixel_sweep:loaded:optics", "pixel_sweep:acquire",
        "pixel_sweep:render", "hdr_fulldye:optics", "hdr_fulldye:acquire", "hdr_fulldye:render",
        "noise:uniform", "noise:flat45", "noise:short"]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))
    return importlib.import_module("stage_bench")


def test_stage_bench_runs_each_row_it_is_given():
    src = str(Path(camsim.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    rows = ["readme_run:optics", "readme_run:acquire", "readme_run:render", "noise:uniform"]
    proc = subprocess.run([sys.executable, str(SCRIPT), "--rows", *rows, "--repeats", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()[3:]]
    assert [line[0] for line in lines] == rows, proc.stdout
    assert [line[1] for line in lines] == ["480x640", "240x320", "240x320", "1024x1024"]


def test_stage_bench_times_every_row_in_a_fresh_process(bench, monkeypatch, capsys):
    rows = []

    def run(cmd, **kwargs):
        assert cmd == [sys.executable, bench.__file__, "--row", cmd[3], "--repeats", "1"]
        rows.append(cmd[3])
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{rows[-1]} timed\n")

    monkeypatch.setattr(bench.subprocess, "run", run)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--repeats", "1"])
    bench.main()
    assert rows == ROWS
    assert capsys.readouterr().out.splitlines()[3:] == [f"{row} timed" for row in ROWS]


def test_stage_bench_without_camsim_says_so():
    """Without site-packages and PYTHONPATH (-S -E), camsim cannot be
    imported, and the script says so in one line."""
    proc = subprocess.run([sys.executable, "-S", "-E", str(SCRIPT)], capture_output=True,
                          text=True, cwd=SCRIPT.parent, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.strip().count("\n") == 0 and "PYTHONPATH" in proc.stderr


def _frame_bytes(source) -> bytes:
    """The DN of a raw frame, or the electron rate of an HDR frame."""
    return (source.rate_e_per_s if isinstance(source, HDRFrame) else source.dn).tobytes()


@pytest.mark.parametrize("name", ["readme_run", "pixel_sweep", "hdr_fulldye"])
def test_the_acquire_row_times_the_frames_the_workload_acquires(name, bench, monkeypatch,
                                                                 tmp_path):
    """The workload's own command, on a config of one scene (the run's first
    scene is the same at any scene count), acquires the frames that the
    row's call returns, byte for byte, one per pixel size."""
    workload = bench._workloads()[name]
    cfg = workload.config(0, str(tmp_path / "out"))
    cfg["scenes"]["count"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    acquired = []
    acquire = cli.acquire

    def record(*args):
        acquired.append(acquire(*args))
        return acquired[-1]

    monkeypatch.setattr(cli, "acquire", record)
    monkeypatch.setenv("CAMSIM_THREADS", "1")
    assert cli.main(workload.argv(str(config))) == 0
    _, row = bench._case(f"{name}:acquire")
    want = row()
    assert len(acquired) == len(want) == max(1, len(workload.pixel_sizes))
    for got, ref in zip(acquired, want):
        assert _frame_bytes(got.source) == _frame_bytes(ref.source)


@pytest.mark.parametrize("name", ["readme_run", "pixel_sweep", "hdr_fulldye"])
def test_the_render_row_renders_the_rows_the_workload_detector_reads(name, bench, monkeypatch,
                                                                     tmp_path):
    """The workload's own command, on a config of one scene, renders each
    frame for the rows its proxy detector reads; the row's call renders
    the same frames for the same rows, through the same ISP."""
    workload = bench._workloads()[name]
    cfg = workload.config(0, str(tmp_path / "out"))
    cfg["scenes"]["count"] = 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    calls = {"cli": [], "bench": []}

    def recording(side, render):
        def record(frame, isp, rows=None):
            calls[side].append((_frame_bytes(frame), isp, rows))
            return render(frame, isp, rows=rows)
        return record

    monkeypatch.setattr(cli, "render", recording("cli", cli.render))
    monkeypatch.setenv("CAMSIM_THREADS", "1")
    assert cli.main(workload.argv(str(config))) == 0
    monkeypatch.setattr(bench, "render", recording("bench", bench.render))
    _, row = bench._case(f"{name}:render")
    row()
    assert len(calls["cli"]) == max(1, len(workload.pixel_sizes))
    assert calls["bench"] == calls["cli"]
    assert all(rows for _, _, rows in calls["cli"])  # every frame has a box to read
