"""End-to-end benchmark of the camsim CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each timed invocation is one closed-loop CLI
call in a fresh child process (``perfbench/child.py``, which calls
``camsim.cli.main`` as ``python -m camsim.cli`` does) with a pinned
environment: ``PYTHONPATH=src``, ``CAMSIM_THREADS=2``, one BLAS/OpenMP thread
and no ``CAMSIM_BACKEND``. Invocations repeat until ``--seconds`` is used
(at least MIN_CALLS); every invocation's outputs are checked against
``reference.json``. The last stdout line is one JSON object:

* ``--trace 0``: end-to-end metrics (medians over the invocations);
* ``--trace 1``: untraced and traced invocations alternate; per-layer
  metrics are medians over the traced ones, and ``trace.overhead_s`` is the
  traced minus the untraced median wall time.

``attempted`` and ``failed`` count scene-variants; a nonzero exit code, a
scene error or an output outside the check's tolerance fails them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import trace_layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREADS = 2
MIN_CALLS = 3
SETUP_REPS = 5  # extra set-up-only children per run, on top of one per call
RUN_DEADLINE_S = 170.0  # children still running this long after a Runner starts are killed

END_TO_END_UNITS = {"wall_s": "s", "scenes_per_s": "1/s", "cpu_s": "s",
                    "peak_rss_mb": "MiB", "setup_s": "s", "success_rate": "ratio"}
TRACE_UNITS = {"trace.wall_s": "s", "trace.overhead_s": "s", "trace.self_over_wall": "ratio",
               "optics.apply_psf.applied_ratio": "ratio", "optics.passes_per_scene": "1/scene",
               "scene.synth_per_scene": "1/scene", "optics.cube_mb": "MB",
               "kernels.integrate_mosaic.mpix": "Mpx", "kernels.sample_sensor_noise.mpix": "Mpx",
               "kernels.sample_sensor_noise.small_lambda_frac": "ratio",
               "detector.detect_ratio": "ratio", "cli.worker_busy_frac": "ratio"}


def per_layer_unit(name: str) -> str:
    if name in TRACE_UNITS:
        return TRACE_UNITS[name]
    return "count" if name.endswith(".calls") else "s"


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.pop("CAMSIM_BACKEND", None)  # the numba backend raises when numba is absent
    env.update(PYTHONPATH=str(SRC), CAMSIM_THREADS=str(threads), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def environment(threads: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "numba": importlib.util.find_spec("numba") is not None,
            "CAMSIM_THREADS": threads, "OPENBLAS_NUM_THREADS": 1, "OMP_NUM_THREADS": 1}


class Runner:
    """Spawns and times child invocations inside one scratch directory."""

    def __init__(self, workload, seed: int, work: Path, threads: int = THREADS):
        self.workload, self.seed, self.work = workload, seed, work
        self.env = child_env(threads)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.n = 0

    def invoke(self, setup_only: bool = False, traced: bool = False) -> dict:
        self.n += 1
        cwd = self.work / f"call{self.n:03d}"
        cwd.mkdir(parents=True)
        config = self.workload.config(self.seed, "out")
        (cwd / "config.json").write_text(json.dumps(config, indent=1))
        cmd = [sys.executable, str(BENCH / "child.py"), "--ready", "ready"]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--spans", "spans.json"] if traced else []
        cmd += ["--", *self.workload.argv("config.json")]
        with open(cwd / "child.log", "wb") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        ready = cwd / "ready"
        if not ready.is_file():
            tail = (cwd / "child.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"child failed before set-up finished (exit "
                               f"{proc.returncode}):\n{tail}")
        t_ready = float(ready.read_text())
        return {"dir": cwd, "rc": proc.returncode, "setup_s": t_ready - t0,
                "wall_s": t1 - t_ready, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mib": usage.ru_maxrss / 1024.0}

    def verify(self, call: dict, reference: dict | None) -> tuple:
        """(failed scene-variants, byte-identical?, problems) for one call."""
        wl = self.workload
        if call["rc"] != 0:
            return wl.variants, False, [f"exit code {call['rc']}"]
        try:
            got = check.extract(wl, call["dir"] / "out")
        except (OSError, ValueError, KeyError) as e:
            return wl.variants, False, [f"unreadable outputs: {e!r}"]
        if reference is None:
            return wl.variants, False, ["no reference for this config seed"]
        return check.compare(wl, got, reference)


def load_reference(workload, seed: int) -> dict | None:
    refs = json.loads((BENCH / "reference.json").read_text())
    entry = refs["workloads"].get(workload.name, {})
    if entry.get("scenes") != workload.scenes:
        return None
    return entry["seeds"].get(str(workload.config_seed(seed)))


def upper(samples: list) -> str:
    s = sorted(samples)
    return f"median {statistics.median(s):.4f}, max {s[-1]:.4f} (n={len(s)})"


def measure(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Run one benchmark measurement; returns (result dict, report lines)."""
    runner = Runner(workload, seed, work)
    reference = load_reference(workload, seed)
    start = time.monotonic()
    lines = []
    attempted = failed = 0
    identical = True
    problems: list = []

    def run_call(traced=False):
        nonlocal attempted, failed, identical
        call = runner.invoke(traced=traced)
        bad, same, why = runner.verify(call, reference)
        attempted += workload.variants
        failed += bad
        identical &= same
        problems.extend(why)
        if traced:
            doc = json.loads((call["dir"] / "spans.json").read_text())
            if doc["leftover_wrappers"]:
                failed += workload.variants
                problems.append(f"wrappers left installed: {doc['leftover_wrappers']}")
            layers = trace_layers.layer_metrics(doc["spans"], workload.scenes, THREADS)
            layers["trace.self_over_wall"] = trace_layers.self_sum(layers) / call["wall_s"]
            call["layers"] = layers
        shutil.rmtree(call["dir"])
        return call

    runner.invoke(setup_only=True)  # warm the file cache; not counted
    setups = [runner.invoke(setup_only=True)["setup_s"] for _ in range(SETUP_REPS)]
    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        plain.append(run_call())
        if trace:
            traced.append(run_call(traced=True))
        step = time.monotonic() - t0
        done = len(plain) >= (1 if trace else MIN_CALLS)
        if done and time.monotonic() - start + step > seconds:
            break
    setups += [c["setup_s"] for c in plain + traced]

    walls = [c["wall_s"] for c in plain]
    lines.append(f"wall_s {upper(walls)}")
    lines.append(f"setup_s {upper(setups)}")
    lines.append(f"output check: error_rate {failed / attempted:.4f} ({failed} of {attempted} "
                 f"scene-variants failed or outside tolerance {check.TOLERANCE}); "
                 f"byte-identical to reference: {identical}")
    lines += [f"  problem: {p}" for p in problems[:20]]
    if trace:
        tw = [c["wall_s"] for c in traced]
        names = list(traced[0]["layers"])
        metrics = {n: statistics.median(c["layers"][n] for c in traced) for n in names}
        metrics["trace.wall_s"] = statistics.median(tw)
        metrics["trace.overhead_s"] = statistics.median(tw) - statistics.median(walls)
        lines.append(f"traced wall_s {upper(tw)}; tracing overhead "
                     f"{metrics['trace.overhead_s']:.4f} s over untraced {upper(walls)}")
        lines.append("layer self_s: " + ", ".join(
            f"{layer} {metrics[f'{layer}.self_s']:.3f}" for layer in trace_layers.LAYERS)
            + f"; sum {trace_layers.self_sum(metrics):.3f} s = "
            f"{metrics['trace.self_over_wall']:.3f} x traced wall at CAMSIM_THREADS={THREADS}")
        out = {n: {"value": v, "unit": per_layer_unit(n)} for n, v in metrics.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "scenes_per_s": statistics.median(workload.variants / w for w in walls),
            "cpu_s": statistics.median(c["cpu_s"] for c in plain),
            "peak_rss_mb": statistics.median(c["rss_mib"] for c in plain),
            "setup_s": statistics.median(setups),
            "success_rate": 1.0 - failed / attempted,
        }
        lines.append("cpu_s " + upper([c["cpu_s"] for c in plain]))
        lines.append("peak_rss_mb " + upper([c["rss_mib"] for c in plain]))
        out = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": out}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "camsim" / "cli.py").is_file():
        print(f"benchmark error: camsim sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    try:
        result, lines = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    except RuntimeError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    head = {"workload": workload.name, "seed": args.seed,
            "config_seed": workload.config_seed(args.seed), "scenes": workload.scenes,
            "scene_variants_per_call": workload.variants, "seconds": args.seconds,
            "trace": args.trace, "environment": environment(THREADS)}
    print(f"# {json.dumps(head)}")
    for line in lines:
        print(f"# {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
