"""Hash every output file of the benchmark's workload configs.

Usage:
    PYTHONPATH=src python3 benchmarks/output_hashes.py [--workloads NAME ...]
        [--seeds 0 1 ...] [--threads 1 2] [--set KEY=JSON ...] [--command ARG ...]

Runs the camsim tree on PYTHONPATH. For each workload of
perfbench/workloads.py, benchmark seed and CAMSIM_THREADS value, it writes
the workload's run config into a temporary directory and runs
``python -m camsim.cli`` there with the workload's own arguments, with one
BLAS thread as perfbench does. It prints one JSON object that maps
``workload/seed/threads/file`` to the sha256 of every file the command
wrote, and ``workload/seed/threads/exit`` to its exit code, so the outputs
of two trees compare with ``diff``. The commands inherit the caller's
environment, so ``OPENBLAS_CORETYPE`` (an OpenBLAS kernel, on a build with
DYNAMIC_ARCH) and ``NPY_DISABLE_CPU_FEATURES`` (numpy's SIMD level) set
there reach them, and the outputs of two kernels compare the same way:

    OPENBLAS_CORETYPE=Nehalem PYTHONPATH=src python3 benchmarks/output_hashes.py

``--set KEY=JSON`` sets a key of every run config to a JSON value before
the config is written; a dotted key names a nested one, and the option
repeats. With ``save_images`` set, a run writes the PPM of every rendered
frame, and those files are hashed with the rest:

    --set save_images=true
    --set save_images=true --set isp.gamma='{"mode": "srgb"}'

``--command`` replaces the workload's arguments. In it, ``{config}`` is the
run config, ``{out}`` an empty output directory and ``{spec}`` the spec of
the first scene that a run of the config synthesizes, as a standalone scene
spec (so ``synth {spec} {out} -n N`` writes the run's first N scenes):

    --command sweep-exposure {config} --lux 10 500
    --command edge-case {config}
    --command synth {spec} {out} -n 3
"""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads() -> dict:
    """perfbench/workloads.py's WORKLOADS, loaded without writing bytecode
    under perfbench/."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _scene_spec(cfg: dict) -> dict:
    """The spec of the first scene that a run of `cfg` synthesizes."""
    from camsim.cli import RunConfig, _load_scenes
    from camsim.config import to_config

    return to_config(_load_scenes(RunConfig.from_dict(cfg))[0][1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _override(text: str) -> tuple:
    """(key path, value) of a ``KEY=JSON`` argument."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=JSON, got {text!r}")
    try:
        return tuple(key.split(".")), json.loads(value)
    except json.JSONDecodeError as e:
        raise argparse.ArgumentTypeError(f"{key}: value is not JSON: {e}") from e


def hash_outputs(workload, seed: int, threads: int, command=None, overrides=()) -> dict:
    """{file path under the output directory: sha256} of one command run
    on `workload`'s config at benchmark `seed`, with each (key path, value)
    of `overrides` set in it, plus {"exit": its exit code}."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        cfg = workload.config(seed, str(out))
        for (*parents, key), value in overrides:
            section = cfg
            for name in parents:
                section = section.setdefault(name, {})
            section[key] = value
        paths = {"config": tmp / "config.json", "spec": tmp / "spec.json", "out": out}
        paths["config"].write_text(json.dumps(cfg))
        paths["spec"].write_text(json.dumps(_scene_spec(cfg)))
        argv = ([a.format(**paths) for a in command] if command
                else workload.argv(str(paths["config"])))
        env = {**os.environ, "CAMSIM_THREADS": str(threads), "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-m", "camsim.cli", *argv], cwd=tmp, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"{workload.name} seed {seed}: exit {proc.returncode}: {proc.stderr}",
                  file=sys.stderr)
        hashes = {str(p.relative_to(out)): _sha256(p)
                  for p in sorted(out.rglob("*")) if p.is_file()} if out.is_dir() else {}
        return {**hashes, "exit": proc.returncode}


def main():
    workloads = _workloads()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=sorted(workloads), default=list(workloads))
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--threads", type=int, nargs="+", default=[2])
    p.add_argument("--set", type=_override, action="append", default=[], metavar="KEY=JSON",
                   help="set a run-config key (dotted: a nested one) to a JSON value; repeats")
    p.add_argument("--command", nargs=argparse.REMAINDER,
                   help="camsim arguments in place of the workload's own (last option)")
    args = p.parse_args()
    camsim = importlib.util.find_spec("camsim")
    if camsim is None:
        sys.exit("output_hashes.py: camsim is not importable; put its sources on "
                 "PYTHONPATH (PYTHONPATH=src)")
    # the commands run in temporary directories: give them this camsim by absolute path
    src = str(Path(camsim.origin).resolve().parents[1])
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = {}
    for name in args.workloads:
        for seed in args.seeds:
            for threads in args.threads:
                for file, digest in hash_outputs(workloads[name], seed, threads,
                                                 args.command, args.set).items():
                    result[f"{name}/{seed}/{threads}/{file}"] = digest
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
