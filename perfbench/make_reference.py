"""Record the reference outputs the benchmark's output check compares against.

    python3 perfbench/make_reference.py

Runs each workload once per reference config seed (the same child process
and environment as the benchmark) and writes ``perfbench/reference.json``.
Only re-record on a commit whose outputs are known to be right.
"""

import json
import shutil
import sys

import run
from check import TOLERANCE, extract
from workloads import REFERENCE_SEEDS, WORKLOADS


def main() -> int:
    refs = {"tolerance": TOLERANCE, "workloads": {}}
    work = run.ROOT / ".perfbench_work" / "reference"
    try:
        for name, wl in WORKLOADS.items():
            seeds = {}
            for seed in range(REFERENCE_SEEDS):
                runner = run.Runner(wl, seed, work / f"{name}-{seed}")
                call = runner.invoke()
                if call["rc"] != 0:
                    print(f"{name} seed {seed}: exit {call['rc']}", file=sys.stderr)
                    return 1
                record = extract(wl, call["dir"] / "out")
                if wl.command == "sweep-pixel" and any(record.pop("errors").values()):
                    print(f"{name} seed {seed}: scene errors", file=sys.stderr)
                    return 1
                seeds[str(wl.config_seed(seed))] = record
                print(f"{name} config seed {wl.config_seed(seed)}: wall {call['wall_s']:.2f} s")
            refs["workloads"][name] = {"scenes": wl.scenes, "seeds": seeds}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
