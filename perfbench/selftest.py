"""Self-tests for the benchmark harness.

    python3 perfbench/selftest.py

Checks that:

1. a smoke run of every workload at a reduced scene count emits exactly the
   metrics BENCHMARK.json names, each with the unit it states, with and
   without tracing;
2. traced and untraced invocations of every full-size workload write
   byte-identical outputs;
3. the tracer wraps every binding of a layer function (including the
   ``from .optics import radiance_to_irradiance`` copies) and removes every
   wrapper afterwards;
4. at CAMSIM_THREADS=1 the traced per-layer self times of every full-size
   workload sum to within 5% of the invocation's wall time.

Exits 0 when all pass; prints one line per check.
"""

import dataclasses
import hashlib
import json
import shutil
import sys

import run
import trace_layers
from workloads import WORKLOADS

REDUCED_SCENES = {"readme_run": 4, "pixel_sweep": 1, "hdr_fulldye": 1}
SELF_SUM_TOLERANCE = 0.05


def _digest(out) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def check_metric_names(wl, work) -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.measure(wl, 0, 0.0, trace, work / f"smoke-{int(trace)}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != want:
            failures.append(f"{key} metrics differ: missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, units "
                            f"{ {n: (got[n], want[n]) for n in got if n in want and got[n] != want[n]} }")
        bad = [n for n, m in result["metrics"].items()
               if not isinstance(m["value"], (int, float))]
        if bad:
            failures.append(f"non-numeric values for {bad}")
    return failures


def check_trace_identity_and_self_sum(wl, work) -> list:
    failures = []
    runner = run.Runner(wl, 0, work / "identity", threads=1)
    plain = runner.invoke()
    traced = runner.invoke(traced=True)
    if plain["rc"] or traced["rc"]:
        return [f"exit codes {plain['rc']} / {traced['rc']}"]
    if _digest(plain["dir"] / "out") != _digest(traced["dir"] / "out"):
        failures.append("traced outputs differ from untraced outputs")
    doc = json.loads((traced["dir"] / "spans.json").read_text())
    if doc["leftover_wrappers"]:
        failures.append(f"wrappers left after the traced run: {doc['leftover_wrappers']}")
    layers = trace_layers.layer_metrics(doc["spans"], wl.scenes, 1)
    share = trace_layers.self_sum(layers) / traced["wall_s"]
    print(f"  {wl.name}: layer self times sum to {share:.3f} of the traced wall time "
          f"({traced['wall_s']:.2f} s) at CAMSIM_THREADS=1")
    if abs(share - 1.0) > SELF_SUM_TOLERANCE:
        failures.append(f"self-time sum is {share:.3f} of wall time")
    return failures


def check_wrap_and_unwrap() -> list:
    sys.path.insert(0, str(run.SRC))
    import camsim.cli  # noqa: F401  (loads every layer module)

    before = {(m.__name__, a): v for m in trace_layers.camsim_modules()
              for a, v in vars(m).items()}
    tracer = trace_layers.Tracer()
    tracer.install()
    failures = []
    for mod in ("optics", "sensor", "exposure", "cli"):
        fn = getattr(sys.modules[f"camsim.{mod}"], "radiance_to_irradiance")
        if getattr(fn, trace_layers.MARK, None) != "optics.radiance_to_irradiance":
            failures.append(f"camsim.{mod}.radiance_to_irradiance is not wrapped")
    if not trace_layers.find_wrappers():
        failures.append("install() wrapped nothing")
    tracer.uninstall()
    leftover = trace_layers.find_wrappers()
    after = {(m.__name__, a): v for m in trace_layers.camsim_modules()
             for a, v in vars(m).items()}
    changed = sorted(f"{k[0]}.{k[1]}" for k in before if after.get(k) is not before[k])
    if leftover or changed:
        failures.append(f"uninstall left wrappers {leftover} / changed bindings {changed}")
    return failures


def main() -> int:
    work = run.ROOT / ".perfbench_work" / "selftest"
    ok = True
    try:
        results = [("wrappers installed on every binding and removed", check_wrap_and_unwrap())]
        for name, wl in WORKLOADS.items():
            smoke = dataclasses.replace(wl, scenes=REDUCED_SCENES[name])
            results.append((f"{name}: metrics emitted with units (smoke, {smoke.scenes} scenes)",
                            check_metric_names(smoke, work / name)))
            results.append((f"{name}: tracing keeps outputs identical; self-time sum",
                            check_trace_identity_and_self_sum(wl, work / name)))
        for label, failures in results:
            ok &= not failures
            print(f"{'PASS' if not failures else 'FAIL'} {label}")
            for f in failures:
                print(f"    {f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
