"""Outside-in layer tracing for camsim, and the per-layer metrics built from it.

``Tracer.install`` wraps every public function defined in each layer module
(plus the CLI's per-scene pool task and scene loader) and rebinds the wrapper
under every name that holds the original in any loaded ``camsim`` module, so
``from .optics import radiance_to_irradiance`` copies in ``sensor``,
``exposure`` and ``cli`` are traced too. ``uninstall`` puts every original
back. Spans are ``[name, start, end, thread, parent, counts]`` kept in memory.

A span opened on a thread with no open span (a pool worker) takes the main
thread's innermost open span as its parent, so worker spans link back to
``cli._process_scene`` and through it to ``cli.run_pipeline``. Self time is a
span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("scene", "optics", "sensor", "kernels", "exposure", "isp", "annotation",
          "detector", "evalmetrics", "cli")
PRIVATE_TRACED = {"cli._process_scene", "cli._load_scenes"}
MARK = "__perfbench_span__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_cube(args, kwargs, result):
    return {"cube_bytes": int(result.values.nbytes)}


def _count_psf(args, kwargs, result):
    applied = result is not _arg(args, kwargs, 0, "cube")
    return {"applied": int(applied), "cube_bytes": int(result.values.nbytes) if applied else 0}


def _count_mosaic(args, kwargs, result):
    return {"pixels": int(result.size)}


def _count_noise(args, kwargs, result):
    import numpy as np
    from camsim.kernels import NORMAL_CUTOFF

    lam = np.asarray(_arg(args, kwargs, 0, "expected_e"))
    return {"pixels": int(lam.size), "small_lambda": int(np.count_nonzero(lam < NORMAL_CUTOFF))}


def _count_detect(args, kwargs, result):
    return {"detections": len(result), "boxes": len(_arg(args, kwargs, 1, "truths"))}


COUNTERS = {
    "optics.radiance_to_irradiance": _count_cube,
    "optics.apply_psf": _count_psf,
    "kernels.integrate_mosaic": _count_mosaic,
    "kernels.sample_sensor_noise": _count_noise,
    "detector.proxy_detect": _count_detect,
}


def camsim_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "camsim" or name.startswith("camsim."))]


def find_wrappers() -> list:
    """Dotted names of every camsim module attribute that is still a wrapper."""
    return sorted(f"{m.__name__}.{attr}" for m in camsim_modules()
                  for attr, val in vars(m).items() if hasattr(val, MARK))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patched: list = []  # (module, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _pool_parent(self):
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent()
            with self._lock:
                idx = len(self.spans)
                self.spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.spans[idx] = [name, t0, t1, threading.get_ident(), parent, None]
            if counter is not None:
                self.spans[idx][5] = counter(args, kwargs, result)
            return result

        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"camsim.{layer}")
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and name not in PRIVATE_TRACED:
                    continue
                wrappers[id(fn)] = (fn, self.wrap(name, fn))
        for mod in camsim_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


# ------------------------------------------------------------- analysis ----

def self_times(spans: list) -> list:
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[4] is not None:
            children[s[4]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list, scenes: int, workers: int) -> dict:
    """Per-layer values (name -> number) from one traced invocation.

    scenes: distinct scenes the invocation synthesizes; workers: pool size.
    """
    selfs = self_times(spans)
    calls, self_s, layer_self = defaultdict(int), defaultdict(float), defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    for s, st in zip(spans, selfs):
        name = s[0]
        calls[name] += 1
        self_s[name] += st
        layer_self[name.split(".", 1)[0]] += st
        for k, v in (s[5] or {}).items():
            counts[name][k] += v

    tasks = [s[2] - s[1] for s in spans if s[0] == "cli._process_scene"]
    busy = capacity = 0.0
    for i, s in enumerate(spans):
        if s[0] == "cli.run_pipeline":
            capacity += workers * (s[2] - s[1])
            busy += sum(t[2] - t[1] for t in spans
                        if t[4] == i and t[0] == "cli._process_scene")

    psf = counts["optics.apply_psf"]
    noise = counts["kernels.sample_sensor_noise"]
    det = counts["detector.proxy_detect"]
    m = {
        "scene.synthesize.calls": calls["scene.synthesize"],
        "scene.synthesize.self_s": self_s["scene.synthesize"],
        "scene.synth_per_scene": _ratio(calls["scene.synthesize"], scenes),
        "optics.radiance_to_irradiance.calls": calls["optics.radiance_to_irradiance"],
        "optics.radiance_to_irradiance.self_s": self_s["optics.radiance_to_irradiance"],
        "optics.apply_psf.calls": calls["optics.apply_psf"],
        "optics.apply_psf.self_s": self_s["optics.apply_psf"],
        "optics.apply_psf.applied_ratio": _ratio(psf["applied"], calls["optics.apply_psf"]),
        "optics.passes_per_scene": _ratio(calls["optics.radiance_to_irradiance"], scenes),
        "optics.cube_mb": (counts["optics.radiance_to_irradiance"]["cube_bytes"]
                           + psf["cube_bytes"]) / 1e6,
        "sensor.capture.calls": calls["sensor.capture"],
        "sensor.integrate.self_s": self_s["sensor.integrate"],
        "sensor.apply_noise.self_s": self_s["sensor.apply_noise"],
        "sensor.adc.self_s": self_s["sensor.adc"],
        "kernels.integrate_mosaic.self_s": self_s["kernels.integrate_mosaic"],
        "kernels.integrate_mosaic.mpix": counts["kernels.integrate_mosaic"]["pixels"] / 1e6,
        "kernels.sample_sensor_noise.self_s": self_s["kernels.sample_sensor_noise"],
        "kernels.sample_sensor_noise.mpix": noise["pixels"] / 1e6,
        "kernels.sample_sensor_noise.small_lambda_frac": _ratio(noise["small_lambda"],
                                                                noise["pixels"]),
        "exposure.center_weighted_duration.calls": calls["exposure.center_weighted_duration"],
        "exposure.center_weighted_duration.self_s":
            self_s["exposure.center_weighted_duration"],
        "exposure.bracketed_capture.calls": calls["exposure.bracketed_capture"],
        "exposure.hdr_combine.self_s": self_s["exposure.hdr_combine"],
        "isp.render.calls": calls["isp.render"],
        "isp.demosaic_bilinear.self_s": self_s["isp.demosaic_bilinear"],
        "isp.color_correct.self_s": self_s["isp.color_correct"],
        "isp.apply_gamma.self_s": self_s["isp.apply_gamma"],
        "isp.fit_color_matrix.calls": calls["isp.fit_color_matrix"],
        "annotation.project_truth.calls": calls["annotation.project_truth"],
        "annotation.project_truth.self_s": self_s["annotation.project_truth"],
        "annotation.export_dataset.self_s": self_s["annotation.export_dataset"],
        "detector.proxy_detect.self_s": self_s["detector.proxy_detect"],
        "detector.detectability.calls": calls["detector.detectability"],
        "detector.detectability.self_s": self_s["detector.detectability"],
        "detector.detect_ratio": _ratio(det["detections"], det["boxes"]),
        "evalmetrics.ap_vs_distance.self_s": self_s["evalmetrics.ap_vs_distance"],
        "evalmetrics.average_precision.self_s": self_s["evalmetrics.average_precision"],
        "cli.worker_busy_frac": _ratio(busy, capacity),
        "cli.scene_task_s.p50": statistics.median(tasks) if tasks else 0.0,
        "cli.scene_task_s.max": max(tasks, default=0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def self_sum(metrics: dict) -> float:
    """Total self time over all layers of a layer_metrics() result."""
    return sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
