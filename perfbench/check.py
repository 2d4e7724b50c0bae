"""Output check: one invocation's outputs against the recorded reference.

Two verdicts are kept apart:

* identity: every checked output file is byte-identical to the reference
  (sha256). Reported, not gated, because a 1e-15 reordering of the optics
  arithmetic may legitimately flip a rare ADC code.
* the gate: values agree within TOLERANCE. Counts, geometry and image ids
  must match exactly. A mismatch fails the scene-variants it belongs to; a
  mismatch in an aggregate (summary, AP curve) fails them all.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

TOLERANCE = {
    "ap_abs": 1e-4,  # AP per bin and overall; detection scores
    "od50_abs_m": 1e-2,
    "box_abs_px": 1e-6,
    "exposure_rel": 1e-9,
}
RUN_FILES = ("summary.json", "metrics.csv", "exposures.json", "detections.json")
SWEEP_FILES = ("sweep_pixel.csv",)


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _num(v):
    return None if v in ("", None) else float(v)


def extract(workload, out: Path) -> dict:
    """The checked content of one invocation's outputs (raises OSError or
    ValueError when a file is missing or malformed)."""
    if workload.command == "sweep-pixel":
        with open(out / "sweep_pixel.csv", newline="") as f:
            rows = [[float(r["pixel_size_um"]), int(r["rows"]), int(r["cols"]),
                     _num(r["ap_overall"]),
                     r["od50_m"] if r["od50_m"] == "beyond-range" else float(r["od50_m"])]
                    for r in csv.DictReader(f)]
        errors = {}
        for size in workload.pixel_sizes:
            log = out / f"pixel_{size:g}um" / "errors.log"
            errors[f"{size:g}"] = len(log.read_text().splitlines()) if log.is_file() else 0
        return {"files": {n: _sha(out / n) for n in SWEEP_FILES}, "rows": rows,
                "errors": errors}
    with open(out / "metrics.csv", newline="") as f:
        metrics = [[float(r["bin_low_m"]), float(r["bin_high_m"]), int(r["gt_count"]),
                    _num(r["ap"])] for r in csv.DictReader(f)]
    detections: dict = {}
    for d in json.loads((out / "detections.json").read_text()):
        detections.setdefault(d["image_id"], []).append([*d["bbox"], d["score"]])
    return {
        "files": {n: _sha(out / n) for n in RUN_FILES},
        "summary": json.loads((out / "summary.json").read_text()),
        "metrics": metrics,
        "exposures": json.loads((out / "exposures.json").read_text()),
        "detections": detections,
    }


def _close(a, b, tol: float) -> bool:
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return a == b
    return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)


def _dets_match(got: list, ref: list) -> bool:
    return len(got) == len(ref) and all(
        all(_close(g, r, TOLERANCE["box_abs_px"]) for g, r in zip(gd[:4], rd[:4]))
        and _close(gd[4], rd[4], TOLERANCE["ap_abs"])
        for gd, rd in zip(got, ref))


def _summary_match(got: dict, ref: dict) -> bool:
    return (got["n_detections"] == ref["n_detections"]
            and got["n_ground_truth"] == ref["n_ground_truth"]
            and got["od50_beyond_range"] == ref["od50_beyond_range"]
            and _close(got["ap_overall"], ref["ap_overall"], TOLERANCE["ap_abs"])
            and _close(got["od50_m"], ref["od50_m"], TOLERANCE["od50_abs_m"]))


def _curve_match(got: list, ref: list) -> bool:
    return len(got) == len(ref) and all(
        g[:3] == r[:3] and _close(g[3], r[3], TOLERANCE["ap_abs"]) for g, r in zip(got, ref))


def compare(workload, got: dict, ref: dict) -> tuple:
    """(failed scene-variants, byte-identical?, [problem descriptions])."""
    identical = got["files"] == ref["files"]
    if workload.command == "sweep-pixel":
        failed, problems = 0, []
        ref_rows = {f"{r[0]:g}": r for r in ref["rows"]}
        got_rows = {f"{r[0]:g}": r for r in got["rows"]}
        for size, r in ref_rows.items():
            g = got_rows.get(size)
            ok = (g is not None and g[1:3] == r[1:3]
                  and _close(g[3], r[3], TOLERANCE["ap_abs"])
                  and _close(g[4], r[4], TOLERANCE["od50_abs_m"]))
            bad = workload.scenes if not ok else min(workload.scenes, got["errors"][size])
            if bad:
                problems.append(f"pixel {size} um: {g} vs reference {r}, "
                                f"{got['errors'][size]} scene errors")
            failed += bad
        return failed, identical, problems

    if not (_summary_match(got["summary"], ref["summary"])
            and _curve_match(got["metrics"], ref["metrics"])):
        return workload.variants, identical, [
            f"aggregate mismatch: summary {got['summary']} vs {ref['summary']}"]
    bad = []
    for sid, t_ref in ref["exposures"].items():
        t = got["exposures"].get(sid)
        if (t is None or not math.isclose(t, t_ref, rel_tol=TOLERANCE["exposure_rel"])
                or not _dets_match(got["detections"].get(sid, []),
                                   ref["detections"].get(sid, []))):
            bad.append(sid)
    extra = sorted(set(got["detections"]) - set(ref["exposures"]))
    problems = [f"scene {sid} differs from reference" for sid in bad]
    if extra:
        problems.append(f"detections for unknown scenes {extra}")
        return workload.variants, identical, problems
    return len(bad), identical, problems
