"""Everything up to the raw frame, and a render with a given color matrix,
is the same on every OpenBLAS kernel: a child process per kernel, forced
with OPENBLAS_CORETYPE, hashes a small scene's palette, optical-image rates,
mean illuminance, DN raster and rendered image."""

import functools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import hashlib, json
import numpy as np
from camsim.exposure import ExposurePlan, acquire
from camsim.isp import IspConfig, render
from camsim.optics import LensSpec, mean_illuminance_lux, optical_image
from camsim.scene import Region, SceneSpec, TargetSpec, synthesize
from camsim.sensor import SensorSpec
from camsim.spectral import DEFAULT_GRID, Spectrum

grid = DEFAULT_GRID
spec = SceneSpec(
    width=96, height=64, grid=grid, background_reflectance=0.3,
    targets=(TargetSpec("car", 8.0, (0.02, 0.015), 0.6, (30, 30)),
             TargetSpec("car", 12.0, (0.02, 0.015),
                        Spectrum(grid, np.linspace(0.1, 0.9, grid.count)), (66, 34))),
    shadows=(Region((0, 20, 50, 64), 0.2),), speculars=(Region((60, 0, 96, 40), 30.0),))
sc = synthesize(spec)
sensor = SensorSpec()
plain = LensSpec(psf_fwhm_um=0.0)
blurred = LensSpec(psf_fwhm_um=6.0, cos4_falloff=True)
image = optical_image(sc, blurred, sensor)
frame = acquire(image, sensor, ExposurePlan("center_weighted"), seed=0).source
parts = {"palette": sc.palette, "rates": optical_image(sc, plain, sensor).palette,
         "blurred rates": image.planes,
         "mean lux": np.float64(mean_illuminance_lux(sc, blurred)), "dn": frame.dn,
         "rgb": render(frame, IspConfig(matrix=((1.6, -0.4, -0.2), (-0.3, 1.5, -0.2),
                                                (0.05, -0.5, 1.45)))).values}
print(json.dumps({k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
                  for k, v in parts.items()}))
"""


def _dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 only prints its build configuration
        return False
    return ("openblas" in blas.get("name", "")
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


@functools.lru_cache(maxsize=None)
def _hashes(coretype):
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


needs_dynamic_openblas = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64") or not _dynamic_openblas(),
    reason="needs numpy on an x86-64 OpenBLAS built with DYNAMIC_ARCH")
# Prescott and Nehalem run on any x86-64-v2 CPU, and each sums a matrix
# product in another order than the newer kernels
CORETYPES = ("Prescott", "Nehalem")
RAW_FRAME_PARTS = ("palette", "rates", "blurred rates", "mean lux", "dn")


@needs_dynamic_openblas
def test_everything_to_the_raw_frame_is_the_same_on_every_openblas_kernel():
    want = {k: _hashes(None)[k] for k in RAW_FRAME_PARTS}
    for coretype in CORETYPES:
        assert {k: _hashes(coretype)[k] for k in RAW_FRAME_PARTS} == want, coretype


@needs_dynamic_openblas
def test_a_render_with_a_given_matrix_is_the_same_on_every_openblas_kernel():
    """The color stage sums each channel in a fixed order, without BLAS."""
    for coretype in CORETYPES:
        assert _hashes(coretype)["rgb"] == _hashes(None)["rgb"], coretype
