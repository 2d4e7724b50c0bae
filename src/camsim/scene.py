"""Desk-scale labeled spectral scenes.

A Scene bundles a spectral radiance cube with per-pixel depth and instance
maps. Scenes are synthesized procedurally: rectangular Lambertian targets
projected through a pinhole model onto a sensor-conjugate grid, plus
multiplicative shadow and specular regions.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .config import to_config
from .spectral import (
    DIMENSIONLESS,
    IRRADIANCE,
    RADIANCE,
    DEFAULT_GRID,
    Spectrum,
    WavelengthGrid,
    d65_spectrum,
    luminance_weights,
    project_bands,
    resample,
)

BACKGROUND_DEPTH_M = 10000.0  # sky/background sentinel
_MAGIC = b"SIC1"


class SceneFormatError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True)
class SceneMeta:
    description: str = ""
    seed: int = 0
    warnings: tuple = ()


@dataclass(frozen=True)
class TargetSpec:
    class_name: str = field(metadata={"key": "class"})
    distance_m: float
    size_m: tuple  # (width_m, height_m)
    reflectance: float | Spectrum = 0.4
    position_px: tuple | None = None  # (cx, cy) on the scene grid; auto-packed if None
    shading: float = 1.0  # extra multiplicative albedo contrast

    def __post_init__(self):
        if not 0 < self.distance_m <= 300:
            raise ValueError("target distance must be in (0, 300] m")


@dataclass(frozen=True)
class Region:
    rect: tuple  # (x0, y0, x1, y1) half-open pixel bounds
    factor: float  # attenuation in (0,1] for shadows, gain >= 1 for speculars


@dataclass(frozen=True)
class SceneSpec:
    width: int = 256
    height: int = 256
    grid_pitch_um: float = 3.0
    focal_length_mm: float = 6.0
    grid: WavelengthGrid = DEFAULT_GRID
    # photon irradiance; default: scaled D65
    illuminant: Spectrum | None = field(default=None, metadata={"key": None})
    background_reflectance: float | Spectrum = 0.45
    background_luminance_cd_m2: float | None = 100.0  # rescales the illuminant
    targets: tuple[TargetSpec, ...] = ()
    shadows: tuple[Region, ...] = field(default=(), metadata={"keys": {"factor": "attenuation"}})
    speculars: tuple[Region, ...] = field(default=(), metadata={"keys": {"factor": "gain"}})
    seed: int = 0
    description: str = ""

    def __post_init__(self):
        for s in self.shadows:
            if not 0 < s.factor <= 1:
                raise ValueError("shadow attenuation must be in (0, 1]")
        for s in self.speculars:
            if s.factor < 1:
                raise ValueError("specular gain must be >= 1")


@dataclass(frozen=True)
class Scene:
    radiance: np.ndarray  # (H, W, Nλ) float32, photons/(s m² nm sr)
    grid: WavelengthGrid
    grid_pitch_um: float
    depth: np.ndarray  # (H, W) float32 meters
    instances: np.ndarray  # (H, W) uint16, 0 = background
    classes: dict  # instance id -> class name
    meta: SceneMeta
    spec_echo: dict = field(default_factory=dict)

    def scaled(self, k: float) -> "Scene":
        """Same scene with radiance scaled by k."""
        return replace(self, radiance=self.radiance * np.float32(k))


def _reflectance_values(refl, grid: WavelengthGrid) -> np.ndarray:
    if isinstance(refl, Spectrum):
        return resample(refl, grid).values
    r = float(refl)
    if not 0 <= r <= 1:
        raise ValueError("scalar reflectance must be in [0, 1]")
    return np.full(grid.count, r)


def _default_illuminant(spec: SceneSpec) -> Spectrum:
    ill = spec.illuminant or d65_spectrum(spec.grid, IRRADIANCE)
    if ill.grid != spec.grid:
        ill = resample(ill, spec.grid)
    if spec.background_luminance_cd_m2 is not None:
        bg = _reflectance_values(spec.background_reflectance, spec.grid)
        rad = Spectrum(spec.grid, ill.values * bg / np.pi, RADIANCE)
        lum = float(rad.values @ luminance_weights(spec.grid))
        if lum > 0:
            ill = ill.scaled(spec.background_luminance_cd_m2 / lum)
    return ill


def project_extent_px(size_m: float, distance_m: float, focal_length_mm: float,
                      pitch_um: float) -> int:
    """Pinhole footprint in scene pixels: size · f / (distance · pitch)."""
    return int(round(size_m * focal_length_mm * 1e-3 / (distance_m * pitch_um * 1e-6)))


def synthesize(spec: SceneSpec) -> Scene:
    """Deterministic scene synthesis from `spec` (seed included)."""
    grid = spec.grid
    illum = _default_illuminant(spec)
    h, w = spec.height, spec.width

    bg = _reflectance_values(spec.background_reflectance, grid)
    bg_rad = (illum.values * bg / np.pi).astype(np.float32)
    cube = np.broadcast_to(bg_rad, (h, w, grid.count)).copy()
    depth = np.full((h, w), BACKGROUND_DEPTH_M, dtype=np.float32)
    instances = np.zeros((h, w), dtype=np.uint16)
    classes: dict = {}
    warnings: list = []

    rng = random.Random(spec.seed)
    shelf_x, shelf_y, shelf_h = 2, 2, 0
    for idx, tgt in enumerate(spec.targets, start=1):
        wp = project_extent_px(tgt.size_m[0], tgt.distance_m,
                               spec.focal_length_mm, spec.grid_pitch_um)
        hp = project_extent_px(tgt.size_m[1], tgt.distance_m,
                               spec.focal_length_mm, spec.grid_pitch_um)
        if wp < 1 or hp < 1:
            warnings.append(f"target {idx} ({tgt.class_name}) projects below 1 px; dropped")
            continue
        if tgt.position_px is not None:
            cx, cy = tgt.position_px
            x0, y0 = int(round(cx - wp / 2)), int(round(cy - hp / 2))
        else:
            # shelf packing left-to-right with a little seeded jitter
            if shelf_x + wp + 2 > w:
                shelf_x, shelf_y = 2, shelf_y + shelf_h + 4
                shelf_h = 0
            jx = rng.randint(0, max(0, min(8, w - shelf_x - wp - 2)))
            jy = rng.randint(0, 3)
            x0, y0 = shelf_x + jx, shelf_y + jy
            shelf_x = x0 + wp + 4
            shelf_h = max(shelf_h, hp + jy)
        x0, y0 = max(0, x0), max(0, y0)
        x1, y1 = min(w, x0 + wp), min(h, y0 + hp)
        if x1 <= x0 or y1 <= y0:
            warnings.append(f"target {idx} ({tgt.class_name}) fell outside the raster; dropped")
            continue
        refl = _reflectance_values(tgt.reflectance, grid) * tgt.shading
        cube[y0:y1, x0:x1, :] = (illum.values * refl / np.pi).astype(np.float32)
        depth[y0:y1, x0:x1] = tgt.distance_m
        instances[y0:y1, x0:x1] = idx
        classes[idx] = tgt.class_name

    for region in spec.shadows:
        x0, y0, x1, y1 = region.rect
        cube[y0:y1, x0:x1, :] *= np.float32(region.factor)
    for region in spec.speculars:
        x0, y0, x1, y1 = region.rect
        cube[y0:y1, x0:x1, :] *= np.float32(region.factor)

    return Scene(cube, grid, spec.grid_pitch_um, depth, instances, classes,
                 SceneMeta(spec.description, spec.seed, tuple(warnings)),
                 spec_echo=to_config(spec))


def luminance_map(scene: Scene) -> np.ndarray:
    """Per-pixel luminance (cd/m²) of the radiance cube."""
    return project_bands(scene.radiance, luminance_weights(scene.grid)[None, :])[:, :, 0]


def scene_statistics(scene: Scene) -> dict:
    """Mean luminance (cd/m²) and log10 of its 99.9th / 0.1th percentile."""
    lum = luminance_map(scene)
    mean = float(lum.mean())
    hi = float(np.percentile(lum, 99.9, method="higher"))
    lo = float(np.percentile(lum, 0.1, method="lower"))
    if lo <= 0:
        pos = lum[lum > 0]
        lo = float(pos.min()) if pos.size else 1.0
        hi = max(hi, lo)
    dr = float(np.log10(hi / lo)) if hi > 0 else 0.0
    return {"mean_luminance": mean, "dynamic_range_log10": dr}


def edge_case_scene(pitch_um: float = 3.0, focal_length_mm: float = 6.0) -> Scene:
    """Fixed stress scene: a specular patch in the central metering window
    plus a dark target inside a deep shadow and a mid-reflectance control
    target in plain light. Intra-scene dynamic range exceeds 3 log units.
    The layout is given on a 3 µm grid and scaled to `pitch_um`."""
    def px(*values):
        return tuple(round(v * 3.0 / pitch_um) for v in values)

    size = round(256 * 3.0 / pitch_um)
    spec = SceneSpec(
        width=size, height=size, grid_pitch_um=pitch_um, focal_length_mm=focal_length_mm,
        background_reflectance=0.45,
        background_luminance_cd_m2=100.0,
        targets=(
            TargetSpec("car", 25.0, (0.75, 0.57), reflectance=0.25,
                       position_px=px(60, 64)),
            TargetSpec("car", 30.0, (0.63, 0.47), reflectance=0.08,
                       position_px=px(208, 160)),
        ),
        shadows=(Region(px(172, 92, 252, 228), 0.01),),
        speculars=(Region(px(108, 108, 148, 148), 600.0),),
        seed=20,
        description="specular center, shadowed dark target, lit control target",
    )
    return synthesize(spec)


def save_scene(scene: Scene, path) -> dict:
    """Write the scene directory format (radiance.sic, depth.f32,
    instance.u16, meta.json). Lossless for all rasters; returns the
    `scene_statistics` that meta.json records."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    h, w, nw = scene.radiance.shape
    header = _MAGIC + struct.pack("<IIIdd", h, w, nw, scene.grid.start_nm,
                                  scene.grid.step_nm)
    with open(path / "radiance.sic", "wb") as f:
        f.write(header)
        f.write(np.ascontiguousarray(scene.radiance, dtype="<f4").tobytes())
    scene.depth.astype("<f4").tofile(path / "depth.f32")
    scene.instances.astype("<u2").tofile(path / "instance.u16")
    stats = scene_statistics(scene)
    meta = {
        "classes": {str(k): v for k, v in scene.classes.items()},
        **stats,
        "description": scene.meta.description,
        "seed": scene.meta.seed,
        "warnings": list(scene.meta.warnings),
        "grid_pitch_um": scene.grid_pitch_um,
        "spec": scene.spec_echo,
    }
    (path / "meta.json").write_text(json.dumps(meta, indent=1))
    return stats


def load_scene(path) -> Scene:
    path = Path(path)
    blob = (path / "radiance.sic").read_bytes()
    if blob[:4] != _MAGIC:
        raise SceneFormatError("bad magic", f"radiance.sic in {path} has bad magic bytes")
    if len(blob) < 4 + 28:
        raise SceneFormatError("truncated payload", "radiance.sic header truncated")
    h, w, nw, start_nm, step_nm = struct.unpack("<IIIdd", blob[4:4 + 28])
    payload = np.frombuffer(blob[4 + 28:], dtype="<f4")
    if payload.size != h * w * nw:
        raise SceneFormatError(
            "truncated payload",
            f"expected {h * w * nw} float32 values, found {payload.size}")
    cube = payload.reshape(h, w, nw)
    depth = np.fromfile(path / "depth.f32", dtype="<f4")
    inst = np.fromfile(path / "instance.u16", dtype="<u2")
    if depth.size != h * w or inst.size != h * w:
        raise SceneFormatError("dimension mismatch",
                               "depth/instance raster size does not match header")
    meta = json.loads((path / "meta.json").read_text())
    grid = WavelengthGrid(start_nm, step_nm, int(nw))
    return Scene(
        cube, grid, meta["grid_pitch_um"], depth.reshape(h, w), inst.reshape(h, w),
        {int(k): v for k, v in meta["classes"].items()},
        SceneMeta(meta["description"], meta["seed"], tuple(meta["warnings"])),
        spec_echo=meta.get("spec", {}),
    )
