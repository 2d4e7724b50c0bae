"""Scenes as a palette of spectra over a label raster, checked against the
dense radiance cube that they replaced, frozen below as it was, and against
that cube's band sums taken band after band."""

import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camsim import scene
from camsim.optics import LensSpec, channel_weights, optical_image, project, psf_sigma
from camsim.scene import (Region, Scene, SceneMeta, SceneSpec, TargetSpec, _default_illuminant,
                          _reflectance_values, luminance_map, project_extent_px, synthesize)
from camsim.sensor import SensorSpec
from camsim.spectral import Spectrum, WavelengthGrid, luminance_weights, resample
from frames import dense_blur, dense_rates

GRIDS = (WavelengthGrid(400.0, 30.0, 11), WavelengthGrid(400.0, 10.0, 31))
SENSOR = SensorSpec()


def frozen_cube(spec: SceneSpec) -> np.ndarray:
    """The (H, W, Nλ) float32 radiance cube as synthesis built it before
    scenes held a palette."""
    grid = spec.grid
    illum = _default_illuminant(spec)
    h, w = spec.height, spec.width
    bg = _reflectance_values(spec.background_reflectance, grid)
    bg_rad = (illum.values * bg / np.pi).astype(np.float32)
    cube = np.broadcast_to(bg_rad, (h, w, grid.count)).copy()
    rng = random.Random(spec.seed)
    shelf_x, shelf_y, shelf_h = 2, 2, 0
    for tgt in spec.targets:
        wp = project_extent_px(tgt.size_m[0], tgt.distance_m,
                               spec.focal_length_mm, spec.grid_pitch_um)
        hp = project_extent_px(tgt.size_m[1], tgt.distance_m,
                               spec.focal_length_mm, spec.grid_pitch_um)
        if wp < 1 or hp < 1:
            continue
        if tgt.position_px is not None:
            cx, cy = tgt.position_px
            x0, y0 = int(round(cx - wp / 2)), int(round(cy - hp / 2))
        else:
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
            continue
        refl = _reflectance_values(tgt.reflectance, grid)
        cube[y0:y1, x0:x1, :] = (illum.values * refl / np.pi).astype(np.float32)
    for region in spec.shadows:
        x0, y0, x1, y1 = region.rect
        cube[y0:y1, x0:x1, :] *= np.float32(region.factor)
    for region in spec.speculars:
        x0, y0, x1, y1 = region.rect
        cube[y0:y1, x0:x1, :] *= np.float32(region.factor)
    return cube


def frozen_project_bands(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The (H, W, Nλ) cube's band sums: from zero, one band after another
    in wavelength order, as `spectral.project_bands` adds."""
    out = np.zeros((*values.shape[:2], len(weights)))
    for band in range(values.shape[2]):
        out += values[:, :, band, None] * weights[:, band]
    return out


def frozen_project(cube, grid, pitch_um, lens, weights):
    factor = np.pi / (1.0 + 4.0 * lens.f_number ** 2)
    t = (resample(lens.transmission, grid).values
         if isinstance(lens.transmission, Spectrum) else float(lens.transmission))
    planes = frozen_project_bands(cube, weights * (factor * t))
    if lens.cos4_falloff:
        h, w = planes.shape[:2]
        pitch_mm = pitch_um * 1e-3
        y = (np.arange(h) - (h - 1) / 2.0) * pitch_mm
        x = (np.arange(w) - (w - 1) / 2.0) * pitch_mm
        r2 = x[None, :] ** 2 + y[:, None] ** 2
        cos2 = lens.focal_length_mm ** 2 / (lens.focal_length_mm ** 2 + r2)
        planes *= (cos2 ** 2)[:, :, None]
    return planes


def _rects(w, h):
    return st.tuples(st.integers(0, w - 1), st.integers(0, h - 1),
                     st.integers(1, w), st.integers(1, h)).map(
        lambda r: (min(r[0], r[2] - 1), min(r[1], r[3] - 1), r[2], r[3]))


@st.composite
def scene_specs(draw):
    grid = draw(st.sampled_from(GRIDS))
    w, h = draw(st.integers(1, 36)), draw(st.integers(1, 36))

    def reflectance(low=0.0):
        return st.one_of(
            st.floats(low, 1.0),
            st.lists(st.floats(low, 1.0), min_size=grid.count, max_size=grid.count).map(
                lambda v: Spectrum(grid, np.array(v))))

    targets = draw(st.lists(st.builds(
        TargetSpec, st.just("car"), st.sampled_from([5.0, 10.0, 20.0]),
        st.tuples(st.floats(0.0, 0.12), st.floats(0.0, 0.12)), reflectance(),
        st.one_of(st.none(), st.tuples(st.integers(-4, w + 4), st.integers(-4, h + 4)))),
        max_size=4))
    shadows = draw(st.lists(st.builds(Region, _rects(w, h), st.floats(0.001, 1.0)),
                            max_size=3))
    speculars = draw(st.lists(st.builds(Region, _rects(w, h), st.floats(1.0, 1000.0)),
                              max_size=3))
    # the illuminant is scaled until the background reads 100 cd/m², so a
    # near-black background would push every spectrum past float32's range
    return SceneSpec(width=w, height=h, grid=grid,
                     background_reflectance=draw(reflectance(low=0.05)),
                     targets=tuple(targets), shadows=tuple(shadows),
                     speculars=tuple(speculars), seed=draw(st.integers(0, 99)))


LENSES = (LensSpec(psf_fwhm_um=0.0), LensSpec(psf_fwhm_um=6.0, cos4_falloff=True),
          LensSpec(f_number=2.0, transmission=0.8, psf_fwhm_um=0.0, cos4_falloff=True))


@settings(max_examples=150, deadline=None)
@given(spec=scene_specs(), lens=st.sampled_from(LENSES), k=st.floats(1e-3, 1e3))
@example(spec=SceneSpec(width=32, height=24, grid=GRIDS[0],
                        targets=(TargetSpec("car", 5.0, (0.05, 0.04), 0.2, (10, 10)),
                                 TargetSpec("car", 5.0, (0.05, 0.04), 0.7, (16, 14))),
                        shadows=(Region((8, 0, 20, 24), 0.1), Region((0, 8, 32, 16), 0.5)),
                        speculars=(Region((12, 10, 30, 20), 40.0),)),
         lens=LENSES[1], k=7.0)
def test_palette_scene_matches_the_frozen_cube(spec, lens, k):
    sc = synthesize(spec)
    cube = frozen_cube(spec)
    assert sc.radiance.dtype == np.float32
    assert sc.radiance.tobytes() == cube.tobytes()
    assert sc.scaled(k).radiance.tobytes() == (cube * np.float32(k)).tobytes()

    weights = channel_weights(SENSOR, spec.grid)
    planes = frozen_project(cube, spec.grid, spec.grid_pitch_um, lens, weights)
    assert project(sc, lens, weights).tobytes() == planes.tobytes()
    rates = dense_rates(optical_image(sc, lens, SENSOR))
    sigma = psf_sigma(spec.grid_pitch_um, lens)
    want = planes if sigma is None else dense_blur(planes, sigma)
    assert rates.tobytes() == want.tobytes()
    lum = frozen_project_bands(cube, luminance_weights(spec.grid)[None, :])
    assert luminance_map(sc)[:, :, None].tobytes() == lum.tobytes()


def test_each_region_adds_one_row_per_spectrum_under_it():
    spec = SceneSpec(width=16, height=8, grid=GRIDS[0],
                     targets=(TargetSpec("car", 5.0, (0.01, 0.01), 0.2, (4, 4)),),
                     shadows=(Region((0, 0, 8, 8), 0.5),),
                     speculars=(Region((6, 0, 12, 8), 3.0),))
    sc = synthesize(spec)
    # background, target; the shadow's copies of both; the specular's copies
    # of the plain and the shadowed background
    p = sc.palette
    assert p.shape == (6, GRIDS[0].count) and sc.labels.dtype == np.uint32
    assert p[2:4].tobytes() == (p[:2] * np.float32(0.5)).tobytes()
    assert p[4:].tobytes() == (p[[0, 2]] * np.float32(3.0)).tobytes()
    assert set(np.unique(sc.labels)) == {0, 2, 3, 4, 5}


def loaded(cube, grid):
    h, w = cube.shape[:2]
    return Scene.from_radiance(cube, grid, 1.5, np.full((h, w), 10.0, np.float32),
                               np.zeros((h, w), np.uint16), {}, SceneMeta())


@settings(max_examples=80, deadline=None)
@given(grid=st.sampled_from(GRIDS), h=st.integers(1, 12), w=st.integers(1, 12),
       band_rows=st.sampled_from([1, 2, 7, None]), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_a_loaded_cube_shares_a_row_per_run_of_equal_pixels(grid, h, w, band_rows, seed,
                                                            data):
    """A dense cube drawn from five spectra, two of them zero but for the
    sign of one band's zero: each run of bit-equal pixels in raster order
    is one palette row, the cube comes back byte for byte, and it projects
    as the cube does. Small bands (`band_rows` pixels of comparisons) put
    runs across band edges and mix sparse and dense bands."""
    spectra = np.random.default_rng(seed).lognormal(size=(5, grid.count)).astype(np.float32)
    spectra[3:] = 0.0
    spectra[4, 0] = -0.0
    pick = data.draw(st.lists(st.integers(0, 4), min_size=h * w, max_size=h * w))
    cube = spectra[pick].reshape(h, w, grid.count)
    band_bytes = scene._BAND_BYTES if band_rows is None else band_rows * 4 * grid.count
    weights = channel_weights(SENSOR, grid)
    with mock.patch.object(scene, "_BAND_BYTES", band_bytes):
        sc = loaded(cube, grid)
        assert len(sc.palette) == 1 + sum(a != b for a, b in zip(pick, pick[1:]))
        assert sc.radiance.tobytes() == cube.tobytes()
        assert project(sc, LENSES[2], weights).tobytes() == \
            frozen_project(cube, grid, 1.5, LENSES[2], weights).tobytes()


def test_a_loaded_cube_without_runs_gives_every_pixel_its_own_row():
    """Every pixel distinct, so every band of _run_starts's comparisons is
    dense: one palette row per pixel, in raster order, and the cube's band
    sums."""
    grid = GRIDS[0]
    cube = np.random.default_rng(3).lognormal(size=(70, 48, grid.count)).astype(np.float32)
    sc = loaded(cube, grid)
    assert sc.palette.tobytes() == cube.tobytes()
    assert sc.labels.ravel().tolist() == list(range(70 * 48))
    weights = channel_weights(SENSOR, grid)
    assert project(sc, LENSES[1], weights).tobytes() == \
        frozen_project(cube, grid, 1.5, LENSES[1], weights).tobytes()


def test_a_saved_synthesized_cube_loads_as_a_short_palette():
    spec = SceneSpec(width=32, height=24, grid=GRIDS[0],
                     targets=(TargetSpec("car", 5.0, (0.05, 0.04), 0.2, (10, 10)),),
                     shadows=(Region((8, 0, 20, 24), 0.1),))
    cube = frozen_cube(spec)
    sc = loaded(cube, spec.grid)
    # per raster row: background, then the shadow, then the background, with
    # the target's two runs (plain, shadowed) on the rows it covers
    assert len(sc.palette) < 6 * spec.height
    assert sc.radiance.tobytes() == cube.tobytes()
    lum = frozen_project_bands(cube, luminance_weights(spec.grid)[None, :])
    assert luminance_map(sc)[:, :, None].tobytes() == lum.tobytes()
