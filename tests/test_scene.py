import numpy as np
import pytest

from camsim.config import from_config, to_config
from camsim.scene import (BACKGROUND_DEPTH_M, Region, SceneFormatError, SceneSpec,
                          TargetSpec, edge_case_scene, load_scene, luminance_map,
                          project_extent_px, save_scene, scene_statistics, synthesize)
from camsim.spectral import WavelengthGrid

SMALL_GRID = WavelengthGrid(400.0, 30.0, 11)


def small_spec(**kw):
    base = dict(width=64, height=64, grid_pitch_um=3.0, grid=SMALL_GRID, seed=1)
    base.update(kw)
    return SceneSpec(**base)


def test_background_luminance_is_calibrated():
    sc = synthesize(small_spec(background_luminance_cd_m2=100.0))
    lum = luminance_map(sc)
    assert lum[0, 0] == pytest.approx(100.0, rel=1e-6)


def test_pinhole_projection_oracle():
    # 1.5 m at 30 m through a 6 mm lens onto a 3 µm grid:
    # 1.5 * 0.006 / (30 * 3e-6) = 100 px
    assert project_extent_px(1.5, 30.0, 6.0, 3.0) == 100


def test_target_rasterization():
    spec = small_spec(targets=(
        TargetSpec("car", 25.0, (0.015, 0.012), reflectance=0.2,
                   position_px=(32, 32)),
    ))
    sc = synthesize(spec)
    assert set(np.unique(sc.instances)) == {0, 1}
    ys, xs = np.nonzero(sc.instances == 1)
    # 0.015 * 0.006 / (25 * 3e-6) = 1.2 px -> rounds to 1 px wide
    assert xs.max() - xs.min() + 1 == project_extent_px(0.015, 25.0, 6.0, 3.0)
    assert np.all(sc.depth[ys, xs] == np.float32(25.0))
    assert sc.depth[0, 0] == np.float32(BACKGROUND_DEPTH_M)
    assert sc.classes == {1: "car"}


def test_subpixel_target_dropped_with_warning():
    spec = small_spec(targets=(
        TargetSpec("car", 200.0, (0.01, 0.01), reflectance=0.2),
    ))
    sc = synthesize(spec)
    assert np.all(sc.instances == 0)
    assert any("below 1 px" in w for w in sc.meta.warnings)


def test_shadow_and_specular_regions():
    spec = small_spec(shadows=(Region((0, 0, 8, 8), 0.1),),
                      speculars=(Region((8, 8, 16, 16), 50.0),))
    sc = synthesize(spec)
    lum = luminance_map(sc)
    assert lum[4, 4] == pytest.approx(0.1 * lum[40, 40], rel=1e-5)
    assert lum[12, 12] == pytest.approx(50.0 * lum[40, 40], rel=1e-4)


def test_statistics_two_level_fixture():
    """A raster that is 10x brighter on one half has exactly 1 log10 unit of
    dynamic range between the 99.9th and 0.1th luminance percentiles."""
    spec = small_spec(width=32, height=32,
                      speculars=(Region((0, 0, 32, 16), 10.0),))
    sc = synthesize(spec)
    stats = scene_statistics(sc)
    assert stats["dynamic_range_log10"] == pytest.approx(1.0, abs=1e-9)


def test_synthesis_is_seed_deterministic():
    spec = small_spec(targets=tuple(
        TargetSpec("car", float(d), (0.05, 0.04), reflectance=0.3)
        for d in (20, 30, 40)))
    a, b = synthesize(spec), synthesize(spec)
    assert np.array_equal(a.radiance, b.radiance)
    assert np.array_equal(a.instances, b.instances)
    from dataclasses import replace
    c = synthesize(replace(spec, seed=99))
    assert not np.array_equal(a.instances, c.instances)


def test_scaled_scene():
    sc = synthesize(small_spec())
    sc2 = sc.scaled(5.0)
    assert np.allclose(sc2.radiance, 5.0 * sc.radiance, rtol=1e-6)
    assert scene_statistics(sc2)["mean_luminance"] == pytest.approx(
        5.0 * scene_statistics(sc)["mean_luminance"])


def test_spec_dict_round_trip():
    spec = small_spec(targets=(TargetSpec("car", 25.0, (1.5, 1.2), 0.3),),
                      shadows=(Region((1, 2, 3, 4), 0.5),))
    assert from_config(SceneSpec, to_config(spec)) == spec


def test_save_load_round_trip(tmp_path):
    spec = small_spec(targets=(
        TargetSpec("car", 20.0, (0.05, 0.04), reflectance=0.3),))
    sc = synthesize(spec)
    save_scene(sc, tmp_path / "s")
    back = load_scene(tmp_path / "s")
    assert np.array_equal(back.radiance, sc.radiance)
    assert np.array_equal(back.depth, sc.depth)
    assert np.array_equal(back.instances, sc.instances)
    assert back.classes == sc.classes
    assert back.grid == sc.grid
    assert back.meta.seed == sc.meta.seed


def test_load_bad_magic(tmp_path):
    sc = synthesize(small_spec())
    save_scene(sc, tmp_path / "s")
    blob = (tmp_path / "s" / "radiance.sic").read_bytes()
    (tmp_path / "s" / "radiance.sic").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(SceneFormatError, match="bad magic"):
        load_scene(tmp_path / "s")


def test_load_truncated_payload(tmp_path):
    sc = synthesize(small_spec())
    save_scene(sc, tmp_path / "s")
    blob = (tmp_path / "s" / "radiance.sic").read_bytes()
    (tmp_path / "s" / "radiance.sic").write_bytes(blob[:-64])
    with pytest.raises(SceneFormatError, match="truncated payload"):
        load_scene(tmp_path / "s")


def test_load_dimension_mismatch(tmp_path):
    sc = synthesize(small_spec())
    save_scene(sc, tmp_path / "s")
    depth = np.fromfile(tmp_path / "s" / "depth.f32", dtype="<f4")
    depth[:-5].tofile(tmp_path / "s" / "depth.f32")
    with pytest.raises(SceneFormatError, match="dimension mismatch"):
        load_scene(tmp_path / "s")


def test_edge_case_scene_contents():
    sc = edge_case_scene()
    assert sc.radiance.shape == (256, 256, 31)
    assert set(np.unique(sc.instances)) == {0, 1, 2}
    # deep shadow plus strong specular: more than 3 log units of range
    assert scene_statistics(sc)["dynamic_range_log10"] > 3.0
    # the specular patch sits inside the central metering window
    lum = luminance_map(sc)
    assert lum[128, 128] > 100.0 * lum[4, 4]


def _instance_bounds(sc, idx):
    ys, xs = np.nonzero(sc.instances == idx)
    return np.array([xs.min(), ys.min(), xs.max() + 1, ys.max() + 1])


def test_edge_case_scene_keeps_its_layout_at_any_pitch():
    """At half the pitch the same physical scene spans twice the grid cells."""
    coarse, fine = edge_case_scene(), edge_case_scene(1.5)
    assert fine.radiance.shape == (512, 512, 31)
    assert fine.grid_pitch_um == 1.5
    for idx in (1, 2):
        assert np.abs(_instance_bounds(fine, idx) - 2 * _instance_bounds(coarse, idx)).max() <= 1
    lum = luminance_map(fine)
    assert lum[256, 256] > 100.0 * lum[8, 8]
