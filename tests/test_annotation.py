import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from camsim.annotation import (GroundTruthBox, LabelPolicy, _majority_bin, apply_policy,
                               export_dataset, project_truth, scene_truth)
from camsim.exposure import ExposurePlan, acquire
from camsim.optics import LensSpec, optical_image
from camsim.scene import Scene, SceneMeta, SceneSpec, TargetSpec, synthesize
from camsim.sensor import MONO, PixelSpec, SensorGeometry, SensorSpec, expected_rate
from camsim.spectral import WavelengthGrid
from frames import dense_rates

GRID = WavelengthGrid(400.0, 30.0, 11)
FULL = SensorGeometry(factor=1, rows=128, cols=128, y0=0, x0=0)
HALVED = SensorGeometry(factor=2, rows=64, cols=64, y0=0, x0=0)


def make_scene():
    return synthesize(SceneSpec(
        width=128, height=128, grid=GRID, seed=2,
        targets=(
            TargetSpec("car", 20.0, (0.06, 0.05), reflectance=0.3,
                       position_px=(32, 32)),
            TargetSpec("car", 40.0, (0.06, 0.05), reflectance=0.2,
                       position_px=(96, 96)),
        )))


def test_project_truth_full_resolution():
    sc = make_scene()
    boxes = project_truth(scene_truth(sc), FULL)
    assert len(boxes) == 2
    b = {x.instance_id: x for x in boxes}
    # 0.06 m at 20 m through 6 mm onto 3 µm: 6 px wide, 5 px tall
    assert b[1].width == 6 and b[1].height == 5
    assert b[1].pixel_count == 30
    assert b[1].distance_m == pytest.approx(20.0)
    assert b[2].distance_m == pytest.approx(40.0)


def test_project_truth_downsampled_geometry():
    sc = make_scene()
    full = {b.instance_id: b for b in project_truth(scene_truth(sc), FULL)}
    halved = {b.instance_id: b for b in project_truth(scene_truth(sc), HALVED)}
    for i in (1, 2):
        fx0, fy0, fx1, fy1 = full[i].bbox
        hx0, hy0, hx1, hy1 = halved[i].bbox
        assert abs(hx0 - fx0 / 2) <= 1 and abs(hx1 - fx1 / 2) <= 1
        # distance comes from the scene-resolution depth; unchanged
        assert halved[i].distance_m == full[i].distance_m


def test_policy_filters_small_boxes():
    boxes = [
        GroundTruthBox(1, "car", (0, 0, 9, 40), 30.0, 360),    # too narrow
        GroundTruthBox(2, "car", (0, 0, 40, 14), 30.0, 560),   # too short
        GroundTruthBox(3, "car", (0, 0, 10, 15), 30.0, 150),   # exactly at limits
        GroundTruthBox(4, "car", (0, 0, 40, 40), 151.0, 1600),  # too far
        GroundTruthBox(5, "car", (0, 0, 40, 40), 150.0, 1600),  # at the limit
    ]
    kept = apply_policy(boxes, LabelPolicy())
    assert [b.instance_id for b in kept] == [3, 5]


def test_policy_disabled_keeps_everything():
    # 300 m is the farthest a target or the policy may reach
    boxes = [GroundTruthBox(1, "car", (0, 0, 2, 2), 300.0, 4)]
    kept = apply_policy(boxes, LabelPolicy(1, 1, 300.0, apply_visibility=False))
    assert len(kept) == 1


def test_export_dataset_schema_and_split(tmp_path):
    images = [{"id": f"img_{i:03d}", "file": f"img_{i:03d}.ppm",
               "width": 64, "height": 64} for i in range(89)]
    truths = {im["id"]: [GroundTruthBox(1, "car", (1, 2, 11, 17), 25.0, 150)]
              for im in images}
    info = export_dataset(images, truths, tmp_path / "d.json", seed=3)
    doc = json.loads((tmp_path / "d.json").read_text())
    assert set(doc) == {"images", "annotations", "categories", "splits"}
    ann = doc["annotations"][0]
    assert ann["bbox"] == [1, 2, 10, 15]        # x, y, w, h
    assert ann["distance_m"] == 25.0            # nonstandard extra field
    sizes = info["splits"]
    # 3000:700:750 proportions of 89 images
    assert sizes["train"] == 60 and sizes["val"] == 14 and sizes["test"] == 15
    ids = sum((doc["splits"][k] for k in ("train", "val", "test")), [])
    assert sorted(ids) == sorted(im["id"] for im in images)


def test_export_dataset_split_is_seeded(tmp_path):
    images = [{"id": f"i{i}", "file": "x", "width": 8, "height": 8}
              for i in range(20)]
    a = export_dataset(images, {}, tmp_path / "a.json", seed=1)
    b = export_dataset(images, {}, tmp_path / "b.json", seed=1)
    c = export_dataset(images, {}, tmp_path / "c.json", seed=2)
    da, db, dc = (json.loads((tmp_path / f"{n}.json").read_text()) for n in "abc")
    assert da["splits"] == db["splits"]
    assert da["splits"] != dc["splits"]


def test_export_dataset_rejects_duplicate_ids(tmp_path):
    images = [{"id": "x", "file": "x", "width": 8, "height": 8}] * 2
    with pytest.raises(ValueError, match="duplicate"):
        export_dataset(images, {}, tmp_path / "d.json")


def test_majority_vote_downsampling_tie_break():
    sc = make_scene()
    # force a 2x2 block that is half instance 1, half instance 2: tie goes to
    # the smaller id
    sc.instances[0:2, 0:2] = [[1, 1], [2, 2]]
    boxes = {b.instance_id: b for b in project_truth(scene_truth(sc), HALVED)}
    x0, y0, x1, y1 = boxes[1].bbox
    assert x0 == 0 and y0 == 0


def _brute_force_majority(inst, factor, rows, cols):
    out = np.zeros((rows, cols), dtype=inst.dtype)
    for r in range(rows):
        for c in range(cols):
            block = inst[r * factor:(r + 1) * factor, c * factor:(c + 1) * factor].ravel()
            ids, counts = np.unique(block, return_counts=True)
            out[r, c] = ids[counts == counts.max()].min()
    return out


def test_majority_bin_matches_brute_force_vote_with_ties():
    from camsim.annotation import _majority_bin

    rng = np.random.default_rng(11)
    for trial in range(40):
        factor = int(rng.choice([1, 2, 3, 4]))
        rows, cols = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        h = rows * factor + int(rng.integers(0, 3))  # extra rows/cols are cropped
        w = cols * factor + int(rng.integers(0, 3))
        ids = rng.choice([0, 1, 2, 7, 300, 65535], size=int(rng.integers(1, 5)), replace=False)
        inst = rng.choice(ids, size=(h, w)).astype(np.uint16)
        if factor % 2 == 0:  # force exact two-way ties in every other block
            for r in range(0, rows, 2):
                for c in range(cols):
                    a, b = sorted(rng.choice(ids, 2)) if ids.size > 1 else (ids[0], ids[0])
                    block = np.full(factor * factor, b)
                    block[: factor * factor // 2] = a
                    inst[r * factor:(r + 1) * factor, c * factor:(c + 1) * factor] = \
                        rng.permutation(block).reshape(factor, factor)
        got = _majority_bin(inst, factor, rows, cols)
        assert got.dtype == inst.dtype
        assert np.array_equal(got, _brute_force_majority(inst, factor, rows, cols)), trial


def _full_frame_truth(sc, g):
    """Boxes as a vote over the whole sensor grid gives them, with the depth
    median over the whole instance map: the oracle for the windowed vote."""
    binned = _majority_bin(sc.instances[g.y0:, g.x0:], g.factor, g.rows, g.cols)
    out = []
    for inst_id in sorted(sc.classes):
        mask = binned == inst_id
        if mask.any():
            ys, xs = np.nonzero(mask)
            out.append((inst_id, sc.classes[inst_id],
                        (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1),
                        int(mask.sum()), float(np.median(sc.depth[sc.instances == inst_id]))))
    return out


@st.composite
def instance_scenes(draw):
    """A sensor geometry with odd or even origin on an instance map that
    extends past the frame, holding overlapping rectangles (instances that
    share blocks and are cut by the frame edge), a salt-and-pepper patch
    and blocks split exactly in half between two ids."""
    factor = draw(st.integers(1, 8))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    y0, x0 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    h = y0 + rows * factor + draw(st.integers(0, 5))
    w = x0 + cols * factor + draw(st.integers(0, 5))
    inst = np.zeros((h, w), dtype=np.uint16)
    ids = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    for i in ids:
        ya, yb = sorted(draw(st.integers(0, h)) for _ in range(2))
        xa, xb = sorted(draw(st.integers(0, w)) for _ in range(2))
        inst[ya:yb, xa:xb] = i
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        ya, xa = int(rng.integers(0, h)), int(rng.integers(0, w))
        patch = inst[ya:ya + 2 * factor + 1, xa:xa + 2 * factor + 1]
        patch[...] = rng.choice([0, *ids], size=patch.shape)
    if factor % 2 == 0:
        for r, c, a, b in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                                  st.integers(0, cols - 1),
                                                  st.sampled_from(ids), st.sampled_from(ids)),
                                        max_size=4)):
            block = inst[y0 + r * factor:y0 + (r + 1) * factor,
                         x0 + c * factor:x0 + (c + 1) * factor]
            block[: factor // 2] = a
            block[factor // 2:] = b
    depth = np.arange(h * w, dtype=np.float32).reshape(h, w) % 97 + 1
    # some ids on the map have no class; a class may name an absent id
    named = draw(st.sets(st.sampled_from([*ids, 10]), min_size=1))
    sc = Scene.from_radiance(np.zeros((h, w, 1), np.float32), WavelengthGrid(550.0, 10.0, 1),
                             3.0, depth, inst, {i: f"c{i}" for i in named}, SceneMeta())
    return sc, SensorGeometry(factor, rows, cols, y0, x0)


@settings(max_examples=300, deadline=None)
@given(case=instance_scenes())
def test_windowed_vote_matches_the_full_frame_vote(case):
    sc, g = case
    got = [(b.instance_id, b.class_name, b.bbox, b.pixel_count, b.distance_m)
           for b in project_truth(scene_truth(sc), g)]
    assert got == _full_frame_truth(sc, g)


@settings(max_examples=40, deadline=None)
@given(h=st.integers(16, 160), w=st.integers(16, 160),
       pitch=st.sampled_from([0.75, 1.5, 3.0]), factor=st.integers(1, 4),
       dye_rows=st.integers(16, 40), dye_cols=st.integers(16, 40),
       cx=st.floats(0.0, 1.0), cy=st.floats(0.0, 1.0),
       tw=st.integers(1, 40), th=st.integers(1, 40))
# a 3900x2200 scene at 1.5 µm on the default 3.84x2.16 mm dye of 3 µm pixels
@example(h=2200, w=3900, pitch=1.5, factor=2, dye_rows=720, dye_cols=1280,
         cx=1200 / 3900, cy=600 / 2200, tw=80, th=70)
def test_truth_covers_target_pixels_in_the_frame(h, w, pitch, factor, dye_rows, dye_cols,
                                                 cx, cy, tw, th):
    """On a black background, the box of a uniform target holds every pixel
    the target fills in the captured rate raster and none that it misses,
    for scenes smaller and larger than the dye."""
    p = pitch * factor
    assume(1.5 <= p <= 10.0)  # smaller pixels fall below the sensor's 40 dB dynamic range
    sc = synthesize(SceneSpec(
        width=w, height=h, grid_pitch_um=pitch, grid=WavelengthGrid(550.0, 10.0, 1),
        background_reflectance=0.0, background_luminance_cd_m2=None,
        # 10 m through 6 mm: a size of n·pitch/600 m projects to n grid cells
        targets=(TargetSpec("car", 10.0, (tw * pitch / 600, th * pitch / 600),
                            reflectance=0.5, position_px=(cx * w, cy * h)),)))
    sensor = SensorSpec(PixelSpec(size_um=p), dye_width_mm=(dye_cols + 0.5) * p / 1000,
                        dye_height_mm=(dye_rows + 0.5) * p / 1000, cfa=MONO)
    image = optical_image(sc, LensSpec(psf_fwhm_um=0.0), sensor)
    acq = acquire(image, sensor, ExposurePlan("fixed", t_s=1e-3), seed=0)
    rate = expected_rate(image, sensor)
    lit = rate > 0  # any target cell in the pixel's footprint
    peak = dense_rates(image).max() * (p * 1e-6) ** 2
    full = lit & (rate >= peak * (1 - 1e-9))  # target cells only
    boxes = project_truth(scene_truth(sc), acq.geometry)
    assert len(boxes) == 1 if full.any() else len(boxes) <= int(lit.any())
    for b in boxes:
        x0, y0, x1, y1 = b.bbox
        ys, xs = np.nonzero(lit)
        assert xs.min() <= x0 and x1 <= xs.max() + 1 and ys.min() <= y0 and y1 <= ys.max() + 1
        ys, xs = np.nonzero(full)
        if xs.size:
            assert x0 <= xs.min() and xs.max() < x1 and y0 <= ys.min() and ys.max() < y1


def _find_objects_truth(sc):
    """`scene_truth`'s targets as `scipy.ndimage.find_objects` bounds them."""
    objects = ndimage.find_objects(sc.instances)
    targets = {}
    for inst_id in sorted(sc.classes):
        sl = objects[inst_id - 1] if 0 < inst_id <= len(objects) else None
        if sl is not None:
            depth = float(np.median(sc.depth[sl][sc.instances[sl] == inst_id]))
            targets[inst_id] = (sc.classes[inst_id], sl, depth)
    return targets


@settings(max_examples=200, deadline=None)
@given(h=st.integers(1, 24), w=st.integers(1, 24),
       rects=st.lists(st.tuples(st.integers(1, 65535), st.floats(0, 1), st.floats(0, 1),
                                st.floats(0, 1), st.floats(0, 1)), max_size=6),
       missing=st.sets(st.integers(1, 65535), max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
@example(h=5, w=7, rects=[], missing={1}, seed=0)  # an empty map
# instances on the top, bottom, left and right edges, and one spanning the map
@example(h=5, w=7, rects=[(3, 0, 0, 1, 0.2), (65535, 0, 0.8, 1, 1), (2, 0, 0, 0.2, 1),
                          (9, 0.8, 0, 1, 1)], missing=set(), seed=1)
@example(h=1, w=1, rects=[(7, 0, 0, 1, 1)], missing={8}, seed=2)
def test_scene_truth_matches_find_objects(h, w, rects, missing, seed):
    """Random uint16 instance maps of overlapping rectangles: each target's
    slices and depth median equal those `find_objects` bounds give, ids the
    classes name but the map lacks are left out, and unnamed ids ignored."""
    inst = np.zeros((h, w), np.uint16)
    for i, ya, xa, yb, xb in rects:
        inst[round(min(ya, yb) * h):round(max(ya, yb) * h),
             round(min(xa, xb) * w):round(max(xa, xb) * w)] = i
    on_map = [i for i, *_ in rects]
    named = set(on_map[: len(on_map) // 2 + 1]) | missing
    depth = np.random.default_rng(seed).uniform(1.0, 300.0, (h, w)).astype(np.float32)
    sc = Scene.from_radiance(np.zeros((h, w, 1), np.float32), WavelengthGrid(550.0, 10.0, 1),
                             3.0, depth, inst, {i: f"c{i}" for i in named}, SceneMeta())
    assert scene_truth(sc).targets == _find_objects_truth(sc)
