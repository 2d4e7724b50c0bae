"""The chunked, active-set numpy noise sampler against a whole-raster
oracle written from the stream definition, and against the statistics of
Poisson plus Gaussian noise.

The oracle draws each pixel's Box–Muller pair from `rng.uniforms` and
numpy's float32 cos and sin of the double angle rounded to float32, with an
explicit table for the octant symmetries, and
runs the Knuth loop over every pixel until the slowest finishes. The kernel
must match it byte for byte: for λ edge values, for rasters that end
exactly on, just before and just after a chunk boundary, for a short-bracket
raster that keeps almost every pixel on the Knuth path, for lit chunks that
run no Knuth loop and a lit chunk with one dark pixel, and for any chunk
size. Sampling a subset of pixels by their flat indices (`at=`) must give
the bytes the whole raster gives at those indices, and two threads sampling
at once must each get the bytes of a serial call.
"""

import sys
import threading

import numpy as np
import pytest
from scipy import stats

from camsim import kernels
from camsim.kernels import NORMAL_CUTOFF
from camsim.rng import golden, mix64, stream_key, uniforms

CHUNK = kernels._CHUNK
EDGES = np.array([0.0, 1e-300, np.nextafter(NORMAL_CUTOFF, 0.0), NORMAL_CUTOFF,
                  1e4, -1e-300, -3.0])

# The 8 symmetries of the square, by the low 3 bits of counter 2's word:
# (shot, read) normals from (c, s) = (cos φ, sin φ) before the radius.
# Bit 0 swaps c and s, then bit 1 negates the first and bit 2 the second.
OCTANT_PAIRS = {
    0: lambda c, s: (c, s),
    1: lambda c, s: (s, c),
    2: lambda c, s: (-c, s),
    3: lambda c, s: (-s, c),
    4: lambda c, s: (c, -s),
    5: lambda c, s: (s, -c),
    6: lambda c, s: (-c, -s),
    7: lambda c, s: (-s, -c),
}


def normal_pairs(key, angle=np.float32):
    """(shot, read) standard normals of the normal streams under `key`, from
    cos and sin of the angle in the `angle` dtype."""
    u1 = uniforms(key, 1)[..., 0]
    word = mix64(key + golden(2))  # uniforms(key, 2)[..., 1] is its top 53 bits
    r = np.sqrt(-2.0 * np.log(1.0 - u1))
    phi = (word >> np.uint64(14)).astype(np.float64) * (np.pi / 4 / 2**50)  # [0, π/4)
    phi = phi.astype(angle)
    c, s = np.cos(phi).astype(np.float64), np.sin(phi).astype(np.float64)
    octant = word & np.uint64(7)
    x, y = np.empty_like(c), np.empty_like(s)
    for b, pair in OCTANT_PAIRS.items():
        at = octant == b
        x[at], y[at] = pair(c[at], s[at])
    return r * x, r * y


def whole_raster_noise(lam, read_sigma, well_e, seed_u):
    """The oracle: every Knuth iteration runs over all pixels until the
    slowest finishes, and every pixel's pair is drawn."""
    h, w = lam.shape
    idx = np.arange(h * w, dtype=np.uint64).reshape(h, w)
    shot, read = normal_pairs(stream_key(int(seed_u), kernels._LANE_NORMAL, idx))
    key_knuth = stream_key(int(seed_u), kernels._LANE_KNUTH, idx)

    counts = np.zeros((h, w), dtype=np.float64)
    small = lam < NORMAL_CUTOFF
    if small.any():
        thresh = np.exp(-lam, where=small, out=np.ones_like(lam))
        p = np.ones((h, w))
        active = small.copy()
        i = 0
        while active.any():
            bits = mix64(key_knuth + golden(i + 1))
            u = (bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
            p = np.where(active, p * u, p)
            cont = active & (p >= thresh)
            counts += cont
            active = cont
            i += 1
    big = ~small
    if big.any():
        approx = np.rint(lam + np.sqrt(np.maximum(lam, 0.0)) * shot)
        counts = np.where(big, np.maximum(approx, 0.0), counts)

    e = counts + read_sigma * read
    return np.clip(e, 0.0, well_e)


def mixed_raster(shape, seed):
    """Edge values, small and large λ scattered over the raster."""
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    pools = [rng.choice(EDGES, n), rng.uniform(0.0, 60.0, n),
             rng.uniform(0.0, 2000.0, n), np.full(n, 45.0)]
    pick = rng.integers(0, len(pools), n)
    return np.choose(pick, pools).reshape(shape)


def assert_same_bytes(lam, read_sigma=24.0, well_e=13500.0, seed=7):
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    seed_u = np.uint64(seed)
    want = whole_raster_noise(lam, read_sigma, well_e, seed_u)
    got = kernels.sample_sensor_noise(lam, read_sigma, well_e, seed)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("value", EDGES)
def test_edge_values(value):
    assert_same_bytes(np.full((3, 5), value))


def test_edge_values_mixed_in_one_raster():
    assert_same_bytes(np.tile(EDGES, (9, 3)), seed=123)


@pytest.mark.parametrize("shape", [
    (1, 1),
    (37, 53),
    (256, CHUNK // 256),          # exactly one chunk
    (1, CHUNK - 1),               # one chunk - 1
    (CHUNK + 1, 1),               # one chunk + 1
    (301, 701),                   # several chunks, partial last one
], ids=["1x1", "odd", "one-chunk", "chunk-minus-1", "chunk-plus-1", "several-chunks"])
def test_shapes_across_chunk_boundaries(shape):
    assert_same_bytes(mixed_raster(shape, seed=shape[0] * 7919 + shape[1]))


def test_short_bracket_raster():
    # λ below 4 on 99% of the pixels: almost every pixel runs the Knuth loop.
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.0, 4.0, (480, 640))
    bright = rng.random(lam.shape) < 0.01
    lam[bright] = rng.uniform(4.0, 3000.0, np.count_nonzero(bright))
    assert_same_bytes(lam, read_sigma=2.0, well_e=5000.0, seed=31)


def test_product_equal_to_threshold_continues():
    # λ = -log(u1) of pixel 0's first Knuth uniform, for a seed where
    # exp(-λ) rounds back to u1 exactly: the first product ties the
    # threshold, and a tie keeps the pixel multiplying.
    for seed in range(100):
        u1 = uniforms(stream_key(seed, kernels._LANE_KNUTH, 0), 1)[0]
        lam = -np.log(u1)
        if np.exp(-lam) == u1:
            break
    else:
        pytest.fail("no seed below 100 gives an exact round trip")
    assert_same_bytes(np.full((1, 1), lam), read_sigma=0.0, seed=seed)


def test_clip_and_zero_read_noise():
    lam = mixed_raster((40, 50), seed=2)
    assert_same_bytes(lam, read_sigma=0.0, well_e=30.0, seed=0)


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunk_size_does_not_change_bytes(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_CHUNK", chunk)
    assert_same_bytes(mixed_raster((19, 23), seed=chunk), seed=99)


def test_public_entry_point_uses_chunked_kernel():
    lam = mixed_raster((64, 48), seed=11)
    got = kernels.sample_sensor_noise(lam, 24.0, 13500.0, seed=42)
    want = whole_raster_noise(lam, 24.0, 13500.0, np.uint64(42))
    assert got.tobytes() == want.tobytes()


def test_noise_mean_variance_sanity():
    lam = np.full((128, 128), 50.0)
    e = kernels.sample_sensor_noise(lam, 0.0, 1e9, seed=2)
    assert e.mean() == pytest.approx(50.0, rel=0.02)
    assert e.var() == pytest.approx(50.0, rel=0.10)


def assert_subset_bytes(lam, idx, read_sigma=24.0, well_e=13500.0, seed=7):
    """sample_sensor_noise on lam.flat[idx] with at=idx is the whole-raster
    oracle at idx, byte for byte."""
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    idx = np.asarray(idx, dtype=np.int64)
    want = whole_raster_noise(lam, read_sigma, well_e, np.uint64(seed)).reshape(-1)[idx]
    got = kernels.sample_sensor_noise(lam.reshape(-1)[idx], read_sigma, well_e, seed, at=idx)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


LAM = mixed_raster((301, 701), seed=17)  # several chunks, partial last one


@pytest.mark.parametrize("idx", [
    np.sort(np.random.default_rng(3).choice(LAM.size, 5000, replace=False)),
    np.random.default_rng(4).permutation(LAM.size)[:3000],  # unsorted
    np.array([], dtype=np.int64),
    np.array([LAM.size - 1]),
    np.arange(CHUNK - 40, CHUNK + 40),  # straddles the first chunk boundary
    np.arange(0, LAM.size, 3),  # more than one chunk of indices
], ids=["random", "unsorted", "empty", "one-pixel", "chunk-boundary", "strided"])
def test_index_subset_matches_whole_raster(idx):
    assert_subset_bytes(LAM, idx)


def test_index_subset_edge_values():
    lam = np.tile(EDGES, (9, 3))
    assert_subset_bytes(lam, np.flatnonzero(np.arange(lam.size) % 2), seed=123)


def test_index_subset_keeps_the_shape_of_its_values():
    lam = mixed_raster((8, 9), seed=1)
    idx = np.arange(12).reshape(3, 4) * 5
    got = kernels.sample_sensor_noise(lam.reshape(-1)[idx], 24.0, 13500.0, 3, at=idx)
    want = kernels.sample_sensor_noise(lam, 24.0, 13500.0, 3).reshape(-1)[idx]
    assert got.shape == (3, 4) and got.tobytes() == want.tobytes()


def test_index_count_must_match_values():
    with pytest.raises(ValueError, match="pixel indices"):
        kernels.sample_sensor_noise(np.ones(4), 1.0, 100.0, 0, at=np.arange(3))


def test_all_lit_raster():
    # every λ at or above the cutoff, over 2.5 chunks: no chunk runs the
    # Knuth loop, and every count comes from the whole-chunk Gaussians
    rng = np.random.default_rng(21)
    lam = rng.uniform(NORMAL_CUTOFF, 3000.0, 5 * CHUNK // 2)
    lam[::97] = NORMAL_CUTOFF
    assert_same_bytes(lam.reshape(5, CHUNK // 2), seed=8)


def test_one_dark_pixel_in_a_lit_chunk():
    # a single pixel below the cutoff runs the Knuth loop, which must
    # overwrite the Gaussian count drawn for it and no other
    rng = np.random.default_rng(22)
    lam = rng.uniform(NORMAL_CUTOFF, 3000.0, 3 * CHUNK)
    lam[CHUNK + 1234] = 3.5
    assert_same_bytes(lam.reshape(3, CHUNK), seed=9)


def test_concurrent_calls_give_the_serial_bytes():
    # two threads sampling different rasters at once, one by index, must not
    # share work buffers; a short switch interval interleaves their chunks
    lam_a = mixed_raster((301, 701), seed=31)
    lam_b = mixed_raster((257, 509), seed=32)
    idx_b = np.random.default_rng(33).permutation(lam_b.size)[:3 * CHUNK // 2]
    calls = [lambda: kernels.sample_sensor_noise(lam_a, 24.0, 13500.0, 5),
             lambda: kernels.sample_sensor_noise(lam_b.reshape(-1)[idx_b], 3.0, 9000.0, 6,
                                                 at=idx_b)]
    want = [call().tobytes() for call in calls]
    got = [[] for _ in calls]

    def worker(k):
        for _ in range(4):
            got[k].append(calls[k]().tobytes())

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(calls))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 4 for w in want]


def test_each_normal_is_within_2_to_the_minus_22_of_the_double_angle_normal():
    # φ rounded to float32 is within 2⁻²⁴ relative of the double angle, and
    # numpy's float32 cos and sin are within about an ulp; the pair takes
    # both, so each normal keeps 22 bits of the double-angle normal
    n = 5 * CHUNK // 2
    key = stream_key(11, kernels._LANE_NORMAL, np.arange(n, dtype=np.uint64))
    bufs = kernels._Buffers(n)
    x, y = np.empty(n), np.empty(n)
    kernels._normal_pair_into(key.copy(), bufs.r, x, y, bufs.bits, bufs.shift, bufs.phi)
    assert x.tobytes() + y.tobytes() == b"".join(v.tobytes() for v in normal_pairs(key))
    for got, want in zip((x, y), normal_pairs(key, angle=np.float64)):
        assert np.all(np.sign(got) == np.sign(want))
        assert np.all(np.abs(got - want) <= 2.0**-22 * np.abs(want))


# ------------------------------------------------- statistical oracles ----
# Analytic expectations of Poisson(λ) + N(0, σ²); the streams are keyed by
# seed and pixel only, so a run at σ = 0 gives the same counts as one at σ,
# and their difference is the read part alone.

N_STAT = 1 << 18


def parts(lam, read_sigma, seed, n=N_STAT):
    """(shot, read) parts of n pixels at flat λ: counts − λ, and the read
    noise added to them. The well is 1e12, and λ must be large enough
    against σ that no pixel clips at 0."""
    raster = np.full(n, float(lam))
    counts = kernels.sample_sensor_noise(raster, 0.0, 1e12, seed)
    noisy = kernels.sample_sensor_noise(raster, read_sigma, 1e12, seed)
    assert noisy.min() > 0.0
    return counts - lam, noisy - counts


@pytest.mark.parametrize("lam, read_sigma", [
    (0.0, 0.0), (3.5, 0.0), (20.0, 2.0), (np.nextafter(NORMAL_CUTOFF, 0.0), 2.0),
    (NORMAL_CUTOFF, 2.0), (60.0, 2.0), (1000.0, 24.0),
], ids=["0", "3.5", "20", "below-cutoff", "cutoff", "60", "1000"])
def test_mean_and_variance_match_poisson_plus_read_noise(lam, read_sigma):
    # the count is Poisson below the cutoff and a normal rounded to an
    # integer above it, which adds the rounding's 1/12 to the variance; a
    # dark pixel at σ > 0 could clip at 0, so only λ ≥ 20 adds read noise
    e = kernels.sample_sensor_noise(np.full(N_STAT, lam), read_sigma, 1e12, seed=2)
    var = lam + read_sigma ** 2 + (1 / 12 if lam >= NORMAL_CUTOFF else 0.0)
    if var == 0.0:
        assert not e.any()
        return
    excess_kurtosis = lam / var ** 2  # Poisson's 1/λ, diluted by the read noise
    assert abs(e.mean() - lam) < 5.0 * np.sqrt(var / N_STAT)
    assert abs(e.var() - var) < 5.0 * var * np.sqrt((2.0 + excess_kurtosis) / N_STAT)


@pytest.mark.parametrize("lam, read_sigma", [(45.0, 2.0), (1000.0, 24.0)],
                         ids=["knuth", "normal"])
def test_shot_and_read_parts_are_uncorrelated(lam, read_sigma):
    shot, read = parts(lam, read_sigma, seed=3)
    assert abs(np.corrcoef(shot, read)[0, 1]) < 4.0 / np.sqrt(N_STAT)


def test_standardized_output_is_normal_at_lambda_1000():
    lam, read_sigma = 1000.0, 24.0
    e = kernels.sample_sensor_noise(np.full(50_000, lam), read_sigma, 1e12, seed=4)
    z = (e - lam) / np.sqrt(lam + 1 / 12 + read_sigma ** 2)
    assert stats.kstest(z, "norm").pvalue > 1e-3
    _, read = parts(lam, read_sigma, seed=4, n=50_000)
    assert stats.kstest(read / read_sigma, "norm").pvalue > 1e-3


def test_pair_angle_is_uniform_over_the_octants():
    # at λ = 1e6 and σ = 1000 both parts have scale 1000, so rounding the
    # count moves θ = atan2(read, shot) by about 1e-3 rad at most
    lam, read_sigma = 1e6, 1000.0
    shot, read = parts(lam, read_sigma, seed=5)
    theta = np.arctan2(read / read_sigma, shot / np.sqrt(lam))
    octant = np.floor(theta / (np.pi / 4)).astype(int) % 8
    counts = np.bincount(octant, minlength=8)
    assert stats.chisquare(counts).pvalue > 1e-3
    assert np.all(np.abs(counts - N_STAT / 8) < 5.0 * np.sqrt(N_STAT / 8))
