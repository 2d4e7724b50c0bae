"""Counter-based streams: unit-interval uniforms, independent streams per
(seed, lane, index), the published SplitMix64 vectors, and scalar/array
agreement of stream keys."""

import numpy as np

from camsim.rng import _GOLDEN, mix64, stream_key, uniforms


def test_uniforms_in_unit_interval():
    u = uniforms(stream_key(0, 1, 0), 10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_streams_are_independent():
    a = uniforms(stream_key(0, 1, 0), 100)
    b = uniforms(stream_key(0, 1, 1), 100)
    c = uniforms(stream_key(0, 2, 0), 100)
    d = uniforms(stream_key(1, 1, 0), 100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_mix64_reference_values():
    # Published SplitMix64 outputs (Steele, Lea & Flood, OOPSLA 2014; Vigna's
    # reference splitmix64.c) from state 1234567: the k-th output is the
    # finalizer applied to state + k * golden gamma (mod 2^64).
    expected = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                4593380528125082431, 16408922859458223821]
    with np.errstate(over="ignore"):
        states = np.uint64(1234567) + np.arange(1, 6, dtype=np.uint64) * _GOLDEN
    assert [int(v) for v in mix64(states)] == expected
    assert [int(mix64(s)) for s in states] == expected


def test_stream_key_vectorized_matches_scalar():
    idx = np.arange(16, dtype=np.uint64)
    vec = stream_key(7, 3, idx)
    scal = np.array([stream_key(7, 3, int(i)) for i in idx], dtype=np.uint64)
    assert np.array_equal(vec, scal)


def test_uniforms_equal_the_per_counter_formula():
    # counter c (1-based) of key k draws (mix64(k + c·G) >> 11) · 2⁻⁵³
    keys = stream_key(3, 5, np.arange(24, dtype=np.uint64)).reshape(4, 6)
    got = uniforms(keys, 3)
    assert got.shape == (4, 6, 3)
    for c in range(3):
        with np.errstate(over="ignore"):
            bits = mix64(keys + np.uint64(c + 1) * _GOLDEN)
        want = (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
        assert got[..., c].tobytes() == want.tobytes()
    scalar = uniforms(keys[1, 2], 3)
    assert scalar.shape == (3,)
    assert scalar.tobytes() == got[1, 2].tobytes()
