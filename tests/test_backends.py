"""Backend equivalence: the numba and pure-numpy noise kernels walk the same
counter-based streams with the same sampling algorithms, so they agree
pixel-for-pixel up to last-ulp differences in the libm calls (numpy's SIMD
log/cos vs scalar libm)."""

import os
import warnings

import numpy as np
import pytest

from camsim import backend, kernels
from camsim.rng import _GOLDEN, mix64, stream_key, uniforms


@pytest.fixture
def force_backend(monkeypatch):
    def _set(name):
        monkeypatch.setenv("CAMSIM_BACKEND", name)
    return _set


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


@pytest.mark.skipif(not backend.HAVE_NUMBA, reason="numba not installed")
def test_noise_backends_match(force_backend):
    lam = np.concatenate([
        np.full(500, 3.0),       # Knuth branch
        np.full(500, 1000.0),    # normal-approximation branch
        np.linspace(0, 200, 500),
    ]).reshape(50, 30)
    force_backend("numpy")
    a = kernels.sample_sensor_noise(lam, 24.0, 13500.0, seed=11)
    force_backend("numba")
    b = kernels.sample_sensor_noise(lam, 24.0, 13500.0, seed=11)
    # Same streams and algorithm; numpy SIMD vs scalar libm log/cos can
    # differ in the last ulp, which after scaling is well below 1e-9 e-.
    assert np.allclose(a, b, rtol=0.0, atol=1e-9)
    assert np.mean(a != b) < 1e-3


def test_backend_flag_selects_numpy(force_backend):
    force_backend("numpy")
    assert not backend.use_numba()
    force_backend("numba")
    if backend.HAVE_NUMBA:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert backend.use_numba() == backend.HAVE_NUMBA
    else:
        # numba is optional: fall back to numpy, but never silently
        with pytest.warns(RuntimeWarning, match="CAMSIM_BACKEND"):
            assert backend.use_numba() == backend.HAVE_NUMBA


def test_noise_mean_variance_sanity():
    lam = np.full((128, 128), 50.0)
    e = kernels.sample_sensor_noise(lam, 0.0, 1e9, seed=2)
    assert e.mean() == pytest.approx(50.0, rel=0.02)
    assert e.var() == pytest.approx(50.0, rel=0.10)
