"""The sensor-noise kernel, with a numba-jitted loop and a chunked numpy
fallback (selected per call via backend.use_numba()).

Both paths implement the same per-pixel algorithm on the same
counter-based streams. Noise sampling uses shot-noise Poisson draws
(Knuth multiplication below NORMAL_CUTOFF expected electrons, a rounded
normal approximation above) plus additive Gaussian read noise. Cross-
backend outputs agree up to last-ulp libm differences (numpy SIMD vs
scalar log/cos); same-backend runs are bit-reproducible.

The numpy path walks the flattened raster in chunks of _CHUNK pixels, so
its temporaries stay small. Inside a chunk the Knuth loop carries only the
pixels that are still multiplying, and the normal-approximation Gaussians
are drawn only for pixels at or above NORMAL_CUTOFF. Every pixel's streams
are keyed by its flat index, so the output does not depend on the chunk
size.
"""

import numpy as np

from .backend import njit, use_numba
from .rng import _mix64_scalar, _uniform_at, mix64, stream_key, uniforms, _GOLDEN

NORMAL_CUTOFF = 50.0  # expected electrons above which the normal approx is used
_LANE_SHOT = 101
_LANE_READ = 102
_TWO_PI = 2.0 * np.pi
_CHUNK = 1 << 16  # pixels per numpy chunk: the working set stays in cache


# ---------------------------------------------------------------- noise ----

def sample_sensor_noise(expected_e, read_sigma, well_e, seed):
    """Noisy electron raster from the expected-electron raster.

    Per pixel: Poisson(expected) + N(0, read_sigma²), clamped to
    [0, well_e]. Streams are keyed by (seed, lane, pixel index), so output
    is independent of evaluation order and thread count.
    """
    lam = np.ascontiguousarray(expected_e, dtype=np.float64)
    seed_u = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    if use_numba():
        return _noise_numba(lam, float(read_sigma), float(well_e), seed_u)
    return _noise_numpy(lam, float(read_sigma), float(well_e), seed_u)


def _noise_numpy(lam, read_sigma, well_e, seed_u):
    flat = lam.reshape(-1)
    out = np.empty_like(flat)
    for start in range(0, flat.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        out[chunk] = _noise_chunk(flat[chunk], start, read_sigma, well_e, seed_u)
    return out.reshape(lam.shape)


def _noise_chunk(lam, start, read_sigma, well_e, seed_u):
    """Noisy electrons for the flat pixels start .. start + lam.size."""
    idx = np.arange(start, start + lam.size, dtype=np.uint64)
    key_shot = stream_key(int(seed_u), _LANE_SHOT, idx)
    key_read = stream_key(int(seed_u), _LANE_READ, idx)

    counts = np.zeros(lam.size, dtype=np.float64)
    small = lam < NORMAL_CUTOFF
    # Knuth: multiply uniforms until the product drops below exp(-lam); the
    # count is the number of factors that kept it at or above. Only the
    # pixels still multiplying are carried in pos/key/p/thresh. Before they
    # are compacted, every carried pixel gets count i: a pixel that stops
    # now keeps it, one that goes on overwrites it later.
    pos = np.flatnonzero(small)
    key = key_shot[pos]
    thresh = np.exp(-lam[pos])
    p = np.ones(pos.size)
    i = 0
    while pos.size:
        with np.errstate(over="ignore"):
            bits = mix64(key + np.uint64(i + 1) * _GOLDEN)
        p = p * ((bits >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)))
        keep = np.flatnonzero(p >= thresh)
        if keep.size < pos.size:
            counts[pos] = i
            pos, key, p, thresh = pos[keep], key[keep], p[keep], thresh[keep]
        i += 1
    big = np.flatnonzero(~small)
    if big.size:
        lam_b = lam[big]
        u = uniforms(key_shot[big], 2)
        z = np.sqrt(-2.0 * np.log(1.0 - u[..., 0])) * np.cos(_TWO_PI * u[..., 1])
        approx = np.rint(lam_b + np.sqrt(np.maximum(lam_b, 0.0)) * z)
        counts[big] = np.maximum(approx, 0.0)

    ur = uniforms(key_read, 2)
    z2 = np.sqrt(-2.0 * np.log(1.0 - ur[..., 0])) * np.cos(_TWO_PI * ur[..., 1])
    e = counts + read_sigma * z2
    return np.clip(e, 0.0, well_e)


@njit(cache=True)
def _stream_key_scalar(seed_u, lane, index):
    base = _mix64_scalar(seed_u + _GOLDEN * np.uint64(lane))
    return _mix64_scalar(base + _GOLDEN * np.uint64(index))


@njit(cache=True)
def _gaussian_from(key):
    u1 = _uniform_at(key, 0)
    u2 = _uniform_at(key, 1)
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(_TWO_PI * u2)


@njit(cache=True)
def _noise_numba(lam, read_sigma, well_e, seed_u):
    h, w = lam.shape
    out = np.empty((h, w), dtype=np.float64)
    for r in range(h):
        for c in range(w):
            mean = lam[r, c]
            pix = r * w + c
            key_s = _stream_key_scalar(seed_u, _LANE_SHOT, pix)
            if mean < NORMAL_CUTOFF:
                target = np.exp(-mean)
                k = 0.0
                p = 1.0
                i = 0
                while True:
                    p *= _uniform_at(key_s, i)
                    i += 1
                    if p < target:
                        break
                    k += 1.0
            else:
                z = _gaussian_from(key_s)
                k = np.rint(mean + np.sqrt(mean) * z)
                if k < 0.0:
                    k = 0.0
            key_r = _stream_key_scalar(seed_u, _LANE_READ, pix)
            e = k + read_sigma * _gaussian_from(key_r)
            if e < 0.0:
                e = 0.0
            elif e > well_e:
                e = well_e
            out[r, c] = e
    return out
