"""The sensor-noise kernel: a chunked numpy sampler on counter-based streams.

Noise sampling uses shot-noise Poisson draws (Knuth multiplication below
NORMAL_CUTOFF expected electrons, a rounded normal approximation above)
plus additive Gaussian read noise. Runs are bit-reproducible.

The sampler walks the flattened raster in chunks of _CHUNK pixels, so its
temporaries stay small. Inside a chunk the Knuth loop carries only the
pixels that are still multiplying, and the normal-approximation Gaussians
are drawn only for pixels at or above NORMAL_CUTOFF. Every pixel's streams
are keyed by its flat index, so the output does not depend on the chunk
size, and a subset of pixels can be sampled alone (`at=`) with exactly the
bytes the whole raster would give them: exposure control samples each HDR
bracket only on the pixels the fusion still reads.
"""

import numpy as np

from .rng import mix64, stream_key, uniforms, _GOLDEN

NORMAL_CUTOFF = 50.0  # expected electrons above which the normal approx is used
_LANE_SHOT = 101
_LANE_READ = 102
_TWO_PI = 2.0 * np.pi
_CHUNK = 1 << 16  # pixels per numpy chunk: the working set stays in cache


# ---------------------------------------------------------------- noise ----

def sample_sensor_noise(expected_e, read_sigma, well_e, seed, at=None):
    """Noisy electron raster from the expected-electron raster.

    Per pixel: Poisson(expected) + N(0, read_sigma²), clamped to
    [0, well_e]. Streams are keyed by (seed, lane, pixel index), so output
    is independent of evaluation order and thread count. `at`, when given,
    holds the flat raster index of each element of `expected_e`, so
    ``sample_sensor_noise(lam.flat[at], ..., at=at)`` equals
    ``sample_sensor_noise(lam, ...).flat[at]`` byte for byte.
    """
    lam = np.ascontiguousarray(expected_e, dtype=np.float64)
    seed_u = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
    read_sigma, well_e = float(read_sigma), float(well_e)
    flat = lam.reshape(-1)
    at = np.arange(flat.size, dtype=np.uint64) if at is None \
        else np.asarray(at, dtype=np.uint64).reshape(-1)
    if at.size != flat.size:
        raise ValueError(f"{at.size} pixel indices for {flat.size} expected values")
    out = np.empty_like(flat)
    for start in range(0, flat.size, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        out[chunk] = _noise_chunk(flat[chunk], at[chunk], read_sigma, well_e, seed_u)
    return out.reshape(lam.shape)


def _noise_chunk(lam, idx, read_sigma, well_e, seed_u):
    """Noisy electrons for the pixels at flat raster indices idx."""
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
