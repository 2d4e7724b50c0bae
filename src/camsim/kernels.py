"""The sensor-noise kernel: a chunked numpy sampler on counter-based streams.

Noise sampling uses shot-noise Poisson draws (Knuth multiplication below
NORMAL_CUTOFF expected electrons, a rounded normal approximation above)
plus additive Gaussian read noise. Runs are bit-reproducible.

The sampler walks the flattened raster in chunks of _CHUNK pixels. Each call
allocates one block of chunk-sized buffers and reuses it for every chunk: the
index ramp, its golden-ratio hash (computed once and shared by the shot and
read streams), the stream keys, the splitmix64 bits and the Box-Muller
terms are all computed in place, so no temporary spans the whole raster.
Each chunk draws its shot Gaussians over the whole chunk; the Knuth loop
then runs over the chunk's pixels below NORMAL_CUTOFF, carrying only the
pixels still multiplying, and overwrites their counts. Every pixel's streams
are keyed by its flat index, so the output does not depend on the chunk
size, and a subset of pixels can be sampled alone (`at=`) with exactly the
bytes the whole raster would give them: exposure control samples each HDR
bracket only on the pixels the fusion still reads.
"""

import numpy as np

from .rng import _GOLDEN, _INV53, golden, mix64, mix64_into, stream_base

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
    read_sigma, well_e = float(read_sigma), float(well_e)
    flat = lam.reshape(-1)
    if at is not None:
        at = np.asarray(at, dtype=np.uint64).reshape(-1)
        if at.size != flat.size:
            raise ValueError(f"{at.size} pixel indices for {flat.size} expected values")
    out = np.empty_like(flat)
    bufs = _Buffers(min(_CHUNK, flat.size))
    if at is None:
        ramp = np.arange(bufs.hashed.size, dtype=np.uint64)
        np.multiply(ramp, _GOLDEN, out=ramp)  # _GOLDEN·(0, 1, ...)
    bases = stream_base(int(seed), _LANE_SHOT), stream_base(int(seed), _LANE_READ)
    for start in range(0, flat.size, _CHUNK):
        stop = min(start + _CHUNK, flat.size)
        hashed = bufs.hashed[:stop - start]
        if at is None:
            np.add(ramp[:stop - start], golden(start), out=hashed)
        else:
            np.multiply(at[start:stop], _GOLDEN, out=hashed)
        _noise_chunk(flat[start:stop], hashed, bases, read_sigma, well_e, out[start:stop], bufs)
    return out.reshape(lam.shape)


class _Buffers:
    """One call's chunk-sized work arrays, rows of one allocation."""

    def __init__(self, n):
        rows = np.empty((7, n))
        self.hashed, self.key, self.bits, self.shift = (r.view(np.uint64) for r in rows[:4])
        self.counts, self.z, self.w = rows[4:]


def _uniform_into(key, counter, out, bits, shift):
    """out = rng.uniforms(key, counter)[..., counter - 1], computed in place."""
    np.add(key, golden(counter), out=bits)
    mix64_into(bits, shift)
    np.right_shift(bits, np.uint64(11), out=bits)
    np.multiply(bits, _INV53, out=out)


def _normal_into(key, z, w, bits, shift):
    """z = sqrt(-2·log(1 − u₀))·cos(2π·u₁) from the first two uniforms of
    each stream in key; w, bits and shift are scratch."""
    _uniform_into(key, 1, z, bits, shift)
    np.subtract(1.0, z, out=z)
    np.log(z, out=z)
    np.multiply(z, -2.0, out=z)
    np.sqrt(z, out=z)
    _uniform_into(key, 2, w, bits, shift)
    np.multiply(w, _TWO_PI, out=w)
    np.cos(w, out=w)
    np.multiply(z, w, out=z)


def _shot_normal_into(lam, key, counts, z, w, bits, shift):
    """counts = max(rint(λ + sqrt(max(λ, 0))·z), 0): the normal approximation."""
    _normal_into(key, z, w, bits, shift)
    np.maximum(lam, 0.0, out=w)
    np.sqrt(w, out=w)
    np.multiply(w, z, out=w)
    np.add(lam, w, out=w)
    np.rint(w, out=w)
    np.maximum(w, 0.0, out=counts)


def _noise_chunk(lam, hashed, bases, read_sigma, well_e, out, bufs):
    """Noisy electrons into out for the pixels whose flat raster indices
    hash to `hashed` (index·_GOLDEN)."""
    n = lam.size
    key, bits, shift = bufs.key[:n], bufs.bits[:n], bufs.shift[:n]
    counts, z, w = bufs.counts[:n], bufs.z[:n], bufs.w[:n]
    np.add(hashed, bases[0], out=key)
    mix64_into(key, shift)

    _shot_normal_into(lam, key, counts, z, w, bits, shift)
    # Knuth below the cutoff: multiply uniforms until the product drops below
    # exp(-lam); the count is the number of factors that kept it at or above.
    # Only the pixels still multiplying are carried in pos/key_s/p/thresh.
    # Before they are compacted, every carried pixel gets count i: a pixel
    # that stops now keeps it, one that goes on overwrites it later.
    pos = np.flatnonzero(lam < NORMAL_CUTOFF)
    key_s = key[pos]
    thresh = np.exp(-lam[pos])
    p = np.ones(pos.size)
    i = 0
    while pos.size:
        bits_s = mix64(key_s + golden(i + 1))
        p = p * ((bits_s >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53)))
        keep = np.flatnonzero(p >= thresh)
        if keep.size < pos.size:
            counts[pos] = i
            pos, key_s, p, thresh = pos[keep], key_s[keep], p[keep], thresh[keep]
        i += 1

    np.add(hashed, bases[1], out=key)
    mix64_into(key, shift)
    _normal_into(key, z, w, bits, shift)
    np.multiply(z, read_sigma, out=z)
    np.add(counts, z, out=z)
    np.clip(z, 0.0, well_e, out=out)
