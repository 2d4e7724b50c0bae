"""The sensor-noise kernel: a chunked numpy sampler on counter-based streams.

Noise sampling uses shot-noise Poisson draws (Knuth multiplication below
NORMAL_CUTOFF expected electrons, a rounded normal approximation above)
plus additive Gaussian read noise. Runs are bit-reproducible.

Each pixel draws from two lanes, keyed by its flat index. Its "normal"
stream gives one Box–Muller pair (Box & Muller, Ann. Math. Stat. 1958):
r = sqrt(-2·log(1 − u₁)) from counter 1, and an angle from counter 2's
64-bit word. The word's top 50 bits give φ in [0, π/4), one octant, whose
cosine and sine are cheaper than those of a full turn. φ, cos φ and sin φ
are float32: φ is the double angle rounded once to 24 bits, and each normal
lies within 2⁻²² relative of the one a double angle gives, far inside the
Poisson-to-normal approximation above NORMAL_CUTOFF. r, the log and all
that follows are float64. The word's low 3 bits pick
one of the 8 symmetries of the square: bit 0 swaps (cos φ, sin φ), then
bits 1 and 2 negate the first and the second, which spreads the angle
uniformly over the circle. The swap and the signs are XORs on the doubles'
bit patterns. Shot noise takes the pair's first normal, read noise the
second. Pixels below NORMAL_CUTOFF replace the shot normal by Knuth's
product of uniforms from the "knuth" lane, so no uniform feeds both a
pixel's Poisson count and its read noise.

The sampler walks the flattened raster in chunks of _CHUNK pixels. Each call
allocates one block of chunk-sized buffers and reuses it for every chunk: the
index ramp, its golden-ratio hash, the stream keys, the splitmix64 bits, the
float32 angle and the Box–Muller terms are all computed in place, so no
temporary spans the whole raster. The Knuth loop runs over the chunk's pixels below
NORMAL_CUTOFF only, keyed on their own, carrying only the pixels still
multiplying, and overwrites their counts. Every pixel's streams are keyed by
its flat index, so the output does not depend on the chunk size, and a
subset of pixels can be sampled alone (`at=`) with exactly the bytes the
whole raster would give them: exposure control samples each HDR bracket
only on the pixels the fusion still reads.
"""

import numpy as np

from .rng import _GOLDEN, _INV53, golden, mix64, mix64_into, stream_base

NORMAL_CUTOFF = 50.0  # expected electrons above which the normal approx is used
_LANE_NORMAL = 101
_LANE_KNUTH = 102
_PHI_STEP = np.pi / 4 / 2**50  # φ per unit of the top 50 bits of a 64-bit word
_SIGN = np.uint64(1 << 63)
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
    bases = stream_base(int(seed), _LANE_NORMAL), stream_base(int(seed), _LANE_KNUTH)
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
        self.r, self.counts, self.read = rows[4:]
        self.phi = np.empty(n, dtype=np.float32)


def _uniform_into(key, counter, out, bits, shift):
    """out = rng.uniforms(key, counter)[..., counter - 1], computed in place."""
    np.add(key, golden(counter), out=bits)
    mix64_into(bits, shift)
    np.right_shift(bits, np.uint64(11), out=bits)
    np.multiply(bits, _INV53, out=out)


def _normal_pair_into(key, r, x, y, bits, shift, phi):
    """x, y = r·(the octant symmetry of (cos φ, sin φ)): the Box–Muller pair
    of each stream in key, as the module docstring defines it; key, bits,
    shift and the float32 phi are scratch."""
    _uniform_into(key, 1, r, bits, shift)
    np.subtract(1.0, r, out=r)
    np.log(r, out=r)
    np.multiply(r, -2.0, out=r)
    np.sqrt(r, out=r)
    np.add(key, golden(2), out=bits)
    mix64_into(bits, shift)
    np.right_shift(bits, np.uint64(14), out=shift)
    np.multiply(shift, _PHI_STEP, out=phi)  # the double product, rounded to float32
    np.cos(phi, out=x)  # float32 cos, stored as a double
    np.sin(phi, out=y)
    xb, yb = x.view(np.uint64), y.view(np.uint64)
    np.bitwise_and(bits, np.uint64(1), out=key)
    np.negative(key, out=key)  # all ones where bit 0 asks for the swap
    np.bitwise_xor(xb, yb, out=shift)
    np.bitwise_and(shift, key, out=shift)
    np.bitwise_xor(xb, shift, out=xb)
    np.bitwise_xor(yb, shift, out=yb)
    for bit, half in ((1, xb), (2, yb)):
        np.left_shift(bits, np.uint64(63 - bit), out=key)
        np.bitwise_and(key, _SIGN, out=key)
        np.bitwise_xor(half, key, out=half)
    np.multiply(x, r, out=x)
    np.multiply(y, r, out=y)


def _noise_chunk(lam, hashed, bases, read_sigma, well_e, out, bufs):
    """Noisy electrons into out for the pixels whose flat raster indices
    hash to `hashed` (index·_GOLDEN)."""
    n = lam.size
    key, bits, shift = bufs.key[:n], bufs.bits[:n], bufs.shift[:n]
    r, counts, read = bufs.r[:n], bufs.counts[:n], bufs.read[:n]
    np.add(hashed, bases[0], out=key)
    mix64_into(key, shift)
    _normal_pair_into(key, r, counts, read, bits, shift, bufs.phi[:n])

    # counts holds the shot normal x: the normal approximation is
    # max(rint(λ + sqrt(max(λ, 0))·x), 0)
    np.maximum(lam, 0.0, out=r)
    np.sqrt(r, out=r)
    np.multiply(r, counts, out=r)
    np.add(lam, r, out=r)
    np.rint(r, out=r)
    np.maximum(r, 0.0, out=counts)
    # Knuth below the cutoff: multiply uniforms until the product drops below
    # exp(-lam); the count is the number of factors that kept it at or above.
    # Only the pixels still multiplying are carried in pos/key_s/p/thresh.
    # Before they are compacted, every carried pixel gets count i: a pixel
    # that stops now keeps it, one that goes on overwrites it later.
    pos = np.flatnonzero(lam < NORMAL_CUTOFF)
    key_s = mix64(hashed[pos] + bases[1])
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

    np.multiply(read, read_sigma, out=read)
    np.add(counts, read, out=read)
    np.clip(read, 0.0, well_e, out=out)
