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

The sampler, `stream_noise`, walks the flattened raster in chunks of
_CHUNK pixels. Each call allocates one block of chunk-sized buffers and
reuses it for every chunk: the index ramp, its golden-ratio hash, the
stream keys, the splitmix64 bits, the float32 angle, the Box–Muller terms
and the chunk's λ are all computed in place, so no temporary spans the
whole raster. The caller builds each chunk's λ and takes each chunk's
electrons, so `sensor.expose` streams a frame from rate to codes one chunk
at a time, and `sample_sensor_noise` keeps the electrons. The pixels below
NORMAL_CUTOFF of consecutive chunks are queued in one batch of at most
_CHUNK pixels, in buffers allocated once per call; each full batch, and the
last, runs one Knuth loop, keyed on its pixels alone and dropping the
pixels that stopped multiplying once they are half of those it carries,
and their electrons are emitted again over the chunk's
normal-approximation values. Every pixel's streams are keyed by its
flat index, so the output depends on neither the chunk size nor the
batches, and a subset of pixels can be sampled alone (`at=`) with exactly
the bytes the whole raster would give them: exposure control samples each
HDR bracket only on the pixels the fusion still reads.
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
    ``sample_sensor_noise(lam, ...).flat[at]`` byte for byte. This is
    `stream_noise` with λ read from `expected_e` and the electrons kept.
    """
    lam = np.ascontiguousarray(expected_e, dtype=np.float64)
    flat = lam.reshape(-1)
    out = np.empty_like(flat)

    def keep(where, electrons):
        out[where] = electrons

    stream_noise(flat.size, lambda start, stop, buf: flat[start:stop], read_sigma, well_e,
                 seed, keep, at=at)
    return out.reshape(lam.shape)


def stream_noise(size, lam_chunk, read_sigma, well_e, seed, emit, at=None):
    """The noise of `size` pixels, a chunk of at most _CHUNK at a time.

    `lam_chunk(start, stop, buf)` returns the expected electrons of pixels
    start:stop, written into the float64 scratch `buf` or read from
    elsewhere. `emit(where, electrons)` receives the noisy electrons of the
    pixels `where` (a slice, or an array of positions), at most _CHUNK of
    them, in a buffer that the next call may overwrite. Each chunk is
    emitted whole with the normal-approximation count; its pixels below
    NORMAL_CUTOFF are then queued, and each full queue (and the last) runs
    one Knuth loop and emits them again, with their Poisson counts. `at`
    holds the flat raster index of each pixel, as in `sample_sensor_noise`.
    """
    read_sigma, well_e = float(read_sigma), float(well_e)
    if at is not None:
        at = np.asarray(at, dtype=np.uint64).reshape(-1)
        if at.size != size:
            raise ValueError(f"{at.size} pixel indices for {size} expected values")
    bufs = _Buffers(min(_CHUNK, size))
    if at is None:
        ramp = np.arange(bufs.hashed.size, dtype=np.uint64)
        np.multiply(ramp, _GOLDEN, out=ramp)  # _GOLDEN·(0, 1, ...)
    batch = _KnuthBatch(bufs.hashed.size, stream_base(int(seed), _LANE_KNUTH), well_e, at)
    base = stream_base(int(seed), _LANE_NORMAL)
    for start in range(0, size, _CHUNK):
        stop = min(start + _CHUNK, size)
        n = stop - start
        hashed = bufs.hashed[:n]
        if at is None:
            np.add(ramp[:n], golden(start), out=hashed)
        else:
            np.multiply(at[start:stop], _GOLDEN, out=hashed)
        lam = lam_chunk(start, stop, bufs.lam[:n])
        emit(slice(start, stop), _noise_chunk(lam, hashed, base, read_sigma, well_e, bufs))
        small = np.flatnonzero(lam < NORMAL_CUTOFF)
        if batch.full(small.size):
            batch.flush(emit)
        batch.add(small, start, lam, bufs.read[:n])
    batch.flush(emit)


class _Buffers:
    """One call's chunk-sized work arrays, rows of one allocation."""

    def __init__(self, n):
        rows = np.empty((8, n))
        self.hashed, self.key, self.bits, self.shift = (r.view(np.uint64) for r in rows[:4])
        self.r, self.counts, self.read, self.lam = rows[4:]
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


def _noise_chunk(lam, hashed, base, read_sigma, well_e, bufs):
    """Noisy electrons, with the normal approximation's count, of the
    pixels whose flat raster indices hash to `hashed` (index·_GOLDEN); the
    result is a view of bufs.counts, and bufs.read keeps the scaled read
    noise."""
    n = lam.size
    key, bits, shift = bufs.key[:n], bufs.bits[:n], bufs.shift[:n]
    r, counts, read = bufs.r[:n], bufs.counts[:n], bufs.read[:n]
    np.add(hashed, base, out=key)
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
    np.multiply(read, read_sigma, out=read)
    np.add(counts, read, out=counts)
    np.clip(counts, 0.0, well_e, out=counts)
    return counts


class _KnuthBatch:
    """The pixels below NORMAL_CUTOFF of consecutive chunks, at most `n`,
    in buffers allocated once, when the first is queued: each pixel's
    position, λ and scaled read noise. A pixel's flat raster index is its
    position, or at[position]."""

    def __init__(self, n, base, well_e, at):
        self.n, self.base, self.well_e, self.at, self.size = n, base, well_e, at, 0
        self.pos = None

    def full(self, m):
        """Whether `m` more pixels overflow the batch."""
        return self.size + m > self.n

    def add(self, small, start, lam, read):
        """Queue the chunk pixels `small` of the chunk that starts at `start`."""
        k, m = self.size, small.size
        if not m:
            return
        if self.pos is None:
            rows = np.empty((8, self.n))
            self.pos = rows[0].view(np.intp)
            self.key, self.bits, self.shift = (r.view(np.uint64) for r in rows[1:4])
            self.lam, self.read, self.counts, self.u = rows[4:]
        np.add(small, start, out=self.pos[k:k + m])
        np.take(lam, small, out=self.lam[k:k + m])
        np.take(read, small, out=self.read[k:k + m])
        self.size = k + m

    def flush(self, emit):
        """Count the queued pixels by Knuth's loop and emit their electrons."""
        k, self.size = self.size, 0
        if not k:
            return
        pos, key = self.pos[:k], self.key[:k]
        thresh, counts = self.lam[:k], self.counts[:k]
        if self.at is None:
            np.copyto(key, pos, casting="unsafe")
        else:
            np.take(self.at, pos, out=key)
        np.multiply(key, _GOLDEN, out=key)
        np.add(key, self.base, out=key)
        mix64_into(key, self.shift[:k])
        np.negative(thresh, out=thresh)
        np.exp(thresh, out=thresh)
        _knuth_counts(key, thresh, counts, self.bits, self.shift, self.u)
        np.add(counts, self.read[:k], out=counts)
        np.clip(counts, 0.0, self.well_e, out=counts)
        emit(pos, counts)


def _knuth_counts(key, thresh, counts, bits, shift, u):
    """Knuth's Poisson count of each stream in `key` with exp(-λ) = thresh,
    into counts (bits, shift and u, at least as long, are scratch): multiply
    uniforms until the product drops below thresh; the count is the number
    of factors that kept it at or above. A product
    never rises (each factor is below 1), so a pixel that has stopped adds
    0 at every later factor: each factor adds 1 to the count of every
    carried pixel still at or above, and the carried pixels (pos/key/p/
    thresh, their counts in acc) are compacted only once fewer than half of
    them still multiply."""
    pos = np.arange(key.size)
    p = np.ones(key.size)
    counts.fill(0.0)
    acc = counts
    i = 0
    while True:
        n = pos.size
        _uniform_into(key, i + 1, u[:n], bits[:n], shift[:n])
        np.multiply(p, u[:n], out=p)
        go = p >= thresh
        live = np.count_nonzero(go)
        if not live:
            break
        np.add(acc, go, out=acc)
        if live < pos.size // 2:
            if acc is not counts:
                counts[pos] = acc
            keep = np.flatnonzero(go)
            pos, key, p, thresh = pos[keep], key[keep], p[keep], thresh[keep]
            acc = counts[pos]
        i += 1
    if acc is not counts:
        counts[pos] = acc
