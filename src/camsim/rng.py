"""Counter-based deterministic random numbers.

Every stochastic stage draws from splitmix64 streams keyed by
(seed, lane, counter). There is no shared generator state, so results are
independent of pixel evaluation order, thread count, and chunking.
"""

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / (1 << 53)


def golden(k: int) -> np.uint64:
    """k · golden gamma mod 2⁶⁴, folded in Python ints so no scalar
    overflow warns."""
    return np.uint64((k * int(_GOLDEN)) & _MASK)


def mix64_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """splitmix64 finalizer in place on the uint64 array z; tmp, of z's
    shape, is scratch."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def mix64(z):
    """splitmix64 finalizer; accepts uint64 scalar or ndarray."""
    scalar = np.isscalar(z)
    z = np.array(z, dtype=np.uint64)
    mix64_into(z, np.empty_like(z))
    return z[()] if scalar else z


def stream_base(seed: int, lane: int) -> np.uint64:
    """The part of a stream key shared by every index of (seed, lane):
    stream_key(seed, lane, i) is mix64(stream_base(seed, lane) + golden(i))."""
    return mix64(np.uint64(((seed & _MASK) + lane * int(_GOLDEN)) & _MASK))


def stream_key(seed: int, lane: int, index) -> np.uint64:
    """Key for an independent stream. `index` may be an ndarray (one stream
    per element, e.g. one per pixel or per instance id)."""
    base = stream_base(seed, lane)
    if np.isscalar(index):
        return mix64(np.uint64((int(base) + int(index) * int(_GOLDEN)) & _MASK))
    return mix64(base + _GOLDEN * index.astype(np.uint64))


def uniforms(key, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the stream(s) under `key`.

    Scalar key -> shape (count,); array key of shape S -> shape S + (count,).
    """
    key = np.asarray(key, dtype=np.uint64)
    out = np.empty(key.shape + (count,))
    for c in range(count):  # one contiguous pass over the keys per counter
        bits = mix64(key + golden(c + 1))
        out[..., c] = (bits >> np.uint64(11)).astype(np.float64) * _INV53
    return out
