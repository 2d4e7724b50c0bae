"""Counter-based deterministic random numbers.

Every stochastic stage draws from splitmix64 streams keyed by
(seed, lane, counter). There is no shared generator state, so results are
independent of pixel evaluation order, thread count, and chunking.
"""

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV53 = 1.0 / (1 << 53)


def mix64(z):
    """splitmix64 finalizer; accepts uint64 scalar or ndarray."""
    z = np.uint64(z) if np.isscalar(z) else z.astype(np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def stream_key(seed: int, lane: int, index) -> np.uint64:
    """Key for an independent stream. `index` may be an ndarray (one stream
    per element, e.g. one per pixel or per instance id)."""
    with np.errstate(over="ignore"):
        base = mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN * np.uint64(lane))
        if np.isscalar(index):
            return mix64(base + _GOLDEN * np.uint64(index))
        return mix64(base + _GOLDEN * index.astype(np.uint64))


def uniforms(key, count: int) -> np.ndarray:
    """`count` doubles in [0, 1) from the stream(s) under `key`.

    Scalar key -> shape (count,); array key of shape S -> shape S + (count,).
    """
    key = np.asarray(key, dtype=np.uint64)
    out = np.empty(key.shape + (count,))
    with np.errstate(over="ignore"):
        for c in range(count):  # one contiguous pass over the keys per counter
            bits = mix64(key + np.uint64(c + 1) * _GOLDEN)
            out[..., c] = (bits >> np.uint64(11)).astype(np.float64) * _INV53
    return out
