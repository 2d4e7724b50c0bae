"""Post-acquisition processing: bilinear demosaic, color correction fit
against built-in reflectance patches, gamma variants, raw passthrough, and
8-bit PPM output.

`render` runs the configured stages over one (H, W, C) float32 image a
band of rows at a time. Every stage runs in float32, with the color
matrix and the gamma exponent rounded to float32, so no loop upcasts: an
8-bit display value or a 10-bit code does not need a double. Only an HDR
frame's tone map computes its codes in float64, so that each is the code
the float64 expression gives. A band is an even number of rows whose
output fills about `_BAND_BYTES`, so the band, the mosaic rows it reads and
its linear planes stay in cache from one stage to the next. Each band runs
the demosaic, into three planar (R, G, B) planes, and the color
correction, each clipped to [0, 1], in one pass. The color correction
forms output channel i as m_i0·r + m_i1·g + m_i2·b, in that order, with
elementwise numpy operations, so its bits do not depend on the BLAS
kernel. Gamma then runs on the band in place. Adaptive gamma takes its
exponent from the mean of the whole image before gamma, summed exactly as
`ndarray.mean` sums it: numpy's pairwise float32 sum splits the flat
values at fixed points, so one pass over the bands in order adds the same
runs in the same tree (`_flat_mean`). No whole-frame mosaic is built:
each band's frame rows, normalized to [0, 1] (an HDR frame's tone map
included), are written into one reused buffer with the one-row halo and
the reflected border that the demosaic reads. Every step reads only its
band and the halo, so a band rendered on its own has the bytes it has in
the whole image. An image rendered for some rows holds only the bands that
meet them, and a read of any other row raises; the CLI renders every row
only with `save_images`. `render`, configured by `IspConfig.stages`, is
the one entry point to these stages."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import cie_data
from .exposure import HDRFrame
from .sensor import MONO, RGGB, SensorSpec
from .spectral import DEFAULT_GRID, IRRADIANCE, WavelengthGrid, d65_spectrum, resample


class RGBImage:
    """An (H, W, 3) or (H, W, 1) float32 image in [0, 1], and the exponent
    its gamma used (None: no gamma, or the sRGB curve).

    An image that `render` returns for some rows holds only the read-only
    bands of rows that meet them. `read_rows` reads rows of those bands and
    raises ValueError for a read that meets any other band; `values`
    raises on such an image."""

    def __init__(self, values: np.ndarray, gamma_used: float | None = None):
        v = values
        if v.ndim != 3 or v.shape[2] not in (1, 3):
            raise ValueError("image must be (H, W, 1|3)")
        # NaN fails both comparisons; an empty image has no min and raises too
        if not (v.min() >= 0 and v.max() <= 1):
            raise ValueError("image values must be finite and in [0, 1]")
        self.shape, self.gamma_used = v.shape, gamma_used
        self._values, self._bands, self._step = v, None, None

    @classmethod
    def _rendered(cls, shape, gamma_used, values, bands, step) -> "RGBImage":
        """The image `render` returns: every row's `values`, or None and the
        read-only {band index: rows} `bands` of `step` rows each."""
        img = cls.__new__(cls)
        img.shape, img.gamma_used = tuple(shape), gamma_used
        img._values, img._bands, img._step = values, bands, step
        return img

    def read_rows(self, r0: int, r1: int) -> np.ndarray:
        """values[r0:r1], read from the bands held."""
        if self._values is not None:
            return self._values[r0:r1]
        r0, r1, _ = slice(r0, r1).indices(self.shape[0])
        if r1 <= r0:
            return np.empty((0, *self.shape[1:]), np.float32)
        step = self._step
        ks = range(r0 // step, (r1 - 1) // step + 1)
        missing = [k for k in ks if k not in self._bands]
        if missing:
            raise ValueError(f"rows {r0}:{r1} meet rows {missing[0] * step}:"
                             f"{min((missing[0] + 1) * step, self.shape[0])}, which this image "
                             "was not rendered for")
        pieces = [self._bands[k][max(0, r0 - k * step):r1 - k * step] for k in ks]
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            raise ValueError("an image rendered for some rows has no whole values; "
                             "render it with rows=None")
        return self._values


@dataclass(frozen=True)
class GammaSpec:
    mode: str = "adaptive"  # "fixed" | "adaptive" | "srgb"
    gamma: float = 1.0
    target: float = 0.2

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive", "srgb"):
            raise ValueError(f"unknown gamma mode {self.mode!r}; expected fixed, adaptive or "
                             "srgb (to skip gamma, leave it out of isp.stages)")
        if self.mode != "fixed" and self.gamma != GammaSpec.gamma:
            raise ValueError(f"gamma is read only in fixed mode, not {self.mode}")
        if self.mode != "adaptive" and self.target != GammaSpec.target:
            raise ValueError(f"target is read only in adaptive mode, not {self.mode}")
        if self.mode == "fixed" and not 0 < self.gamma <= 10:
            raise ValueError("fixed gamma must be in (0, 10]")
        if not 0 < self.target < 1:
            raise ValueError("adaptive target must be in (0, 1)")


@dataclass(frozen=True)
class IspConfig:
    """The ISP pipeline: `stages`, run in order, are demosaic, color, gamma
    or raw, gamma, any but the first left out; this order is checked here
    only. `matrix` is the 3x3 sensor-RGB to linear-sRGB correction (None
    fits one to the sensor), read only with a color stage; `gamma` is read
    only with a gamma stage."""
    stages: tuple = ("demosaic", "color", "gamma")
    gamma: GammaSpec = field(default_factory=GammaSpec)
    matrix: tuple | None = None

    def __post_init__(self):
        for stage in self.stages:
            if stage not in ("demosaic", "color", "gamma", "raw"):
                raise ValueError(f"unknown pipeline stage {stage!r}")
        orders = {"demosaic": ("demosaic", "color", "gamma"), "raw": ("raw", "gamma")}
        remaining = iter(orders.get(self.stages[0], ()) if self.stages else ())
        if not self.stages or not all(stage in remaining for stage in self.stages):
            raise ValueError(f"stages {list(self.stages)} must start with demosaic or raw and "
                             "follow demosaic, color, gamma or raw, gamma, each at most once")
        if self.matrix is not None:
            if "color" not in self.stages:
                raise ValueError("matrix is read only with a color stage")
            _correction_matrix(self.matrix)
        if self.gamma != GammaSpec() and "gamma" not in self.stages:
            raise ValueError("gamma is read only with a gamma stage")


# Bilinear RGGB interpolation: what R, G and B read at each CFA phase (row,
# col parity), and the neighbour offsets each read averages, in summation
# order. "x" is the pixel itself; "h", "v", "4" and "d" are its horizontal,
# vertical, four edge and four diagonal neighbours.
_RGGB_PICKS = {(0, 0): ("x", "4", "d"), (0, 1): ("h", "x", "v"),
               (1, 0): ("v", "x", "h"), (1, 1): ("d", "4", "x")}
_NEIGHBOURS = {"x": ((0, 0),), "h": ((0, 1), (0, -1)), "v": ((-1, 0), (1, 0)),
               "4": ((-1, 0), (1, 0), (0, 1), (0, -1)),
               "d": ((-1, -1), (-1, 1), (1, -1), (1, 1))}


# The CFA patterns the demosaic interpolates; a config whose sensor has
# another must render raw
DEMOSAIC_PATTERNS = (MONO.pattern, RGGB.pattern)

# A band's output rows: 68 rows of 2560×3 float32, with the mosaic rows, the
# linear planes and the color scratch they are computed from. Sized for two
# scene workers rendering at once, as the CLI runs them: on hdr_fulldye's
# fused 1440×2560 frame (2-CPU AVX-512 Xeon, median of 5 rounds of 3),
# 1 << 19, 20, 21 and 22 took 230, 177, 153 and 168 ms for two renders on
# two threads, and 161, 148, 142 and 142 ms for one render alone
_BAND_BYTES = 1 << 21


# Values in one leaf of the streamed image sum: each run of at most this
# many values that numpy's pairwise split reaches is summed by
# np.add.reduce itself; numpy never splits a run of 128 values or fewer
_SUM_LEAF = 1 << 16
_PAIRWISE_BLOCK = 128


def _band_rows(shape: tuple) -> int:
    """Rows per band of a float32 image of `shape`: an even count, at least
    2, so that every band starts on CFA row 0."""
    row_bytes = 4 * int(np.prod(shape[1:]))
    return max(2, _BAND_BYTES // max(1, row_bytes) // 2 * 2)


def _flat_mean(chunks, n: int) -> np.float32:
    """ndarray.mean of the n float32 values that the 1-D arrays of `chunks`
    hold, in order, bit for bit: their sum as np.add.reduce sums them,
    divided by n as ndarray.mean divides it (a float64 quotient rounded to
    float32). numpy sums a contiguous run of values pairwise: it adds 0 to
    the sum of the whole run, and splits a run of k > 128 values into its
    first k//2 − (k//2)%8 values and the rest, each summed the same way,
    the two sums added in float32. Each run of at most `_SUM_LEAF` values
    that this split reaches is summed by np.add.reduce itself. A chunk is
    read to its end before the next is drawn, so the chunks may share one
    buffer; a run that spans chunks is copied into one scratch run."""
    chunks = iter(chunks)
    cur, pos, scratch = np.empty(0, np.float32), 0, None
    leaf = max(_SUM_LEAF, _PAIRWISE_BLOCK)

    def read(k):
        nonlocal cur, pos, scratch
        if pos == cur.size:
            cur, pos = next(chunks), 0
        if pos + k <= cur.size:
            pos += k
            return cur[pos - k:pos]
        if scratch is None:
            scratch = np.empty(min(n, leaf), np.float32)
        run, done = scratch[:k], 0
        while done < k:
            if pos == cur.size:
                cur, pos = next(chunks), 0
            take = min(k - done, cur.size - pos)
            run[done:done + take] = cur[pos:pos + take]
            done, pos = done + take, pos + take
        return run

    total = np.float32(0) + _tree_sum(read, n, leaf)
    return total.dtype.type(total / np.intp(n))


def _tree_sum(read, k: int, leaf: int) -> np.float32:
    """The pairwise sum of the next k values that read(k) gives, each run
    of at most `leaf` values summed by np.add.reduce."""
    if k <= leaf:
        return np.add.reduce(read(k))
    half = k // 2 - k // 2 % 8
    return _tree_sum(read, half, leaf) + _tree_sum(read, k - half, leaf)


# The strided sample whose percentile bounds the top_percentile tail
_SAMPLE_STRIDE = 64
_SAMPLE_PERCENTILE = 99.5


def top_percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) with the linear method, bit for bit, for
    finite values without -0.0, reading an upper-tail q without a
    partition of every value.

    The linear method interpolates between the order statistics at the
    floor and the ceiling of the virtual index (n − 1)·q/100. A lower bound
    for both is the `_SAMPLE_PERCENTILE` percentile of every
    `_SAMPLE_STRIDE`-th value: only the values at or above it are
    partitioned, and the ranks below it are skipped. If the bound is too
    high for the floor's rank, every value is partitioned. The two order
    statistics are then combined as numpy's `_lerp` combines them."""
    flat = values.reshape(-1)
    n = flat.size
    v = (n - 1) * (q / 100)
    lo = math.floor(v)
    hi = min(lo + 1, n - 1)
    bound = np.percentile(flat[::_SAMPLE_STRIDE], _SAMPLE_PERCENTILE)
    tail = flat[flat >= bound]
    skip = n - tail.size  # ranks below the bound
    if skip > lo:
        tail, skip = flat, 0
    tail = np.partition(tail, sorted({lo - skip, hi - skip}))
    a, b, t = float(tail[lo - skip]), float(tail[hi - skip]), v - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _plane(frame) -> np.ndarray:
    """The 2-D raster of a RawFrame (DN) or an HDRFrame (rate)."""
    return frame.rate_e_per_s if isinstance(frame, HDRFrame) else frame.dn


# Values of the float64 scratch in which an HDR frame's rows are tone-mapped,
# a run of rows at a time
_TONE_MAP_VALUES = 1 << 15


def _row_filler(frame):
    """fill(r0, r1, out): rows r0:r1 of the frame in [0, 1], written into
    the float32 `out`. A RawFrame reads DN / max_code, rounded once to
    float32. An HDRFrame's rate is tone-mapped by its 99.9th percentile,
    computed here once, and requantized in float64, in a scratch buffer of
    about `_TONE_MAP_VALUES` values that takes the rows a run at a time:
    round(clip(rate / norm, 0, 1)·max_code) is the code, and
    code / max_code, rounded once to float32, is the value a RawFrame
    holding those codes reads. Every step is elementwise, so a row's bits
    do not depend on the rows filled with it."""
    max_code = frame.sensor.max_code()
    if not isinstance(frame, HDRFrame):
        dn, scale = frame.dn, np.float32(max_code)
        return lambda r0, r1, out: np.divide(dn[r0:r1], scale, out=out)
    rate = frame.rate_e_per_s
    norm = top_percentile(rate, 99.9)
    norm = norm if norm > 0 else 1.0
    h, w = rate.shape
    run = max(1, min(h, _TONE_MAP_VALUES // max(1, w)))
    scratch = np.empty((run, w))

    def fill(r0, r1, out):
        for i in range(r0, r1, run):
            j = min(i + run, r1)
            code = scratch[:j - i]
            np.divide(rate[i:j], norm, out=code)
            np.clip(code, 0.0, 1.0, out=code)
            np.multiply(code, max_code, out=code)
            np.round(code, out=code)
            np.add(code, 0.0, out=code)  # a code is never -0.0
            np.divide(code, max_code, out=out[i - r0:j - r0])
    return fill


def _fill_padded_band(fill, h: int, i0: int, b: int, step: int, p: np.ndarray,
                      carried: bool) -> None:
    """Rows p[:b + 2] of a band buffer one pixel wider than the frame on
    each side: frame rows i0 - 1 … i0 + b, the band's rows with a one-row
    halo, padded in 'reflect' mode (no edge repeat), which keeps CFA parity
    at the borders; as in np.pad, a side one pixel long repeats its edge
    instead. When `carried`, the buffer holds the band before this one, and
    rows i0 - 1 and i0 are its last two rows, p[step:step + 2], so each
    frame row of a pass over the bands in order is filled once."""
    w = p.shape[1] - 2
    x = p[:, 1:w + 1]
    ry, rx = min(1, h - 1), min(1, w - 1)
    if i0 == 0:
        fill(ry, ry + 1, x[:1])
        fill(0, 1, x[1:2])
    elif carried:
        x[:2] = x[step:step + 2]
    else:
        fill(i0 - 1, i0 + 1, x[:2])
    fill(i0 + 1, i0 + b, x[2:b + 1])
    last = i0 + b if i0 + b < h else h - 1 - ry
    fill(last, last + 1, x[b + 1:b + 2])
    p[:b + 2, 0], p[:b + 2, w + 1] = p[:b + 2, 1 + rx], p[:b + 2, w - rx]


def _demosaic_band(mosaic: np.ndarray, mono: bool, out: np.ndarray) -> None:
    """The demosaic of a band, into the (3, b, W) planes `out`: bilinear
    RGGB over a `_fill_padded_band` buffer (its first row is the halo above
    the band), each neighbour average computed only on the CFA phase that
    reads it, or a MONO band's rows in all three planes. Every plane value
    is a buffer value or the float32 mean of 2 or 4 of them, and
    `_row_filler` writes only values in [0, 1], never -0.0, so the planes
    lie in [0, 1] with no clip."""
    b, w = out.shape[1:]
    if mono:
        out[...] = mosaic[:b]
        return
    total = np.empty(((b + 1) // 2, (w + 1) // 2), out.dtype)  # one phase's neighbour sum
    for (dy, dx), picks in _RGGB_PICKS.items():
        phase = total[:(b - dy + 1) // 2, :(w - dx + 1) // 2]
        for c, pick in enumerate(picks):
            planes = [mosaic[1 + dy + oy:1 + b + oy:2, 1 + dx + ox:1 + w + ox:2]
                      for oy, ox in _NEIGHBOURS[pick]]
            if len(planes) == 1:
                out[c, dy::2, dx::2] = planes[0]
                continue
            np.add(planes[0], planes[1], out=phase)
            for plane in planes[2:]:
                np.add(phase, plane, out=phase)
            np.divide(phase, len(planes), out=phase)
            out[c, dy::2, dx::2] = phase


def reflectance_patches() -> np.ndarray:
    """24 built-in smooth reflectances (rows) on the default grid: 18
    chromatic Gaussian bumps plus 6 neutral grays."""
    lam = DEFAULT_GRID.wavelengths_nm
    patches = []
    for i in range(18):
        center = 410.0 + 17.0 * i
        sigma = 25.0 + 3.0 * (i % 5)
        amp = 0.25 + 0.03 * (i % 7)
        base = 0.06 + 0.01 * (i % 4)
        patches.append(base + amp * np.exp(-0.5 * ((lam - center) / sigma) ** 2))
    for g in (0.031, 0.09, 0.19, 0.36, 0.59, 0.90):
        patches.append(np.full(DEFAULT_GRID.count, g))
    return np.clip(np.array(patches), 0.0, 1.0)


def fit_color_matrix(sensor: SensorSpec) -> np.ndarray:
    """Least-squares 3x3 mapping sensor RGB responses of the built-in
    patches, on the default grid, under D65 to their linear-sRGB values."""
    patches = reflectance_patches()
    illum = d65_spectrum(DEFAULT_GRID, IRRADIANCE)  # photon rate, relative scale

    qe = np.stack([resample(sensor.qe[ch], DEFAULT_GRID).values for ch in ("R", "G", "B")])
    sensor_rgb = patches * illum.values @ qe.T  # (24, 3), photon-weighted

    illum_w = illum.to_energy()
    cmf = np.stack([cie_data.CMF_XBAR, cie_data.CMF_YBAR, cie_data.CMF_ZBAR])
    cmf_grid = WavelengthGrid(cie_data.CMF_START, cie_data.CMF_STEP, cmf.shape[1])
    lam = DEFAULT_GRID.wavelengths_nm
    cmf_rs = np.stack([
        np.interp(lam, cmf_grid.wavelengths_nm, cmf[k], left=0.0, right=0.0)
        for k in range(3)
    ])
    xyz = patches * illum_w @ cmf_rs.T  # (24, 3)
    white_y = float(illum_w @ cmf_rs[1])
    srgb = xyz / white_y @ cie_data.XYZ_TO_SRGB.T

    white_rgb = illum.values @ qe.T
    sensor_rgb = sensor_rgb / white_rgb[1]
    coeffs, *_ = np.linalg.lstsq(sensor_rgb, srgb, rcond=None)
    return coeffs.T


def _correction_matrix(matrix) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.shape != (3, 3) or abs(np.linalg.det(matrix)) < 1e-12:
        raise ValueError("correction matrix must be 3x3 and non-singular")
    return matrix


def _color_band(v: np.ndarray, matrix: np.ndarray, out: np.ndarray,
                scratch: np.ndarray) -> None:
    """Channel i of `out` (b, W, 3) = m_i0·r + m_i1·g + m_i2·b of the
    (3, b, W) planes `v`, summed in that order and clipped to [0, 1];
    `scratch` holds two (b, W) planes."""
    acc, term = scratch
    for i, row in enumerate(matrix):
        np.multiply(v[0], row[0], out=acc)
        for j in (1, 2):
            np.multiply(v[j], row[j], out=term)
            np.add(acc, term, out=acc)
        np.clip(acc, 0.0, 1.0, out=out[..., i])


def _gamma_exponent(spec: GammaSpec, mean) -> float | None:
    """The power `spec` raises an image to, or None for the sRGB curve.
    Adaptive mode solves mean^γ = target, `mean` being the mean of the
    whole image (read in that mode only)."""
    if spec.mode == "srgb":
        return None
    if spec.mode == "fixed":
        return spec.gamma
    m = float(mean)
    if not 0.0 < m < 1.0:
        warnings.warn(f"adaptive gamma undefined for mean {m}; using gamma=1")
        return 1.0
    return float(np.log(spec.target) / np.log(m))


def _gamma_band(v: np.ndarray, exponent: float | None, out: np.ndarray) -> None:
    """`v` raised to `exponent` rounded to float32 (None: the sRGB curve),
    clipped to [0, 1], into `out`, which may be `v`. np.power takes a slow
    path on exact zeros, so it raises only the values it has to: each
    exponent is positive, and +0.0 (bit pattern 0) raised to it is +0.0;
    the sRGB curve's power branch reads only the values above its linear
    segment."""
    if exponent is None:
        curve = v > 0.0031308
        enc = np.multiply(v, 12.92)
        np.power(v, 1 / 2.4, out=enc, where=curve)
        np.multiply(enc, 1.055, out=enc, where=curve)
        np.subtract(enc, 0.055, out=enc, where=curve)
        np.clip(enc, 0.0, 1.0, out=out)
    else:
        if out is not v:
            out[...] = v
        np.power(v, np.float32(exponent), out=out, where=v.view(f"u{v.itemsize}") != 0)
        np.clip(out, 0.0, 1.0, out=out)


class _Pipeline:
    """`isp`'s stages before gamma over any band of `frame`'s rows: the
    frame's constants (its tone-map norm, the colour matrix) and the
    buffers that one band reuses."""

    def __init__(self, frame, isp: IspConfig):
        pattern = frame.sensor.cfa.pattern
        if isp.stages[0] != "raw" and pattern not in DEMOSAIC_PATTERNS:
            raise ValueError("no demosaic defined for this CFA (export raw instead)")
        h, w = _plane(frame).shape
        self.raw = isp.stages[0] == "raw"
        self.shape = (h, w, 1 if self.raw else 3)
        self.step = _band_rows(self.shape)
        self.fill = _row_filler(frame)
        self._next = None  # the first row after the last band filled
        if self.raw:
            return
        self.mono = pattern == MONO.pattern
        self.matrix = None
        if "color" in isp.stages:
            self.matrix = _correction_matrix(
                fit_color_matrix(frame.sensor) if isp.matrix is None else isp.matrix
            ).astype(np.float32)
        rows = min(self.step, h)
        self.mosaic = np.empty((rows, w) if self.mono else (rows + 2, w + 2), np.float32)
        self.planes = np.empty((3, rows, w), np.float32)
        self.scratch = None if self.matrix is None else np.empty((2, rows, w), np.float32)

    def linear(self, i0: int, out: np.ndarray) -> None:
        """The rows i0:i0 + len(out) of the image before gamma, into `out`;
        i0 is the first row of a band."""
        b = len(out)
        if self.raw:
            self.fill(i0, i0 + b, out[..., 0])
            return
        if self.mono:
            self.fill(i0, i0 + b, self.mosaic[:b])
        else:
            _fill_padded_band(self.fill, self.shape[0], i0, b, self.step, self.mosaic,
                              self._next == i0)
        self._next = i0 + b
        lin = self.planes[:, :b]
        _demosaic_band(self.mosaic, self.mono, lin)
        if self.matrix is None:
            out[...] = lin.transpose(1, 2, 0)
        else:
            _color_band(lin, self.matrix, out, self.scratch[:, :b])


def _image_mean(p: _Pipeline, bands: dict) -> np.float32:
    """ndarray.mean of the image before gamma, bit for bit, from one pass
    over its bands in order: each band of `bands` is rendered into its own
    array there, every other band into one reused buffer."""
    h, w, c = p.shape

    def linear_bands():
        work = None
        for k, i0 in enumerate(range(0, h, p.step)):
            band = bands.get(k)
            if band is None:
                b = min(p.step, h - i0)  # no band after it is longer
                work = np.empty((b, w, c), np.float32) if work is None else work
                band = work[:b]
            p.linear(i0, band)
            yield band.reshape(-1)

    return _flat_mean(linear_bands(), h * w * c)


def render(frame, isp: IspConfig = IspConfig(), rows=None) -> RGBImage:
    """The configured pipeline over a RawFrame or HDRFrame, a band of rows
    at a time. The color stage applies `isp.matrix`, or one fitted to the
    frame's sensor.

    `rows` names the row indices the caller reads (rows outside the frame
    are ignored); None, the default, is every row. Only the frame's
    constants are computed for every row: an HDR frame's tone-map norm and,
    with adaptive gamma, the image mean, from one pass of every band up to
    the color stage. The image holds, through every stage, only the bands
    that meet `rows`, with the bytes a render of every row has there; a
    read of any other row raises (`RGBImage.read_rows`), and so does
    `values`. The CLI renders every row only with `save_images`."""
    p = _Pipeline(frame, isp)
    h, step = p.shape[0], p.step
    values = None
    if rows is None:
        values = np.empty(p.shape, np.float32)
        bands = {k: values[i0:i0 + step] for k, i0 in enumerate(range(0, h, step))}
    else:
        bands = {k: np.empty((min(step, h - k * step), *p.shape[1:]), np.float32)
                 for k in sorted({r // step for r in rows if 0 <= r < h})}
    gamma, mean, exponent = "gamma" in isp.stages, None, None
    if gamma and isp.gamma.mode == "adaptive":
        mean = _image_mean(p, bands)
    else:
        for k, band in bands.items():
            p.linear(k * step, band)
    if gamma:
        exponent = _gamma_exponent(isp.gamma, mean)
        for band in bands.values():
            _gamma_band(band, exponent, band)
    if values is not None:
        return RGBImage._rendered(p.shape, exponent, values, None, None)
    for band in bands.values():
        band.flags.writeable = False
    return RGBImage._rendered(p.shape, exponent, None, bands, step)


def write_ppm(img: RGBImage, path) -> None:
    """8-bit binary PPM (P6, max 255)."""
    v = img.values
    if v.shape[2] == 1:
        v = np.repeat(v, 3, axis=2)
    data = np.round(v * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{v.shape[1]} {v.shape[0]}\n255\n".encode())
        f.write(data.tobytes())
