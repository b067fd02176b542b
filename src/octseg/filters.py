"""Separable 3D filtering plus the kernels used for boundary detection.

All filters run in correlation orientation (no kernel flip) and replicate
edge samples at the borders, so a flat region produces no spurious response
near the volume faces.  ``convolve_separable`` is the fast path, which the
pipeline calls through a ``FilterBank`` that keeps each field it computes;
its one-axis passes are a numpy correlation that reproduces the summation
order of ``scipy.ndimage.correlate1d`` bit for bit.  ``convolve_direct``
sums a dense kernel over its taps and exists as an independent reference
for cross-checking the separable implementation.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .volume import Volume


def _check_taps(taps: np.ndarray, label: str) -> np.ndarray:
    taps = np.asarray(taps, dtype=np.float64)
    if taps.ndim != 1 or taps.size < 1 or taps.size % 2 == 0:
        raise ValueError(f"{label} taps must be a 1D odd-length array, got shape {taps.shape}")
    return taps


@dataclass(frozen=True, eq=False)
class SeparableKernel:
    """Outer-product 3D kernel given as one tap vector per axis.

    Each vector has odd length and is centered on its middle element.
    """

    kx: np.ndarray
    ky: np.ndarray
    kz: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kx", _check_taps(self.kx, "kx"))
        object.__setattr__(self, "ky", _check_taps(self.ky, "ky"))
        object.__setattr__(self, "kz", _check_taps(self.kz, "kz"))

    def to_dense(self) -> "Kernel3D":
        coeffs = (
            self.kx[:, None, None] * self.ky[None, :, None] * self.kz[None, None, :]
        )
        return Kernel3D(coeffs)


@dataclass(frozen=True, eq=False)
class Kernel3D:
    """Dense 3D kernel with odd extent along every axis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        if c.ndim != 3 or any(s % 2 == 0 for s in c.shape):
            raise ValueError(f"dense kernel must be 3D with odd extents, got {c.shape}")
        object.__setattr__(self, "coeffs", c)


def make_derivative_kernel(half_width: int, lateral: int = 3) -> SeparableKernel:
    """Depth edge detector: difference of means above and below each voxel.

    The depth taps put +1/m on the m samples above (shallower than) the
    center, 0 at the center, and -1/m on the m samples below, so the
    response is positive where intensity drops with depth; a boundary that
    is bright below negates the response.  Laterally the response is
    averaged over an odd ``lateral`` x ``lateral`` window.
    """
    m = int(half_width)
    if m < 1:
        raise ValueError(f"half_width must be >= 1, got {half_width}")
    lateral = int(lateral)
    if lateral < 1 or lateral % 2 == 0:
        raise ValueError(f"lateral extent must be odd and >= 1, got {lateral}")
    kz = np.zeros(2 * m + 1, dtype=np.float64)
    kz[:m] = 1.0 / m
    kz[m + 1 :] = -1.0 / m
    lat = np.full(lateral, 1.0 / lateral, dtype=np.float64)
    return SeparableKernel(kx=lat, ky=lat, kz=kz)


def make_smoothing_kernel(radius: int) -> SeparableKernel:
    """Normalized box average over a (2r+1)^3 neighborhood."""
    r = int(radius)
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    n = 2 * r + 1
    box = np.full(n, 1.0 / n, dtype=np.float64)
    return SeparableKernel(kx=box, ky=box, kz=box)


def _check_extents(kernel_shape, dims) -> None:
    for length, dim, ax in zip(kernel_shape, dims, "xyz"):
        if length > dim:
            raise ValueError(
                f"kernel extent {length} exceeds volume size {dim} along {ax}"
            )


def _chunk_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    edges = np.linspace(0, n, parts + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]


# x-slabs that enhance scores and picks hold about this many voxels: their
# scratch arrays stay small next to the volume, yet each numpy call is long
# enough that a second thread pays off (at 1 << 16 two threads gained nothing)
_SLAB_VOXELS = 1 << 18


def _slab_bounds(dims, threads: int) -> list[tuple[int, int]]:
    """x-slabs of a (nx, ny, nz) array: at least ``threads`` of them, each
    near ``_SLAB_VOXELS`` voxels, down to one x index."""
    nx, ny, nz = dims
    parts = max(threads, -(-nx * ny * nz // _SLAB_VOXELS))
    return _chunk_bounds(nx, min(parts, nx))


def _map_slabs(fn, bounds: list[tuple[int, int]], threads: int) -> list:
    """Call ``fn(lo, hi)`` for each slab on up to ``threads`` threads.

    Results come back in slab order, and an exception in any slab is raised.
    """
    if threads <= 1 or len(bounds) <= 1:
        return [fn(lo, hi) for lo, hi in bounds]
    with ThreadPoolExecutor(max_workers=min(threads, len(bounds))) as pool:
        return list(pool.map(lambda span: fn(*span), bounds))


# blocks of one correlation pass hold about this many samples, so the float64
# scratch stays in cache (with 1 << 18 the 8 passes of a 300x99x480 run took
# a quarter longer than with scipy; at 1 << 15 to 1 << 16 they are on par)
_BLOCK_SAMPLES = 1 << 16


def _correlate1d(arr: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    """Correlate ``arr`` with odd-length ``taps`` along ``axis``, replicating
    the edge samples, and return an array of the input's dtype.

    Sums run in float64 in the order ``scipy.ndimage.correlate1d`` uses, so
    results are bitwise equal to it: taps symmetric or antisymmetric within
    DBL_EPSILON start from the centre term and add each mirrored pair,
    summed or differenced before it is weighted, from the outermost pair
    inwards; other taps start from the last term and add the rest in order.
    The axis is processed in blocks of about ``_BLOCK_SAMPLES`` samples.
    """
    w = np.asarray(taps, dtype=np.float64)
    h = w.size // 2
    right, left = w[h + 1 :], w[:h][::-1]
    eps = np.finfo(np.float64).eps
    # written as "not > eps" so that NaN taps test as scipy's do
    if not np.any(np.abs(right - left) > eps):
        pair = np.add
    elif not np.any(np.abs(right + left) > eps):
        pair = np.subtract
    else:
        pair = None
    out = np.empty(arr.shape, dtype=arr.dtype)
    n = arr.shape[axis]
    outer, inner = math.prod(arr.shape[:axis]), math.prod(arr.shape[axis + 1 :])
    src = arr.reshape(outer, n, inner)
    dst = out.reshape(outer, n, inner)
    # a block is bo x (n + 2h) x bi padded samples, laid out flat: the
    # samples j places from every output are then one contiguous run, and
    # the runs' ends, which straddle two lines, are computed and dropped
    bi = min(inner, max(1, _BLOCK_SAMPLES // (n + 2 * h)))
    bo = min(outer, max(1, _BLOCK_SAMPLES // ((n + 2 * h) * bi)))
    pad_buf = np.empty(bo * (n + 2 * h) * bi)
    acc_buf = np.empty_like(pad_buf)
    tmp_buf = np.empty_like(pad_buf)
    for o0 in range(0, outer, bo):
        o1 = min(o0 + bo, outer)
        for i0 in range(0, inner, bi):
            i1 = min(i0 + bi, inner)
            block = (o1 - o0, n + 2 * h, i1 - i0)
            size = math.prod(block)
            pad = pad_buf[:size].reshape(block)
            pad[:, h : h + n] = src[o0:o1, :, i0:i1]
            pad[:, :h] = pad[:, h : h + 1]
            pad[:, h + n :] = pad[:, h + n - 1 : h + n]
            step = i1 - i0
            run = size - 2 * h * step
            acc, tmp = acc_buf[:run], tmp_buf[:run]

            def x(j):  # the samples j places from each output sample
                return pad_buf[(h + j) * step : (h + j) * step + run]

            if pair is not None:
                np.multiply(x(0), w[h], out=acc)
                for j in range(h, 0, -1):
                    pair(x(-j), x(j), out=tmp)
                    tmp *= w[h - j]
                    acc += tmp
            else:
                np.multiply(x(h), w[2 * h], out=acc)
                for j in range(-h, h):
                    np.multiply(x(j), w[h + j], out=tmp)
                    acc += tmp
            dst[o0:o1, :, i0:i1] = acc_buf[:size].reshape(block)[:, :n]
    return out


def _correlate_axis(arr: np.ndarray, taps: np.ndarray, axis: int, threads: int) -> np.ndarray:
    """One replicate-border correlation pass, optionally split into x slabs.

    Slabs along axis 0 are extended by the kernel half-width when the pass
    itself runs along axis 0, so every output element sees exactly the same
    neighborhood (and the same arithmetic) as the unsplit call.  Results are
    therefore bitwise identical for any thread count.
    """
    hw = taps.size // 2
    parts = 1
    if threads > 1:
        parts = min(threads, arr.shape[0] // (hw + 1))
    if parts <= 1:
        return _correlate1d(arr, taps, axis)
    out = np.empty_like(arr)

    def run(lo: int, hi: int) -> None:
        if axis == 0:
            a = max(0, lo - hw)
            b = min(arr.shape[0], hi + hw)
            res = _correlate1d(arr[a:b], taps, 0)
            out[lo:hi] = res[lo - a : lo - a + (hi - lo)]
        else:
            out[lo:hi] = _correlate1d(arr[lo:hi], taps, axis)

    _map_slabs(run, _chunk_bounds(arr.shape[0], parts), parts)
    return out


def convolve_separable(volume: Volume, kernel: SeparableKernel, threads: int = 1) -> Volume:
    """Filter a volume with an outer-product kernel, one axis at a time.

    Passes run along z, x, then y, skipping an axis whose taps are [1.0].
    Output dtype follows the input dtype.  A kernel longer than the volume
    along any axis is rejected.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    _check_extents((kernel.kx.size, kernel.ky.size, kernel.kz.size), volume.dims)
    out = volume.data
    for axis, taps in ((2, kernel.kz), (0, kernel.kx), (1, kernel.ky)):
        if taps.tolist() != [1.0]:
            out = _correlate_axis(out, taps, axis, threads)
    return Volume(out.copy() if out is volume.data else out, volume.spacing)


class FilterBank:
    """The filtered fields of one volume, each computed on first use and kept.

    Every field is bitwise equal to ``convolve_separable`` with the matching
    kernel; derivatives of one half-width share their depth pass.  Fields
    are shared between callers, so their arrays are made read-only.
    """

    def __init__(self, volume: Volume, threads: int = 1):
        self.volume = volume
        self.threads = threads
        self._fields: dict[tuple, Volume] = {}

    def check_fits(self, half_width: int, lateral: int, radius: int) -> None:
        """Raise ValueError if a derivative or smoothing kernel of these
        sizes is longer than the volume along some axis."""
        for k in (make_derivative_kernel(half_width, lateral), make_smoothing_kernel(radius)):
            _check_extents((k.kx.size, k.ky.size, k.kz.size), self.volume.dims)

    def _field(self, key: tuple, source: Volume, kx, ky, kz) -> Volume:
        if key not in self._fields:
            field = convolve_separable(source, SeparableKernel(kx, ky, kz), self.threads)
            field.data.flags.writeable = False
            self._fields[key] = field
        return self._fields[key]

    def smoothing(self, radius: int) -> Volume:
        k = make_smoothing_kernel(radius)
        return self._field(("smoothing", radius), self.volume, k.kx, k.ky, k.kz)

    def derivative(self, half_width: int, lateral: int) -> Volume:
        """Bright-above depth derivative, averaged over a lateral box."""
        k = make_derivative_kernel(half_width, lateral)
        depth = self._field(("depth", half_width), self.volume, [1.0], [1.0], k.kz)
        return self._field(("derivative", half_width, lateral), depth, k.kx, k.ky, [1.0])


def convolve_direct(volume: Volume, kernel: Kernel3D) -> Volume:
    """Reference dense correlation: pad with edge replication, sum over taps.

    Accumulates in float64 regardless of input dtype, then casts back.
    Intended for small volumes; cost grows with kernel volume.
    """
    c = kernel.coeffs
    _check_extents(c.shape, volume.dims)
    hx, hy, hz = (s // 2 for s in c.shape)
    nx, ny, nz = volume.dims
    pad = np.pad(
        volume.data.astype(np.float64),
        ((hx, hx), (hy, hy), (hz, hz)),
        mode="edge",
    )
    acc = np.zeros((nx, ny, nz), dtype=np.float64)
    for a in range(c.shape[0]):
        for b in range(c.shape[1]):
            for d in range(c.shape[2]):
                acc += c[a, b, d] * pad[a : a + nx, b : b + ny, d : d + nz]
    return Volume(acc.astype(volume.data.dtype), volume.spacing)
