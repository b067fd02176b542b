"""Separable 3D filtering plus the kernels used for boundary detection.

All filters run in correlation orientation (no kernel flip) and replicate
edge samples at the borders, so a flat region produces no spurious response
near the volume faces.  ``convolve_separable`` is the fast path: one pass
over x-slabs that runs a slab's z, x and y correlations back to back and
writes it into the output, so no volume-sized intermediate exists, and
that can stop at a given depth.  A u8 volume is converted to float32 one
x-slab at a time, into scratch each thread reuses, just before that slab's
z pass.  Its one-axis correlation reproduces the summation order of
``scipy.ndimage.correlate1d`` bit for bit.  The pipeline reads fields
through a ``FilterBank``, which computes each once, drops it after its
last planned reader, and holds each request's depth as a promise that no
later request reads deeper: a new field is computed only that deep, and
the fields kept for later readers are first cut to it in place.
``convolve_direct`` sums a dense kernel over its taps and exists as an
independent reference for cross-checking the separable implementation.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .volume import Volume, u8_values


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


# x-slabs of one fused filter pass hold about this many voxels.  The x pass
# also computes the slab's halo planes and drops them, so a narrow slab
# wastes work; a wide one holds more scratch while the cascade's fields are
# alive (at 1 << 20 a 300x99x480 run peaked at 2.76 float volumes above its
# input, at 1 << 19 at 2.69, in about the same time)
_FILTER_SLAB_VOXELS = 1 << 19


def convolve_separable(
    volume: Volume, kernel: SeparableKernel, threads: int = 1, depth: int | None = None
) -> Volume:
    """Filter a volume with an outer-product kernel in one pass over x-slabs.

    Each slab runs the z, x and y correlations in that order, skipping an
    axis whose taps are [1.0], and writes its planes straight into the
    output; the z-filtered planes of the x halo are carried from one slab
    to the next.  Threads take contiguous x ranges, and each recomputes the
    halo at its start.  Every output sees the same neighbourhood and the
    same arithmetic as whole-axis passes, so results are bitwise equal to
    them at any thread count.  With ``depth``, only the planes z < depth
    are computed, from the input cropped ``kz.size // 2`` planes below
    them.  Output dtype is that of the volume's values (float32 for u8
    samples, converted a slab at a time).  A kernel longer than the volume
    along any axis is rejected.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    nx, ny, nz = volume.dims
    depth = nz if depth is None else depth
    if not 1 <= depth <= nz:
        raise ValueError(f"depth must be between 1 and {nz}, got {depth}")
    _check_extents((kernel.kx.size, kernel.ky.size, kernel.kz.size), volume.dims)
    kx, ky, kz = (None if t.tolist() == [1.0] else t for t in (kernel.kx, kernel.ky, kernel.kz))
    hx = 0 if kx is None else kx.size // 2
    src = volume.data[:, :, : min(nz, depth + kernel.kz.size // 2)]
    out = np.empty((nx, ny, depth), dtype=volume.dtype)
    width = max(1, _FILTER_SLAB_VOXELS // (ny * depth))
    step = max(1, _BLOCK_SAMPLES // (ny * depth))

    def lateral(planes: np.ndarray, first: int, s0: int, s1: int) -> None:
        # x then y pass of z-filtered planes, planes[first] being plane s0;
        # the y pass writes about one block of _correlate1d's at a time.
        # The x output dies on return, before the next slab's is allocated
        if kx is not None:
            planes = _correlate1d(planes, kx, 0)
        for c0 in range(s0, s1, step):
            c1 = min(c0 + step, s1)
            rows = planes[first + c0 - s0 : first + c1 - s0]
            out[c0:c1] = rows if ky is None else _correlate1d(rows, ky, 1)

    def run(lo: int, hi: int) -> None:
        # z-filtered planes [a, b) of the current slab's x neighbourhood
        held = np.empty((min(width + 2 * hx, nx), ny, depth), dtype=out.dtype)
        # the float32 values of u8 planes, converted as the z pass reads them
        values = np.empty(held.shape[:2] + src.shape[2:], np.float32) if volume.u8 else None
        a = b = 0  # nothing held yet
        for s0 in range(lo, hi, width):
            s1 = min(s0 + width, hi)
            na, nb = max(0, s0 - hx), min(nx, s1 + hx)
            if b > na:
                held[: b - na] = held[na - a : b - a]
            fresh = max(b, na)
            if nb > fresh:
                planes = src[fresh:nb]
                if values is not None:
                    planes = u8_values(planes, out=values[: nb - fresh])
                if kz is not None:
                    planes = _correlate1d(planes, kz, 2)
                held[fresh - na : nb - na] = planes[:, :, :depth]
                del planes  # freed before the x pass allocates its output
            a, b = na, nb
            lateral(held[: b - a], s0 - a, s0, s1)

    _map_slabs(run, _chunk_bounds(nx, min(threads, nx)), threads)
    return Volume(out, volume.spacing)


def _crop_depth(arr: np.ndarray, depth: int) -> None:
    """Cut an (nx, ny, nz) array that owns its C-contiguous buffer to its
    planes z < depth, in place and without a second copy.

    Each A-scan's first ``depth`` samples move forward to where the cut
    layout puts them, a block of A-scans at a time, then the buffer shrinks.
    A block's target ends at or before the next block's source starts, and
    numpy buffers the overlap inside a block.  The caller makes sure that
    nothing else refers to the array: a view would be left pointing into
    the freed tail.
    """
    nx, ny, nz = arr.shape
    writeable = arr.flags.writeable
    arr.flags.writeable = True
    flat, scans = arr.reshape(-1), nx * ny
    step = max(1, _BLOCK_SAMPLES // nz)
    for s0 in range(0, scans, step):
        s1 = min(s0 + step, scans)
        target = flat[s0 * depth : s1 * depth].reshape(s1 - s0, depth)
        target[...] = flat[s0 * nz : s1 * nz].reshape(s1 - s0, nz)[:, :depth]
    del flat, target
    arr.resize((nx, ny, depth), refcheck=False)
    arr.flags.writeable = writeable


class FilterBank:
    """The filtered fields of one volume, each computed once.

    Every field is bitwise equal to ``convolve_separable`` with the matching
    kernel, or to its first planes.  A request for the planes z < ``depth``
    promises that no later request reads below them; a deeper one raises
    ValueError.  A new field is computed only that deep, and just before it
    is allocated the kept fields that are deeper are cut to that depth in
    place, so a field handed out earlier and still held shrinks with them.
    A kept field is handed back as it is.  ``plan`` lists what the bank's
    readers will ask for, one (derivative half-width, lateral width,
    smoothing radius) per reader; a planned field is dropped once its last
    reader has taken it, and unplanned fields are kept.  Fields are shared
    between callers, so their arrays are made read-only.
    """

    def __init__(
        self, volume: Volume, threads: int = 1, plan: Iterable[tuple[int, int, int]] = ()
    ):
        self.volume = volume
        self.threads = threads
        self._fields: dict[tuple, Volume] = {}
        self._readers: Counter = Counter()
        self._depth = volume.nz  # no request reads a plane at or below this
        for half_width, lateral, radius in plan:
            self._readers[("derivative", half_width, lateral)] += 1
            self._readers[("smoothing", radius)] += 1

    def check_fits(self, half_width: int, lateral: int, radius: int) -> None:
        """Raise ValueError if a derivative or smoothing kernel of these
        sizes is longer than the volume along some axis."""
        for k in (make_derivative_kernel(half_width, lateral), make_smoothing_kernel(radius)):
            _check_extents((k.kx.size, k.ky.size, k.kz.size), self.volume.dims)

    def _field(self, key: tuple, kernel: SeparableKernel, depth: int | None) -> Volume:
        depth = self.volume.nz if depth is None else depth
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if depth > self._depth:
            raise ValueError(
                f"planes z < {depth} requested from a filter bank limited to z < {self._depth}"
            )
        self._depth = depth
        left = self._readers.get(key)  # planned reads still to come; None: unplanned
        field = self._fields.pop(key, None)
        if field is None:
            for kept in self._fields.values():
                if kept.nz > depth:
                    # the Volume's reference and getrefcount's argument; any
                    # other (a view, a second holder) would outlive the cut
                    if sys.getrefcount(kept.data) > 2:
                        raise ValueError("a field still in use cannot be cut in place")
                    _crop_depth(kept.data, depth)
            field = convolve_separable(self.volume, kernel, self.threads, depth)
            field.data.flags.writeable = False
        if left is None or left > 1:
            self._fields[key] = field
        if left:
            self._readers[key] = left - 1
        return field

    def smoothing(self, radius: int, depth: int | None = None) -> Volume:
        """Box-smoothed intensity; ``depth``: the caller reads the planes
        z < depth, and no later request may read deeper."""
        return self._field(("smoothing", radius), make_smoothing_kernel(radius), depth)

    def derivative(self, half_width: int, lateral: int, depth: int | None = None) -> Volume:
        """Bright-above depth derivative, averaged over a lateral box;
        ``depth``: the caller reads the planes z < depth, and no later
        request may read deeper."""
        kernel = make_derivative_kernel(half_width, lateral)
        return self._field(("derivative", half_width, lateral), kernel, depth)


def convolve_direct(volume: Volume, kernel: Kernel3D) -> Volume:
    """Reference dense correlation: pad with edge replication, sum over taps.

    Accumulates in float64 regardless of input dtype, then casts back to
    the dtype of the volume's values.  Intended for small volumes; cost
    grows with kernel volume.
    """
    c = kernel.coeffs
    _check_extents(c.shape, volume.dims)
    hx, hy, hz = (s // 2 for s in c.shape)
    nx, ny, nz = volume.dims
    pad = np.pad(
        volume.values().astype(np.float64),
        ((hx, hx), (hy, hy), (hz, hz)),
        mode="edge",
    )
    acc = np.zeros((nx, ny, nz), dtype=np.float64)
    for a in range(c.shape[0]):
        for b in range(c.shape[1]):
            for d in range(c.shape[2]):
                acc += c[a, b, d] * pad[a : a + nx, b : b + ny, d : d + nz]
    return Volume(acc.astype(volume.dtype), volume.spacing)
