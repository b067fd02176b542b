"""Separable 3D filtering plus the kernels used for boundary detection.

All filters run in correlation orientation (no kernel flip) and replicate
edge samples at the borders, so a flat region produces no spurious response
near the volume faces.  ``convolve_fields`` is the fast path: one pass
over x-slabs that reads each slab once and, for each of its kernels, runs
the slab's z, x and y correlations back to back and writes it into that
kernel's field, so no volume-sized intermediate exists, and that can stop
at a given depth; ``convolve_separable`` is its one-kernel case.  It
reads its input only as x-slabs, ``volume.data[x0:x1, :, :d]``, so a
``RawVolume``, a raw file opened by
``open_volume``, serves as well as a ``Volume`` in memory: the input is
then never held whole.  Each pass computes only the samples that
are kept and writes them where the next pass reads them: the z pass reads
the samples straight into its padded scratch, permuting the axes of a
slab read in another file order as it copies (or, with several kernels,
once before them), and writes the planes above the depth into the x halo
buffer, the x pass reads the halo but computes only the slab's own
planes, into the field, and the y pass runs in the field in place.  Its
one-axis correlation sums float values in their dtype, box taps with a
single multiply, in one order at any thread count.  The scaled integer
samples of a u8 volume (``Volume.scale``) under box, odd-box or identity
taps (every kernel the pipeline builds) are summed as integers instead,
exact in int16 or int32, and the field is those sums, with the scale
that divides them into its values; under other taps they are read as the
float32 values they stand for.  The pipeline
asks a ``FilterBank`` for each boundary's two fields in one request; the
bank computes each field once, a request's new fields in one pass, drops
each after its last planned reader, and holds each request's depth as a
promise that no later request reads deeper: a new field is computed only
that deep, and the fields kept for later readers are first cut to it in
place.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .volume import RawVolume, Volume, _non_finite


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


def _check_read(reader: tuple[int, int, int], dims) -> None:
    """Raise ValueError when a read's derivative or smoothing kernel is
    longer than the volume along an axis.  Only the sizes are compared, as
    integers, so a kernel too long to fit in memory is never built."""
    half_width, lateral, radius = reader
    for extents in ((lateral, lateral, 2 * half_width + 1), (2 * radius + 1,) * 3):
        _check_extents(extents, dims)


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
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

    with ThreadPoolExecutor(max_workers=min(threads, len(bounds))) as pool:
        return list(pool.map(lambda span: fn(*span), bounds))


# blocks of one correlation pass hold about as many bytes as this many float32
# samples, so the scratch stays in cache (the three fields of a 300x99x480
# run took 0.44-0.45 s at 1 << 15, 0.37-0.41 s at 1 << 16, 0.40 s at 1 << 17,
# 0.45-0.49 s at 1 << 18 in float32 sums; those of its u8 samples, summed in
# int16 mostly, 0.33-0.34 s with blocks of 1 << 16 samples and 0.29-0.30 s
# with the 1 << 17 that this gives)
_BLOCK_SAMPLES = 1 << 16


def _tap_form(w: np.ndarray) -> str | None:
    """``"box"`` for 2h+1 equal taps, ``"odd"`` for ``c`` on the h taps
    before a zero centre and ``-c`` on the h after it (h > 0), else None."""
    h, c = w.size // 2, w[0]
    if h and np.all(w == c):
        return "box"
    if h and w[h] == 0 and np.all(w[:h] == c) and np.all(w[h + 1 :] == -c):
        return "odd"
    return None


def _correlate1d(
    arr: np.ndarray,
    taps: np.ndarray,
    axis: int,
    lo: int = 0,
    hi: int | None = None,
    out: np.ndarray | None = None,
    sums: np.dtype | None = None,
) -> np.ndarray:
    """Correlate ``arr`` with odd-length ``taps`` along ``axis``, replicating
    the edge samples, and return the outputs [lo, hi) along that axis.

    The outputs have ``arr``'s float dtype and are written into ``out``
    when given, a C-contiguous array of their shape.  Only the input
    samples within ``taps.size // 2`` of [lo, hi) are read.  Sums run in
    ``arr``'s dtype.  Box taps, all equal, add the 2h+1 shifted samples and
    multiply once; odd-box taps, ``c`` on the h before a zero centre and
    ``-c`` on the h after it, add the h differences of mirrored samples and
    multiply once by ``c``; other taps take one multiply-add each.  Each
    output's terms are added in one order whatever the block, range or
    thread, so results are bitwise deterministic; they stay within
    ``(taps.size + 1) * eps * sum|taps| * max|arr|`` of the tests' float64
    reference, plus ``taps.size * smallest_subnormal / 2 * max|arr|``, as a
    tap cast into the dtype's subnormal range is rounded by up to half that
    spacing, not by a relative eps.  The axis is processed in blocks of
    about as many bytes as ``_BLOCK_SAMPLES`` float32 samples.

    With ``sums``, an integer dtype, ``arr`` holds integers and the taps
    must be box or odd-box: each output is the exact sum of its samples
    counted +1, or +1 before the centre and -1 after it, computed in
    ``sums``, which the caller makes wide enough, and written in ``sums``
    or in the wider integer dtype of ``out``.
    """
    if sums is None:
        if arr.dtype.kind != "f":
            raise ValueError(f"{arr.dtype} samples need integer sums")
        dtype = arr.dtype
        w = np.asarray(taps).astype(dtype)
    else:
        dtype = np.dtype(sums)
        w = np.asarray(taps, dtype=np.float64)
    n = arr.shape[axis]
    hi = n if hi is None else hi
    m = hi - lo
    shape = arr.shape[:axis] + (m,) + arr.shape[axis + 1 :]
    if out is None:
        out = np.empty(shape, dtype=dtype)
    elif out.shape != shape or not out.flags.c_contiguous or not (
        out.dtype == dtype or sums is not None and out.dtype.kind == "i"
        and np.can_cast(dtype, out.dtype)
    ):
        raise ValueError(f"out must be a C-contiguous {dtype} array of shape {shape}"
                         + ("" if sums is None else ", or of a wider integer dtype"))
    h, c = w.size // 2, w[0]
    form = _tap_form(w)
    if sums is not None and form is None:
        raise ValueError("integer sums need box or odd-box taps")
    outer, inner = math.prod(arr.shape[:axis]), math.prod(arr.shape[axis + 1 :])
    src = arr.reshape(outer, n, inner)
    dst = out.reshape(outer, m, inner)
    # padded sample p stands for input sample lo - h + p, clipped to the
    # axis; the input's samples [a, b) land at padded [a - lo + h, b - lo + h)
    a, b = max(lo - h, 0), min(hi + h, n)
    left, right = a - lo + h, b - lo + h
    # a block is bo x (m + 2h) x bi padded samples, laid out flat: the
    # samples j places from every output are then one contiguous run, and
    # the runs' ends, which straddle two lines, are computed and dropped
    samples = max(1, _BLOCK_SAMPLES * 4 // dtype.itemsize)
    bi = min(inner, max(1, samples // (m + 2 * h)))
    bo = min(outer, max(1, samples // ((m + 2 * h) * bi)))
    pad_buf = np.empty(bo * (m + 2 * h) * bi, dtype=dtype)
    acc_buf, tmp_buf = np.empty_like(pad_buf), np.empty_like(pad_buf)
    for o0 in range(0, outer, bo):
        o1 = min(o0 + bo, outer)
        for i0 in range(0, inner, bi):
            i1 = min(i0 + bi, inner)
            block = (o1 - o0, m + 2 * h, i1 - i0)
            size = math.prod(block)
            pad = pad_buf[:size].reshape(block)
            pad[:, left:right] = src[o0:o1, a:b, i0:i1]
            pad[:, :left] = pad[:, left : left + 1]
            pad[:, right:] = pad[:, right - 1 : right]
            step = i1 - i0
            run = size - 2 * h * step
            acc, tmp = acc_buf[:run], tmp_buf[:run]

            def x(j):  # the samples j places from each output sample
                return pad_buf[(h + j) * step : (h + j) * step + run]

            if form == "box":
                np.add(x(-h), x(1 - h), out=acc)
                for j in range(2 - h, h + 1):
                    acc += x(j)
            elif form == "odd":
                np.subtract(x(-h), x(h), out=acc)
                for j in range(h - 1, 0, -1):
                    np.subtract(x(-j), x(j), out=tmp)
                    acc += tmp
            else:
                np.multiply(x(-h), c, out=acc)
                for j in range(1 - h, h + 1):
                    np.multiply(x(j), w[h + j], out=tmp)
                    acc += tmp
            # box and odd-box float sums take their one multiply on the way out
            done, into = acc_buf[:size].reshape(block)[:, :m], dst[o0:o1, :, i0:i1]
            if sums is None:
                np.multiply(done, c if form else 1, out=into)
            else:
                into[...] = done
    return out


def _exact_passes(
    volume: Volume | RawVolume, taps: list
) -> tuple[list[np.dtype], float] | None:
    """How a volume of scaled integer samples is filtered in exact integer
    sums: for the z, x and y taps (None where they are identity), the dtype
    each pass sums in, and the scale of the last pass's sums.

    A pass sums tap counts in int16 or int32, whichever holds its bound; an
    identity pass keeps the dtype before it, the samples' own at first.
    With ``c`` the first tap of each axis (1 for identity), the field's
    values are ``S * c_z * c_x * c_y / volume.scale`` for the sums ``S``,
    so their scale is ``volume.scale / (c_z * c_x * c_y)``.  For ``c =
    1/n`` taps on a u8 volume, whose scale is 255, ``f32(S) / f32(scale)``
    is then the correctly rounded ``S / (255 * n_z * n_x * n_y)``.  None,
    for the float path, unless the volume is scaled, every axis's taps are
    identity, box or odd-box with ``c > 0``, every sum stays below 2**24,
    where float32 holds it exactly, and the scale is a normal float32.
    """
    if volume.scale is None:
        return None
    dtype = volume.data.dtype
    lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
    c, dtypes = 1.0, []
    for t in taps:
        if t is not None:
            form = _tap_form(t)
            if form is None:
                return None
            h = t.size // 2
            lo, hi = (t.size * lo, t.size * hi) if form == "box" else (h * (lo - hi), h * (hi - lo))
            c *= t[0]
            bound = max(-lo, hi)
            if bound >= 1 << 24:
                return None
            dtype = np.dtype(np.int16 if bound < 1 << 15 else np.int32)
        dtypes.append(dtype)
    info = np.finfo(np.float32)
    if not c > 0 or not info.tiny <= volume.scale / c <= info.max:
        return None
    return dtypes, volume.scale / c


# x-slabs of one filter pass hold about this many bytes of z-filtered
# samples, shared by the kernels it runs: the u8 derivative and smoothing
# fields of RPE hold int16 sums, 2**19 voxels each, and float32 ones hold
# 2**18.  Each slab moves its x halo forward and makes one correlation call
# per kernel and axis, so a narrow slab pays that per few planes; a wide one
# holds more scratch per thread (on 2 vCPUs the three fields of a 300x99x480
# u8 run, one kernel a pass, took 0.36 / 0.31 / 0.29 / 0.31 s at 2**17 / 18
# / 19 / 20 voxels a slab)
_FILTER_SLAB_BYTES = 1 << 21


class _KernelPass:
    """What one kernel of a filter pass needs: its z, x and y taps (None for
    [1.0]), whether it sums scaled samples exactly, the dtype each axis
    pass sums in, its x halo, the planes its z pass reads, and its output."""

    def __init__(self, volume: Volume | RawVolume, kernel: SeparableKernel, depth: int):
        _check_extents((kernel.kx.size, kernel.ky.size, kernel.kz.size), volume.dims)
        taps = [None if t.tolist() == [1.0] else t for t in (kernel.kz, kernel.kx, kernel.ky)]
        self.kz, self.kx, self.ky = taps
        exact = _exact_passes(volume, taps)
        self.exact = exact is not None
        if exact is None:  # the values, summed in their dtype
            dtypes, self.scale, self.sums = [volume.dtype] * 3, None, [None] * 3
        else:  # the samples, summed exactly in each pass's dtype
            (dtypes, self.scale), self.sums = exact, exact[0]
        self.held_dtype, _, out_dtype = dtypes
        self.hx = 0 if self.kx is None else self.kx.size // 2
        # the z pass reads no plane at or below depth + hz
        self.read_depth = min(volume.nz, depth + (0 if self.kz is None else self.kz.size // 2))
        self.out = np.empty((volume.nx, volume.ny, depth), dtype=out_dtype)


def convolve_fields(
    volume: Volume | RawVolume,
    kernels: Sequence[SeparableKernel],
    threads: int = 1,
    depth: int | None = None,
) -> list[Volume]:
    """Filter a volume with outer-product kernels in one pass over x-slabs,
    returning one field per kernel.

    Each slab is read once and runs, for each kernel, the z, x and y
    correlations in that order, skipping an axis whose taps are [1.0], and
    writes its planes straight into that kernel's field; each kernel's
    z-filtered planes of the x halo are carried from one slab to the next,
    and its x pass computes only the slab's own planes from them.  Threads
    take contiguous x ranges, and each recomputes the halo at its start.
    Every output sees the same neighbourhood and the same arithmetic as
    whole-axis passes, so results are bitwise equal to them, and to one
    pass per kernel, at any thread count and slab width.  With ``depth``,
    only the planes z < depth are computed, reading the input at most
    ``kz.size // 2`` planes below them.  The input is read one x-slab at a
    time, as ``volume.data[x0:x1, :, :d]``, from a ``Volume`` or a
    ``RawVolume`` alike, and each slab is used up before the thread reads
    the next; a slab whose depth axis is strided, read in another file
    order, is permuted once into scratch when more than one kernel reads
    it.  Scaled integer samples are summed exactly as integers when
    ``_exact_passes`` allows it, and the field is the last pass's sums
    with their scale; else they are converted to their float32 values as
    the z pass reads them.  Float values give a field of their dtype.  A
    kernel longer than the volume along any axis is rejected.  Slabs are
    as wide as ``_FILTER_SLAB_BYTES`` of the kernels' z-filtered planes
    allow, and each thread reuses its halo buffers for all of its slabs.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    nx, ny, nz = volume.dims
    depth = nz if depth is None else depth
    if not 1 <= depth <= nz:
        raise ValueError(f"depth must be between 1 and {nz}, got {depth}")
    passes = [_KernelPass(volume, k, depth) for k in kernels]
    hx = max(p.hx for p in passes)
    read_depth = max(p.read_depth for p in passes)
    width = max(1, _FILTER_SLAB_BYTES // (ny * depth * sum(p.held_dtype.itemsize for p in passes)))
    chunks = _chunk_bounds(nx, min(threads, nx))

    def run(lo: int, hi: int) -> None:
        slab = min(width, hi - lo)
        held = [np.empty((min(slab + p.hx + hx, nx), ny, depth), p.held_dtype) for p in passes]
        permuted = None
        # held[i] keeps kernel i's z-filtered planes [starts[i], b) of the
        # current slab's x neighbourhood; every plane below b has been read
        starts, b = [0] * len(passes), 0
        for s0 in range(lo, hi, width):
            s1 = min(s0 + width, hi)
            nb = min(nx, s1 + hx)
            f = max(b, s0 - hx, 0)  # the first plane that a kernel has not read
            if nb > f:
                samples = volume.data[f:nb, :, :read_depth]
                if len(passes) > 1 and samples.strides[2] != samples.itemsize:
                    if permuted is None:
                        shape = (min(slab + 2 * hx, nx), ny, read_depth)
                        permuted = np.empty(shape, samples.dtype)
                    np.copyto(permuted[: nb - f], samples)
                    samples = permuted[: nb - f]
            for i, (p, h) in enumerate(zip(passes, held)):
                na = max(0, s0 - p.hx)
                if b > na:
                    h[: b - na] = h[na - starts[i] : b - starts[i]]
                fresh = max(b, na)
                if nb > fresh:
                    into = h[fresh - na : nb - na]
                    part = samples[fresh - f : nb - f]
                    part = part if p.exact else volume.values_of(part)
                    if p.kz is not None:
                        _correlate1d(part, p.kz, 2, 0, depth, out=into, sums=p.sums[0])
                    else:
                        into[...] = part[:, :, :depth]
                starts[i] = na
                # the x pass reads the halo and writes only the slab's planes,
                # into the field, whose dtype holds its sums too; the y pass
                # then runs there in place
                target = p.out[s0:s1]
                if p.kx is None:
                    planes = h[s0 - na : s1 - na]
                else:
                    planes = target
                    _correlate1d(h[: nb - na], p.kx, 0, s0 - na, s1 - na,
                                 out=planes, sums=p.sums[1])
                if p.ky is not None:
                    _correlate1d(planes, p.ky, 1, out=target, sums=p.sums[2])
                elif planes is not target:
                    target[...] = planes
            b = nb

    _map_slabs(run, chunks, threads)
    return [Volume(p.out, volume.spacing, p.scale) for p in passes]


def convolve_separable(
    volume: Volume | RawVolume,
    kernel: SeparableKernel,
    threads: int = 1,
    depth: int | None = None,
) -> Volume:
    """Filter a volume with one outer-product kernel: ``convolve_fields``
    with that kernel alone."""
    return convolve_fields(volume, [kernel], threads, depth)[0]


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

    ``plan`` lists the bank's readers, one (derivative half-width, lateral
    width, smoothing radius) per read, and ``fields`` serves each read its
    bright-above derivative and its box-smoothed intensity.  Every field is
    bitwise equal to ``convolve_separable`` with the matching kernel, or to
    its first planes.  A read of the planes z < ``depth`` promises that no
    later read goes below them; a deeper one raises ValueError.  The fields
    of a read that the bank does not keep are computed in one pass, only
    that deep, and just before they are allocated the kept fields that are
    deeper are cut to that depth in place, so a field handed out earlier
    and still held shrinks with them.  A kept field is handed back as it
    is.  A field is dropped once its last planned reader has taken it, and
    a read that the plan does not hold, or no longer holds, raises
    ValueError, as does one whose kernels are longer than the volume
    (``_check_read``, before any kernel is built).  Fields are shared
    between callers, so their arrays are made read-only.  Float values in
    memory with a NaN or infinite voxel raise ValueError; a ``RawVolume``
    was checked when it was opened, and scaled integer samples are finite.
    """

    def __init__(
        self, volume: Volume | RawVolume, threads: int, plan: Iterable[tuple[int, int, int]]
    ):
        if isinstance(volume, Volume) and volume.scale is None:
            data = volume.data
            # min and max propagate NaN and reach any infinity, so both are
            # finite exactly when every voxel is
            if not (np.isfinite(data.min()) and np.isfinite(data.max())):
                bad = ~np.isfinite(data)
                first = np.unravel_index(bad.argmax(), data.shape)
                raise ValueError(_non_finite(int(bad.sum()), first))
        self.volume = volume
        self.threads = threads
        self._reads = Counter(plan)  # planned reads still to come
        self._fields: dict[tuple, Volume] = {}
        self._depth = volume.nz  # no read goes to a plane at or below this

    def fields(self, reader: tuple[int, int, int], depth: int) -> tuple[Volume, Volume]:
        """The derivative and smoothed fields of one planned read, for a
        caller that reads the planes z < depth."""
        if not self._reads[reader]:
            raise ValueError(f"no planned read of the fields {reader} is left")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if depth > self._depth:
            raise ValueError(
                f"planes z < {depth} requested from a filter bank limited to z < {self._depth}"
            )
        _check_read(reader, self.volume.dims)
        self._depth = depth
        keys = _field_keys(reader)
        new = [key for key in keys if key not in self._fields]
        if new:
            for kept in self._fields.values():
                if kept.nz > depth:
                    # the Volume's reference and getrefcount's argument; any
                    # other (a view, a second holder) would outlive the cut
                    if sys.getrefcount(kept.data) > 2:
                        raise ValueError("a field still in use cannot be cut in place")
                    _crop_depth(kept.data, depth)
            kernels = [make(*sizes) for make, *sizes in new]
            if len(kernels) == 1:
                computed = [convolve_separable(self.volume, kernels[0], self.threads, depth)]
            else:
                computed = convolve_fields(self.volume, kernels, self.threads, depth)
            for key, field in zip(new, computed):
                field.data.flags.writeable = False
                self._fields[key] = field
        derivative, smoothed = (self._fields[key] for key in keys)
        self._reads[reader] -= 1
        planned = {key for r, left in self._reads.items() if left for key in _field_keys(r)}
        self._fields = {key: f for key, f in self._fields.items() if key in planned}
        return derivative, smoothed


def _field_keys(reader: tuple[int, int, int]) -> tuple[tuple, tuple]:
    """A read's derivative and smoothing fields, each as its kernel maker
    followed by the maker's arguments."""
    half_width, lateral, radius = reader
    return (make_derivative_kernel, half_width, lateral), (make_smoothing_kernel, radius)
