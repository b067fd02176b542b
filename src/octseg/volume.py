"""Volume container, intensity normalization, and raw-file I/O.

A volume is a dense 3D scalar field with fixed axis semantics: axis 0 is x
(lateral position within a B-scan), axis 1 is y (B-scan index), axis 2 is z
(depth along an A-scan, larger z = deeper).  The canonical memory layout
keeps depth innermost, so ``data[x, y, :]`` is one contiguous A-scan.

Raw files on disk may store the axes in any order; a JSON sidecar declares
the file's dims, element type, endianness, and axis order.  ``VolumeMeta``,
the sidecar, is a checked ``records.Record``.  One reader serves every
use: ``open_volume`` holds the file open and reads it a box at a time,
each box into a buffer that the reading thread reuses, returned as the
canonical-axis view of the file's order, so the reader of a box does the
permutation as it copies.  ``load_bscan`` reads one B-scan of it.

A volume holds its samples as stored, under one rule: float data are the
values, while integer data with a ``scale`` stand for
``f32(data) / f32(scale)``.  A u8 file reads as its uint8 samples with
scale 255, a quarter of the float size.  Readers convert only the part
they read, through ``values``, so no float copy of the whole input is
made on the way to the filters.  The filters sum such samples as integers
where their taps allow and return the exact sums with the scale that makes
them the field's values, so a field stays integer too.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import Record

_AXES = "xyz"
_NUMPY_DTYPES = {
    ("u8", "le"): np.dtype("u1"),
    ("u8", "be"): np.dtype("u1"),
    ("f32", "le"): np.dtype("<f4"),
    ("f32", "be"): np.dtype(">f4"),
}


class SizeMismatchError(ValueError):
    """Raw file size disagrees with the dims declared in the sidecar."""

    def __init__(self, path, expected: int, actual: int):
        super().__init__(
            f"{path}: declared dims need {expected} bytes, file has {actual}"
        )
        self.expected = expected
        self.actual = actual


@dataclass(frozen=True)
class VolumeMeta(Record):
    """Sidecar metadata describing a raw volume file.

    ``dims`` and ``spacing_um`` are given in *file* axis order; ``order``
    maps file axes to semantic axes (e.g. ``"zxy"`` means the slowest file
    axis is depth).
    """

    _label = "sidecar"

    dims: tuple[int, int, int]
    dtype: str = "u8"
    endian: str = "le"
    order: str = "zxy"
    spacing_um: tuple[float, float, float] | None = None

    def check(self):
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dims must be three positive ints, got {self.dims!r}")
        if self.dtype not in ("u8", "f32"):
            raise ValueError(f"dtype must be 'u8' or 'f32', got {self.dtype!r}")
        if self.endian not in ("le", "be"):
            raise ValueError(f"endian must be 'le' or 'be', got {self.endian!r}")
        if sorted(self.order) != sorted(_AXES):
            raise ValueError(
                f"order must be a permutation of 'xyz', got {self.order!r}"
            )
        if self.spacing_um is not None and not all(s > 0 for s in self.spacing_um):
            raise ValueError(
                f"spacing_um must be three positive floats, got {self.spacing_um!r}"
            )

    @property
    def itemsize(self) -> int:
        return 1 if self.dtype == "u8" else 4

    @property
    def nbytes(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n * self.itemsize

    def to_dict(self) -> dict:
        return {k: v for k, v in super().to_dict().items() if v is not None}


class _Samples:
    """What a volume in memory and an opened raw file share: ``data`` is
    indexed as (nx, ny, nz), and ``scale`` says what its samples stand for."""

    @property
    def nx(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @property
    def nz(self) -> int:
        return self.data.shape[2]

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the values: float32 for scaled samples."""
        return self.data.dtype if self.scale is None else np.dtype(np.float32)

    def values(self, index=..., out: np.ndarray | None = None) -> np.ndarray:
        """The values of the samples ``data[index]``: the float samples as
        read; for scaled samples their float32 values, written into ``out``
        when given (float data leave ``out`` alone)."""
        return self.values_of(self.data[index], out)

    def values_of(self, samples, out: np.ndarray | None = None) -> np.ndarray:
        """The values that samples of this volume's data stand for, by the
        rule of ``values``."""
        if self.scale is None:
            return samples
        return np.divide(samples, np.float32(self.scale), out=out, dtype=np.float32)


@dataclass(frozen=True, eq=False)
class Volume(_Samples):
    """In-memory volume: samples shaped (nx, ny, nz), depth contiguous.

    ``data`` holds float values, or integer samples ``s`` that with a
    ``scale`` stand for ``f32(s) / f32(scale)``; integer data without a
    scale are cast to float32 as they are.  ``spacing`` is the
    canonical-order voxel pitch (dx, dy, dz) in microns, or None when
    unknown.
    """

    data: np.ndarray
    spacing: tuple[float, float, float] | None = None
    scale: float | None = None

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValueError(f"volume data must be 3D, got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"volume dims must all be positive, got {arr.shape}")
        if self.scale is not None:
            if arr.dtype.kind not in "iu":
                raise ValueError(f"scaled volume data must be integers, got {arr.dtype}")
            scale, info = float(self.scale), np.finfo(np.float32)
            if not float(info.tiny) <= scale <= float(info.max):
                raise ValueError(f"scale must be a positive normal float32, got {scale}")
            object.__setattr__(self, "scale", scale)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        object.__setattr__(self, "data", np.ascontiguousarray(arr))
        if self.spacing is not None:
            object.__setattr__(
                self, "spacing", tuple(float(s) for s in self.spacing)
            )


def _normalize(arr: np.ndarray, lo: float, hi: float, out: np.ndarray | None = None):
    """Map a float32 array whose min and max are given into [0, 1], written
    into ``out`` when it is rescaled and ``out`` is given.

    Values already inside [0, 1] pass through untouched, which makes the
    mapping idempotent and lets float volumes round-trip bit-exactly through
    save/load.  Anything else is min-max scaled; a constant out-of-range
    array collapses to zeros (no contrast to preserve).  A range wider than
    float32 holds is scaled from halved values and bounds, which is exact.
    """
    if 0.0 <= lo and hi <= 1.0:
        return arr
    if hi == lo:
        if out is None:
            return np.zeros_like(arr)
        out.fill(0)
        return out
    if hi - lo > float(np.finfo(np.float32).max):
        arr = out = np.multiply(arr, np.float32(0.5), out=out)
        lo, hi = lo / 2, hi / 2
    return np.divide(np.subtract(arr, lo, out=out), np.float32(hi - lo), out=out)


def _non_finite(count: int, first) -> str:
    """The message that rejects a volume with ``count`` NaN or infinite
    voxels, the first of which, in (x, y, z) order, is at ``first``."""
    x, y, z = (int(i) for i in first)
    return f"{count} non-finite voxel(s), first at (x, y, z) = ({x}, {y}, {z})"


# a read takes as many runs of the file as start within this many bytes,
# with the gaps between them, or one run where they lie farther apart
_READ_BYTES = 1 << 16
# the range pass over a float file reads this many bytes at a time
_RANGE_BYTES = 1 << 18


class RawSlabs:
    """The samples of a raw volume file, read one box at a time.

    Indexed like a canonical (nx, ny, nz) array, with unit-step slices:
    ``data[x0:x1]`` is an x-slab, ``data[x0:x1, :, :d]`` its planes z < d.
    A read fills a buffer that the calling thread reuses with the box as
    the file stores it, one read per file run (or per ``_READ_BYTES`` of
    short runs), and returns the canonical-axis view of that buffer, which
    holds until the same thread reads again.  u8
    samples are returned as stored; f32 ones as native float32, normalized
    into [0, 1] by the range that the opening pass found.  ``shape``,
    ``dtype``, ``size`` and ``nbytes`` describe the whole volume so read.
    A short read, or a file whose size is no longer the one declared,
    raises OSError naming the file.
    """

    def __init__(self, path: Path, meta: VolumeMeta):
        self.path = path
        self._file_dtype = _NUMPY_DTYPES[(meta.dtype, meta.endian)]
        self._file_dims = meta.dims
        self._file_bytes = meta.nbytes
        # canonical axis i is file axis perm[i]
        self.perm = tuple(meta.order.index(ax) for ax in _AXES)
        self.shape = tuple(meta.dims[p] for p in self.perm)
        self.dtype = np.dtype(np.uint8 if meta.dtype == "u8" else np.float32)
        self.size = math.prod(self.shape)
        self.nbytes = self.size * self.dtype.itemsize
        self._local = threading.local()
        self._file = open(path, "rb", buffering=0)
        try:
            actual = self._size()
            if actual != meta.nbytes:
                raise SizeMismatchError(path, meta.nbytes, actual)
            self._range = None if meta.dtype == "u8" else self._finite_range()
        except BaseException:
            self._file.close()
            raise

    def close(self) -> None:
        self._file.close()

    def _size(self) -> int:
        return os.fstat(self._file.fileno()).st_size

    def _changed(self, detail: str) -> OSError:
        return OSError(f"{self.path}: the file changed after it was opened: {detail}")

    def _check_unchanged(self) -> None:
        actual = self._size()
        if actual != self._file_bytes:
            raise self._changed(f"its size is now {actual} bytes")

    def _buffer(self, nbytes: int) -> np.ndarray:
        """``nbytes`` of the calling thread's read buffer, grown as needed."""
        buf = getattr(self._local, "buf", None)
        if buf is None or buf.size < nbytes:
            buf = self._local.buf = np.empty(nbytes, dtype=np.uint8)
        return buf[:nbytes]

    def _pread(self, into: np.ndarray, offset: int) -> None:
        """Fill the byte array ``into`` from ``offset``, continuing a read
        that returns less; the file's end before that means it shrank."""
        fd, n, done = self._file.fileno(), into.nbytes, 0
        while done < n:
            try:
                got = os.preadv(fd, [into[done:] if done else into], offset + done)
            except OSError as e:
                raise OSError(e.errno, e.strerror, str(self.path)) from None
            if got == 0:
                raise self._changed(f"read {done} of {n} bytes at offset {offset}")
            done += got

    def _finite_range(self) -> tuple[float, float]:
        """The min and max of the float samples, read once in file order;
        NaN or infinite samples raise, naming how many and the first one
        in (x, y, z) order."""
        lo, hi, bad, first = math.inf, -math.inf, 0, self.size
        isz = self._file_dtype.itemsize
        step = min(self.size, max(1, _RANGE_BYTES // isz))
        buf = np.empty(step * isz, dtype=np.uint8)
        for s0 in range(0, self.size, step):
            n = min(step, self.size - s0)
            self._pread(buf[: n * isz], s0 * isz)
            chunk = buf[: n * isz].view(self._file_dtype)
            # min and max propagate NaN and reach any infinity, so both are
            # finite exactly when every sample is
            c_lo, c_hi = float(chunk.min()), float(chunk.max())
            if math.isfinite(c_lo) and math.isfinite(c_hi):
                lo, hi = min(lo, c_lo), max(hi, c_hi)
                continue
            where = s0 + np.flatnonzero(~np.isfinite(chunk))
            bad += where.size
            at = np.unravel_index(where, self._file_dims)
            canonical = np.ravel_multi_index([at[p] for p in self.perm], self.shape)
            first = min(first, int(canonical.min()))
        self._check_unchanged()
        if bad:
            first = np.unravel_index(first, self.shape)
            raise ValueError(f"{self.path}: {_non_finite(bad, first)}")
        return lo, hi

    def __getitem__(self, index) -> np.ndarray:
        box = self._box(index)
        ranges = [None] * 3
        for axis, f in enumerate(self.perm):
            ranges[f] = box[axis]
        shape = [b - a for a, b in ranges]
        buf = self._buffer(math.prod(shape) * self._file_dtype.itemsize)
        self._read_box(ranges, buf)
        samples = buf.view(self._file_dtype).reshape(shape)
        if self._range is not None:
            if not self._file_dtype.isnative:
                samples = samples.byteswap(inplace=True).view(self.dtype)
            samples = _normalize(samples, *self._range, out=samples)
        return samples.transpose(self.perm)

    def _box(self, index) -> list[tuple[int, int]]:
        """The canonical (start, stop) of each axis that ``index`` reads."""
        index = () if index is Ellipsis else index if isinstance(index, tuple) else (index,)
        box = []
        if len(index) <= 3 and all(isinstance(s, slice) for s in index):
            index += (slice(None),) * (3 - len(index))
            for s, n in zip(index, self.shape):
                a, b, step = s.indices(n)
                if step == 1 and a < b:
                    box.append((a, b))
        if len(box) != 3:
            raise IndexError(f"{self.path}: reads take non-empty unit-step slices, got {index!r}")
        return box

    def _read_box(self, ranges: list[tuple[int, int]], out: np.ndarray) -> None:
        """Read the box of the file that spans ``ranges[i]`` along file axis
        i into the byte buffer ``out``, in C order.

        The box is a set of runs: each covers the innermost file axis that
        the box does not span whole, with every axis inside it.  The runs
        repeat at a fixed stride along the next axis out, and on through
        the one beyond it where that axis is spanned whole.  A read covers
        as many runs as fit in ``_READ_BYTES`` with the gaps between them,
        or one run straight into ``out``.
        """
        isz = self._file_dtype.itemsize
        dims = self._file_dims
        strides = (dims[1] * dims[2] * isz, dims[2] * isz, isz)
        whole = [r == (0, d) for r, d in zip(ranges, dims)]
        k = 2
        while k > 0 and whole[k]:
            k -= 1
        run = (ranges[k][1] - ranges[k][0]) * strides[k]
        start = ranges[k][0] * strides[k]
        if k == 0:  # one run
            count, stride, bases = 1, run, [0]
        elif k == 1 or whole[1]:  # runs along the axes outside k, as one
            count = math.prod(b - a for a, b in ranges[:k])
            stride, bases = strides[k - 1], [ranges[0][0] * strides[0]]
        else:  # runs along axis 1, for each index of axis 0
            count, stride = ranges[1][1] - ranges[1][0], strides[1]
            bases = [i * strides[0] + ranges[1][0] * strides[1] for i in range(*ranges[0])]
        per_read = min(count, max(1, _READ_BYTES // stride))
        # a read of n runs fills the chunk up to the end of the last run
        chunk = np.empty(per_read * stride, dtype=np.uint8) if per_read > 1 else None
        rows = out.reshape(-1, run)
        r = 0
        for base in bases:
            for c0 in range(0, count, per_read):
                n = min(per_read, count - c0)
                at = base + start + c0 * stride
                if n == 1:
                    self._pread(rows[r], at)
                else:
                    self._pread(chunk[: (n - 1) * stride + run], at)
                    rows[r : r + n] = chunk[: n * stride].reshape(n, stride)[:, :run]
                r += n
        self._check_unchanged()


@dataclass(frozen=True, eq=False)
class RawVolume(_Samples):
    """A raw volume file opened for reads of a box at a time.

    Read like a ``Volume`` (``dims``, ``values``, ``scale``, ``spacing``)
    through ``data``, a ``RawSlabs``: u8 samples with scale 255, or float32
    values without one.  It holds the file open until ``close``, or the end
    of a ``with`` block.
    """

    data: RawSlabs
    spacing: tuple[float, float, float] | None = None
    scale: float | None = None

    def close(self) -> None:
        self.data.close()

    def __enter__(self) -> "RawVolume":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_volume(path, meta: VolumeMeta) -> RawVolume:
    """Open a raw volume file for x-slab reads in the canonical layout.

    The file's byte length must match the sidecar dims exactly.  A float
    file is read once, in file order, for its min and max: a NaN or
    infinite sample raises ValueError, and a range outside [0, 1] is the
    one that each read normalizes by.
    """
    data = RawSlabs(Path(path), meta)
    spacing = None
    if meta.spacing_um is not None:
        spacing = tuple(float(meta.spacing_um[p]) for p in data.perm)
    return RawVolume(data, spacing, 255.0 if meta.dtype == "u8" else None)


def load_bscan(path, meta: VolumeMeta, y: int) -> np.ndarray:
    """The values of B-scan ``y`` of a raw volume file, as (nx, nz) float32.

    Only where B-scan y lies is read: in the file it is a run of samples
    repeated at a fixed stride, read about ``_READ_BYTES`` at a time from
    the first run to the last, so memory holds little more than the
    B-scan.  A float file is first read once for its range, as
    ``open_volume`` does.  The file's byte length must match the sidecar
    dims exactly, and ``y`` must lie in [0, ny).
    """
    ny = meta.dims[meta.order.index("y")]
    if not 0 <= y < ny:
        raise ValueError(f"slice index {y} outside [0, {ny})")
    with open_volume(path, meta) as raw:
        return np.ascontiguousarray(raw.values(np.s_[:, y : y + 1])[:, 0])


def save_volume(volume: Volume, path, dtype: str = "f32", meta_path=None) -> VolumeMeta:
    """Write a volume as a canonical-order raw file plus JSON sidecar.

    u8 output quantizes with round-half-even after clipping to [0, 1].
    Returns the sidecar metadata; the sidecar lands at ``meta_path`` or
    ``<path>.json`` by default.
    """
    meta = VolumeMeta(
        dims=volume.dims,
        dtype=dtype,
        endian="le",
        order="xyz",
        spacing_um=volume.spacing,
    )
    path = Path(path)
    if dtype == "u8" and volume.scale == 255 and volume.data.dtype == np.uint8:
        out = volume.data  # rint(values * 255) == u for every u8 sample u
    elif dtype == "u8":
        out = np.clip(np.rint(volume.values() * 255.0), 0, 255).astype(np.uint8)
    else:
        out = np.ascontiguousarray(volume.values(), dtype="<f4")
    out.tofile(path)
    meta.save(meta_path if meta_path is not None else Path(f"{path}.json"))
    return meta
