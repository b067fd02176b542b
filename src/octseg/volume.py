"""Volume container, intensity normalization, and raw-file I/O.

A volume is a dense 3D scalar field with fixed axis semantics: axis 0 is x
(lateral position within a B-scan), axis 1 is y (B-scan index), axis 2 is z
(depth along an A-scan, larger z = deeper).  The canonical memory layout
keeps depth innermost, so ``data[x, y, :]`` is one contiguous A-scan.

Raw files on disk may store the axes in any order; a JSON sidecar declares
the file's dims, element type, endianness, and axis order, and the loader
permutes into the canonical layout.  ``VolumeMeta``, the sidecar, is a
checked ``records.Record``.

A volume holds its samples as stored, under one rule: float data are the
values, while integer data with a ``scale`` stand for
``f32(data) / f32(scale)``.  A u8 file loads as its uint8 samples with
scale 255, a quarter of the float size.  Readers convert only the part
they read, through ``Volume.values``, so no float copy of the whole input
is made on the way to the filters.  The filters sum such samples as
integers where their taps allow and return the exact sums with the scale
that makes them the field's values, so a field stays integer too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


@dataclass(frozen=True, eq=False)
class Volume:
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
        """The values of the samples ``data[index]``: a view of float data;
        for scaled samples their float32 values, written into ``out`` when
        given (float data leave ``out`` alone)."""
        return self.values_of(self.data[index], out)

    def values_of(self, samples, out: np.ndarray | None = None) -> np.ndarray:
        """The values that samples of this volume's data stand for, by the
        rule of ``values``."""
        if self.scale is None:
            return samples
        return np.divide(samples, np.float32(self.scale), out=out, dtype=np.float32)


def normalize_intensities(arr: np.ndarray) -> np.ndarray:
    """Map a float array into [0, 1].

    Values already inside [0, 1] pass through untouched, which makes the
    mapping idempotent and lets float volumes round-trip bit-exactly through
    save/load.  Anything else is min-max scaled; a constant out-of-range
    array collapses to zeros (no contrast to preserve).
    """
    arr = np.asarray(arr, dtype=np.float32)
    return _normalize(arr, float(arr.min()), float(arr.max()))


def _normalize(arr: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``normalize_intensities`` of a float32 array whose min and max are given."""
    if 0.0 <= lo and hi <= 1.0:
        return arr
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / np.float32(hi - lo)


def _finite_range(data: np.ndarray, path) -> tuple[float, float]:
    """The min and max of float samples; NaN or infinite samples raise,
    naming how many and the first one."""
    # min and max propagate NaN and reach any infinity, so both are finite
    # exactly when every sample is
    lo, hi = float(data.min()), float(data.max())
    if math.isfinite(lo) and math.isfinite(hi):
        return lo, hi
    bad = ~np.isfinite(data)
    x, y, z = np.unravel_index(np.flatnonzero(bad)[0], data.shape)
    raise ValueError(
        f"{path}: {np.count_nonzero(bad)} non-finite voxel(s), "
        f"first at (x, y, z) = ({x}, {y}, {z})"
    )


def _check_size(path: Path, meta: VolumeMeta) -> None:
    actual = path.stat().st_size
    if actual != meta.nbytes:
        raise SizeMismatchError(path, meta.nbytes, actual)


def load_volume(path, meta: VolumeMeta) -> Volume:
    """Read a raw volume file into the canonical (nx, ny, nz) layout.

    u8 samples stay uint8 with scale 255; float samples become float32,
    normalized into [0, 1] only if they fall outside that range.  Either
    takes at most one copy, the one that permutes the axes.  The file's
    byte length must match the sidecar dims exactly, and a NaN or infinite
    sample raises ValueError.
    """
    path = Path(path)
    _check_size(path, meta)
    raw = np.fromfile(path, dtype=_NUMPY_DTYPES[(meta.dtype, meta.endian)])
    raw = raw.reshape(meta.dims)
    # canonical axis i comes from file axis perm[i]
    perm = tuple(meta.order.index(ax) for ax in _AXES)
    spacing = None
    if meta.spacing_um is not None:
        spacing = tuple(meta.spacing_um[perm[i]] for i in range(3))
    if meta.dtype == "u8":
        return Volume(raw.transpose(perm), spacing, scale=255)
    data = np.ascontiguousarray(raw.transpose(perm), dtype=np.float32)
    return Volume(_normalize(data, *_finite_range(data, path)), spacing)


# load_bscan reads a u8 file about this many bytes at a time
_READ_BYTES = 1 << 16


def load_bscan(path, meta: VolumeMeta, y: int) -> np.ndarray:
    """The values of B-scan ``y`` of a raw volume file, as (nx, nz) float32.

    A u8 file is read only where B-scan y lies: in the file it is a run of
    samples repeated at a fixed stride, read about ``_READ_BYTES`` at a time
    from the first run to the last, so memory holds little more than the
    B-scan.  A float file is read whole by ``load_volume``, because its
    finiteness check and its normalization into [0, 1] need every sample.
    The file's byte length must match the sidecar dims exactly, and ``y``
    must lie in [0, ny).
    """
    path = Path(path)
    axis = meta.order.index("y")
    ny = meta.dims[axis]
    if not 0 <= y < ny:
        raise ValueError(f"slice index {y} outside [0, {ny})")
    if meta.dtype != "u8":
        return load_volume(path, meta).data[:, y, :]
    _check_size(path, meta)
    # the file as (outer, ny, inner): B-scan y is the outer runs [o, y, :]
    outer, inner = math.prod(meta.dims[:axis]), math.prod(meta.dims[axis + 1 :])
    stride = ny * inner
    per_read = min(outer, max(1, _READ_BYTES // stride))
    runs = np.empty((outer, inner), dtype=np.uint8)
    chunk = np.empty((per_read - 1) * stride + inner, dtype=np.uint8)
    with open(path, "rb") as f:
        for o0 in range(0, outer, per_read):
            n = min(per_read, outer - o0)
            f.seek((o0 * ny + y) * inner)
            f.readinto(chunk)
            # the chunk ends with run per_read - 1, so n <= per_read runs fit
            runs[o0 : o0 + n] = as_strided(chunk, (n, inner), (stride, 1), writeable=False)
    runs = runs.reshape([d for i, d in enumerate(meta.dims) if i != axis])
    if meta.order.replace("y", "") == "zx":
        runs = runs.T
    # one B-scan's samples as a volume of ny = 1, for the values they stand for
    return Volume(runs[:, None, :], scale=255).values()[:, 0, :]


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
