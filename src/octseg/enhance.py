"""Depth-weighted combination of edge response and smoothed intensity.

Boundary contrast alone does not separate retinal interfaces that share
similar gradient strength, so the detector combines the (rectified,
rescaled) depth derivative with the rescaled smoothed intensity and then
multiplies by a depth weight.  Weights grow with depth to prefer the deeper
of two otherwise similar candidates (outer boundaries) or shrink with depth
to prefer the shallower one (inner boundaries).
The score lives only one x-slab at a time: each slab is picked, one depth
per column, as soon as it is scored, and ``enhance`` returns the picks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .filters import _map_slabs, _slab_bounds
from .surfaces import SearchMask, Surface, argmax_per_ascan
from .volume import Volume


class DegenerateNormalizationWarning(RuntimeWarning):
    """Warned when an input field or the weighted score is flat (max == min)."""


_FLAT_MESSAGES = (
    "derivative volume is flat over the search region; its contribution is zero",
    "smoothed volume is flat over the search region; its contribution is zero",
    "enhanced volume is flat over the search region",
)


@dataclass(frozen=True)
class DepthWeight:
    """Per-depth multiplier, linear in the depth index.

    "favor_deep" uses w(k) = k + 1 and "favor_shallow" uses w(k) = nz - k;
    both stay strictly positive so no depth plane is erased outright.
    """

    direction: str
    nz: int

    def __post_init__(self):
        if self.direction not in ("favor_deep", "favor_shallow"):
            raise ValueError(
                f"direction must be 'favor_deep' or 'favor_shallow', got {self.direction!r}"
            )
        if self.nz < 1:
            raise ValueError(f"nz must be >= 1, got {self.nz}")

    def weights(self) -> np.ndarray:
        k = np.arange(self.nz, dtype=np.float32)
        if self.direction == "favor_deep":
            return k + np.float32(1.0)
        return np.float32(self.nz) - k


def _window_index(k_lo: np.ndarray, k_hi: np.ndarray, depth: int) -> np.ndarray | None:
    """``reduceat`` indexes of the non-empty windows of a block of columns.

    The block is read flat with ``depth`` samples per column; window c is
    reduced at even position 2c of the result.  None means every window is
    the whole column, so a plain reduction does.
    """
    if (k_lo == 0).all() and (k_hi == depth).all():
        return None
    base = np.arange(k_lo.size, dtype=np.intp).reshape(k_lo.shape) * depth
    keep = k_lo < k_hi
    idx = np.stack([(base + k_lo)[keep], (base + k_hi)[keep]], axis=-1).ravel()
    # the end of a window at the end of the block is implied
    return idx[:-1] if idx.size and idx[-1] == k_lo.size * depth else idx


def _extrema(values: np.ndarray, idx: np.ndarray | None):
    """(min, max) of a contiguous block over the windows of ``idx``, or None
    when it has no window."""
    flat = values.reshape(-1)
    if idx is None:
        return flat.min(), flat.max()
    if idx.size == 0:
        return None
    return np.minimum.reduceat(flat, idx)[::2].min(), np.maximum.reduceat(flat, idx)[::2].max()


def _merge(parts) -> tuple:
    """Overall (min, max) of per-slab extrema, skipping slabs without a window."""
    found = [p for p in parts if p is not None]
    return np.min([p[0] for p in found]), np.max([p[1] for p in found])


def _rescale(values: np.ndarray, lo, hi) -> None:
    """Min-max rescale in place with extrema taken elsewhere; a flat range zeroes."""
    if hi > lo:
        values -= lo
        values /= hi - lo
    else:
        values.fill(0)


def enhance(
    diff: Volume,
    smooth: Volume,
    weight: DepthWeight,
    sign: int = 1,
    clamp_negative: bool = True,
    mask: SearchMask | None = None,
    threads: int = 1,
) -> tuple[Surface, bool]:
    """Score a derivative and a smoothed volume and pick one depth per column.

    Each input is min-max rescaled (the derivative after multiplying by
    ``sign``, -1 for a bright-below boundary, and clamping negative
    responses if asked), summed and weighted by depth along z.  All rescale
    extrema come from the voxels inside ``mask``'s per-column windows (None:
    the whole volume), so excluded regions cannot distort the scaling.  Each
    column picks the first maximum of its score inside its window
    (``argmax_per_ascan``); a column with an empty window comes back invalid.

    ``weight`` has the volume's depth; the fields may stop short of it, at
    any depth that covers the depth band [z0, z1) that holds every window
    (``mask.to_band()``).  Only that band is scored, one x-slab of scratch
    at a time, on up to ``threads`` threads; each voxel gets the same
    arithmetic at any thread count.  Returns the surface in volume depth
    and whether the score is flat over the windows (then each column picks
    the top of its window).  A flat field at any step triggers
    DegenerateNormalizationWarning; a flat input contributes zero.
    """
    if diff.dims[:2] != smooth.dims[:2]:
        raise ValueError(f"dims mismatch: {diff.dims} vs {smooth.dims}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")
    nx, ny, nz = diff.nx, diff.ny, weight.nz
    if max(diff.nz, smooth.nz) > nz:
        raise ValueError(
            f"depth weight built for nz={weight.nz}, fields have nz={diff.nz}, {smooth.nz}"
        )
    if mask is None:
        mask = SearchMask.full(nx, ny, nz)
    if mask.nz != nz or mask.k_lo.shape != (nx, ny):
        raise ValueError(
            f"mask geometry {mask.k_lo.shape}x{mask.nz} does not match volume {(nx, ny, nz)}"
        )
    z0, band = mask.to_band()
    z1 = z0 + band.nz
    if min(diff.nz, smooth.nz) < z1:
        raise ValueError(
            f"fields of depth {diff.nz}, {smooth.nz} do not cover the search band [{z0}, {z1})"
        )
    slabs = _slab_bounds((nx, ny, band.nz), threads)

    def input_extrema(lo, hi):
        k_lo, k_hi = mask.k_lo[lo:hi], mask.k_hi[lo:hi]
        return tuple(
            _extrema(f.data[lo:hi], _window_index(k_lo, k_hi, f.nz)) for f in (diff, smooth)
        )

    found = _map_slabs(input_extrema, slabs, threads)
    # sign and clamp are monotone maps, so they carry the derivative's
    # extrema over exactly (a negative sign swaps which one is the min)
    d_range = np.array(_merge(d for d, _ in found)) * sign
    if clamp_negative:
        np.maximum(d_range, 0, out=d_range)
    d_lo, d_hi = d_range.min(), d_range.max()
    s_lo, s_hi = _merge(s for _, s in found)
    w = weight.weights()[z0:z1]

    def score_and_pick(lo, hi):
        window = SearchMask(k_lo=band.k_lo[lo:hi], k_hi=band.k_hi[lo:hi], nz=band.nz)
        score = np.empty((hi - lo, ny, band.nz), dtype=diff.data.dtype)
        np.multiply(diff.data[lo:hi, :, z0:z1], sign, out=score)
        if clamp_negative:
            np.maximum(score, 0, out=score)
        _rescale(score, d_lo, d_hi)
        smoothed = smooth.data[lo:hi, :, z0:z1].copy()
        _rescale(smoothed, s_lo, s_hi)
        score += smoothed
        del smoothed  # freed before the pick makes its masked copy
        score *= w
        extrema = _extrema(score, _window_index(window.k_lo, window.k_hi, band.nz))
        return extrema, argmax_per_ascan(Volume(score), window)

    parts = _map_slabs(score_and_pick, slabs, threads)
    e_lo, e_hi = _merge(e for e, _ in parts)
    flat = not e_hi > e_lo
    for is_flat, message in zip((not d_hi > d_lo, not s_hi > s_lo, flat), _FLAT_MESSAGES):
        if is_flat:
            warnings.warn(message, DegenerateNormalizationWarning, stacklevel=2)
    # picks index the band; shift them back to volume depth
    z = np.concatenate([picked.z for _, picked in parts]) + z0
    return Surface(z=z, valid=mask.column_valid()), flat
