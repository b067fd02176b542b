"""Depth-weighted combination of edge response and smoothed intensity.

Boundary contrast alone does not separate retinal interfaces that share
similar gradient strength, so the detector combines the (signed, rectified,
rescaled) depth derivative with the rescaled smoothed intensity and then
multiplies by a depth weight.  One ``BoundaryProfile`` states the whole
rule: its polarity gives the derivative's sign, which is then clamped at
zero, and ``weight_direction`` the weight, which grows with depth to
prefer the deeper of two otherwise similar candidates (outer boundaries)
or shrinks with depth to prefer the shallower one (inner boundaries).
The score lives only one x-slab at a time: each slab is picked, one depth
per column, as soon as it is scored, and ``enhance`` returns the picks.
A window is the planes above its column's end, so a slab's windows share
a core of the planes above their shallowest end, reduced as they are; only
the thin ragged planes below it are masked.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from .filters import _BLOCK_SAMPLES, _map_slabs, _slab_bounds
from .surfaces import SearchMask, Surface, argmax_per_ascan
from .volume import Volume

if TYPE_CHECKING:  # pipeline imports enhance
    from .pipeline import BoundaryProfile


def _window_planes(k_hi: np.ndarray):
    """Split the depth span of a block of columns' windows [0, k_hi).

    Returns None when no window is searched (k_hi > 0), else the searched
    columns as an index (``...`` when every column is, so that indexing
    with it is a view), the deepest end g, the end c of the core [0, c)
    that every searched window holds (c >= 1), and a map of the samples
    of the ragged planes [c, g) below it that lie outside a column's
    window.
    """
    searched = k_hi > 0
    if not searched.any():
        return None
    g, c = int(k_hi.max()), int(k_hi[searched].min())
    outside = np.arange(c, g, dtype=k_hi.dtype) >= k_hi[..., None]
    return ... if searched.all() else searched, g, c, outside


def _extrema(values: np.ndarray, split) -> tuple | None:
    """(min, max) of a read-only block of columns over the windows that
    ``_window_planes`` split, or None when it has no window.

    The core planes are reduced as they are; only a copy of the ragged
    planes is masked, with a sentinel that no reduction picks.
    """
    if split is None:
        return None
    searched, g, c, outside = split
    core = values[..., :c][searched]
    lo, hi = core.min(), core.max()
    if c < g:
        planes = values[..., c:g]
        lo = min(lo, np.where(outside, np.inf, planes).min())
        hi = max(hi, np.where(outside, -np.inf, planes).max())
    return lo, hi


def _merge(parts) -> tuple:
    """Overall (min, max) of per-slab extrema, skipping slabs without a window."""
    found = [p for p in parts if p is not None]
    return np.min([p[0] for p in found]), np.max([p[1] for p in found])


def _value_range(field: Volume, parts) -> np.ndarray:
    """The (min, max) of a field's values from per-slab extrema of its
    samples: dividing by a positive scale keeps their order, and float32
    holds every sum the filters store exactly."""
    return field.values_of(np.array(_merge(parts)))


def _rescale(values: np.ndarray, lo, hi, out: np.ndarray) -> None:
    """Min-max rescale into ``out`` with extrema taken elsewhere; a flat
    range zeroes."""
    if hi > lo:
        np.subtract(values, lo, out=out)
        out /= hi - lo
    else:
        out.fill(0)


def enhance(
    diff: Volume,
    smooth: Volume,
    profile: BoundaryProfile,
    mask: SearchMask,
    threads: int = 1,
    passes: Counter | None = None,
) -> tuple[Surface, list[str]]:
    """Score a derivative and a smoothed volume by ``profile``'s rule and
    pick one depth per column.

    Each input is min-max rescaled (the bright-above derivative after
    negating it for a "bright_below" polarity, and clamping its negative
    responses at zero), summed and multiplied by the depth weight of
    ``profile.weight_direction``: k + 1 at depth k for "favor_deep", nz - k
    for "favor_shallow", both positive at every depth k of the volume's
    nz = ``mask.nz`` planes.  All rescale extrema come
    from the voxels inside ``mask``'s per-column windows, so excluded
    regions cannot distort the scaling.  Each column picks the first
    maximum of its score inside its window; a column with an empty window
    comes back NaN, a hole.

    The fields may stop short of ``mask.nz``, at any depth that covers the
    band [0, ``mask.depth``) above the deepest window end.  Only that band
    is scored, one x-slab of scratch at a time, on up to ``threads``
    threads, each slab only down to its own deepest end; each voxel gets
    the same arithmetic at any thread count.  Extrema over the planes
    above a slab's shallowest searched end, which every searched window
    holds, are plain reductions; the ragged planes below them are masked
    with a +-inf sentinel, a copy of them for the read-only fields and the
    score itself in place, which then takes a plain argmax per column.  Fields of
    scaled integer sums (``Volume.scale``) give their extrema as sums,
    divided once, and each slab of sums is divided into float32 scratch
    before it is scored, so they score bitwise as their values would.
    Returns the surface in volume depth and the names of the parts that
    are flat (max == min) over the windows, in the order "derivative",
    "smoothed", "score": a flat input contributes zero, and under a flat
    score each column picks the top of its window.  ``passes``, when given,
    counts the work that ran: "enhance" once per call and "argmax" once per
    score-and-pick sweep.
    """
    if diff.dims[:2] != smooth.dims[:2]:
        raise ValueError(f"dims mismatch: {diff.dims} vs {smooth.dims}")
    nx, ny, nz = diff.nx, diff.ny, mask.nz
    if mask.k_hi.shape != (nx, ny) or max(diff.nz, smooth.nz) > nz:
        raise ValueError(
            f"mask geometry {mask.k_hi.shape}x{nz} does not hold fields {diff.dims}, {smooth.dims}"
        )
    depth = mask.depth
    if min(diff.nz, smooth.nz) < depth:
        raise ValueError(
            f"fields of depth {diff.nz}, {smooth.nz} do not cover the search band [0, {depth})"
        )
    sign = 1 if profile.polarity == "bright_above" else -1
    k = np.arange(depth, dtype=np.float32)
    w = k + 1 if profile.weight_direction == "favor_deep" else np.float32(nz) - k
    slabs = _slab_bounds((nx, ny, depth), threads)

    def input_extrema(lo, hi):
        split = _window_planes(mask.k_hi[lo:hi])
        return split, tuple(_extrema(f.data[lo:hi], split) for f in (diff, smooth))

    found = _map_slabs(input_extrema, slabs, threads)
    # each slab's split, made once for both sweeps
    splits = {lo: split for (lo, _), (split, _) in zip(slabs, found)}
    extrema = [e for _, e in found]
    # sign and clamp are monotone maps, so they carry the derivative's
    # extrema over exactly (a negative sign swaps which one is the min)
    d_range = _value_range(diff, (d for d, _ in extrema)) * sign
    np.maximum(d_range, 0, out=d_range)
    d_lo, d_hi = d_range.min(), d_range.max()
    s_lo, s_hi = _value_range(smooth, (s for _, s in extrema))

    def score_and_pick(lo, hi):
        split = splits[lo]
        if split is None:
            return None, np.full((hi - lo, ny), np.nan)
        searched, g, c, outside = split
        # the slab's score covers only the planes above its deepest end
        planes = np.s_[lo:hi, :, :g]
        # scaled sums are divided into the float32 scratch first, by -scale
        # for a negative sign: IEEE division is sign-symmetric, so one pass
        # gives the bits of a divide and a negation
        score = np.empty((hi - lo, ny, g), dtype=diff.dtype)
        if sign == -1:
            values = np.divide(
                diff.data[planes], -np.float32(diff.scale or 1), out=score, dtype=score.dtype
            )
        else:
            values = diff.values(planes, out=score)
        np.maximum(values, 0, out=score)
        _rescale(score, d_lo, d_hi, out=score)
        # the rescaled smoothed field is added a block of x rows at a time
        rows = max(1, _BLOCK_SAMPLES // (ny * g))
        smoothed = np.empty((min(rows, hi - lo), ny, g), dtype=smooth.dtype)
        for r0 in range(0, hi - lo, rows):
            r1 = min(r0 + rows, hi - lo)
            block = smooth.values(np.s_[lo + r0 : lo + r1, :, :g], out=smoothed[: r1 - r0])
            _rescale(block, s_lo, s_hi, out=smoothed[: r1 - r0])
            score[r0:r1] += smoothed[: r1 - r0]
        del smoothed
        score *= w[:g]

        def outside_windows(sentinel):  # the core planes need none
            np.copyto(score[:, :, c:], sentinel, where=outside)

        # +inf outside the windows for the min, then -inf for the pick,
        # whose values give the max
        outside_windows(np.inf)
        e_lo = score[searched].min()
        outside_windows(-np.inf)
        z = argmax_per_ascan(Volume(score)).z
        best = np.take_along_axis(score, z.astype(np.intp)[..., None], axis=-1)
        # the picks of unsearched columns are made NaN below
        return (e_lo, best[searched].max()), z

    parts = _map_slabs(score_and_pick, slabs, threads)
    if passes is not None:
        passes["enhance"] += 1
        passes["argmax"] += 1  # the score-and-pick sweep
    e_lo, e_hi = _merge(e for e, _ in parts)
    ranges = {"derivative": (d_lo, d_hi), "smoothed": (s_lo, s_hi), "score": (e_lo, e_hi)}
    flat = [name for name, (lo, hi) in ranges.items() if not hi > lo]
    z = np.concatenate([z for _, z in parts])
    return Surface(np.where(mask.column_valid(), z, np.nan)), flat
