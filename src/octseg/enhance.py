"""Depth-weighted combination of edge response and smoothed intensity.

Boundary contrast alone does not separate retinal interfaces that share
similar gradient strength, so the detector combines the (rectified,
rescaled) depth derivative with the rescaled smoothed intensity and then
multiplies by a depth weight.  Weights grow with depth to prefer the deeper
of two otherwise similar candidates (outer boundaries) or shrink with depth
to prefer the shallower one (inner boundaries).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .volume import Volume


class DegenerateNormalizationWarning(RuntimeWarning):
    """Raised when a min-max rescale sees a flat field (max == min)."""


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


def unit_scale(values: np.ndarray, select: np.ndarray | None = None) -> bool:
    """Min-max rescale an array in place using extrema over ``select`` (or all).

    Returns the degenerate flag: a flat field has no contrast to rescale, so
    it is zeroed and True is returned.
    """
    ref = values if select is None else values[select]
    lo = ref.min()
    hi = ref.max()
    if not hi > lo:
        values.fill(0)
        return True
    values -= lo
    values /= hi - lo
    return False


def enhance(
    diff: Volume,
    smooth: Volume,
    weight: DepthWeight,
    sign: int = 1,
    clamp_negative: bool = True,
    select: np.ndarray | None = None,
) -> Volume:
    """Fuse a derivative volume and a smoothed volume into a boundary score.

    Each input is min-max rescaled (the derivative after multiplying by
    ``sign``, -1 for a bright-below boundary, and clamping negative
    responses if asked), summed, weighted by depth along z, and rescaled
    once more so scores live in [0, 1].  A boolean ``select`` mask restricts
    all rescale extrema to the selected voxels, so excluded regions cannot
    distort the scaling.  The work is done in place on two fresh arrays.

    A flat field at any rescale step triggers DegenerateNormalizationWarning;
    if both inputs are flat the result is identically zero.
    """
    if diff.dims != smooth.dims:
        raise ValueError(f"dims mismatch: {diff.dims} vs {smooth.dims}")
    if weight.nz != diff.nz:
        raise ValueError(f"depth weight built for nz={weight.nz}, volume has nz={diff.nz}")
    if select is not None and select.shape != diff.dims:
        raise ValueError(f"select mask shape {select.shape} != volume dims {diff.dims}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign!r}")

    score = sign * diff.data
    if clamp_negative:
        np.maximum(score, 0, out=score)
    smoothed = smooth.data.copy()
    flat = [unit_scale(score, select), unit_scale(smoothed, select)]
    score += smoothed
    del smoothed
    score *= weight.weights()[None, None, :]
    flat.append(unit_scale(score, select))
    for is_flat, message in zip(flat, _FLAT_MESSAGES):
        if is_flat:
            warnings.warn(message, DegenerateNormalizationWarning, stacklevel=2)
    return Volume(score, diff.spacing)
