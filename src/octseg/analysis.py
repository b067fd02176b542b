"""Derived products: thickness maps and their files.

Thickness is the plain per-column depth difference between two total
surfaces, optionally scaled to microns by the axial voxel pitch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .surfaces import Surface, _distinct, _write_rows


@dataclass(frozen=True, eq=False)
class ThicknessMap:
    """Per-column thickness in voxels (float64), and the axial pitch in
    microns when it is known."""

    px: np.ndarray
    dz_um: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "px", np.asarray(self.px, dtype=np.float64))
        if self.dz_um is not None and not 0 < self.dz_um < math.inf:
            raise ValueError(f"dz_um must be positive and finite, got {self.dz_um}")

    @property
    def um(self) -> np.ndarray | None:
        return None if self.dz_um is None else self.px * self.dz_um

    @property
    def nx(self) -> int:
        return self.px.shape[0]

    @property
    def ny(self) -> int:
        return self.px.shape[1]


def thickness_map(ilm: Surface, rpe: Surface, dz_um: float | None = None) -> ThicknessMap:
    """Thickness between two total surfaces: exactly rpe.z - ilm.z per column."""
    if ilm.z.shape != rpe.z.shape:
        raise ValueError(f"surface shapes differ: {ilm.z.shape} vs {rpe.z.shape}")
    if not (ilm.valid.all() and rpe.valid.all()):
        raise ValueError("thickness needs total surfaces (all cells valid)")
    return ThicknessMap(px=rpe.z - ilm.z, dz_um=dz_um)


def save_thickness_csv(tm: ThicknessMap, path) -> None:
    """CSV dump, y-major rows; a thickness_um column appears when available."""
    px, index = _distinct(tm.px)
    if tm.dz_um is None:
        header, tails = "x,y,thickness_px\n", [f"{p!r}\n" for p in px.tolist()]
    else:  # the microns of each distinct voxel value, as tm.um holds them
        header = "x,y,thickness_px,thickness_um\n"
        tails = [f"{p!r},{u!r}\n" for p, u in zip(px.tolist(), (px * tm.dz_um).tolist())]
    _write_rows(path, header, tails, index)


def save_thickness_pgm(tm: ThicknessMap, path) -> None:
    """8-bit binary PGM preview plus a JSON sidecar at ``<path>.json``.

    Gray 0 maps to the map minimum and 255 to the maximum; a constant map
    renders as all zeros.  The sidecar records min/max so gray values can be
    mapped back to thicknesses.  Image rows run over y, columns over x.
    """
    lo = float(tm.px.min())
    hi = float(tm.px.max())
    if hi > lo:
        gray = np.rint((tm.px - lo) / (hi - lo) * 255.0)
    else:
        gray = np.zeros_like(tm.px)
    img = gray.astype(np.uint8).T  # (ny, nx): rows y, cols x
    with open(path, "wb") as f:
        f.write(f"P5\n{tm.nx} {tm.ny}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(img).tobytes())
    sidecar = {
        "min_thickness_px": lo,
        "max_thickness_px": hi,
        "gray_to_px": "thickness = min + gray / 255 * (max - min)",
    }
    with open(f"{path}.json", "w", encoding="utf-8") as f:
        json.dump(sidecar, f, indent=2)
        f.write("\n")
