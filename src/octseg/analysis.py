"""Derived products: thickness maps and surface meshes.

Thickness is the plain per-column depth difference between two total
surfaces, optionally scaled to microns by the axial voxel pitch.  Meshes
triangulate the surface grid (optionally subsampled) into an ASCII polygon
file readable by standard viewers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .surfaces import Surface, _distinct_reprs, _write_rows


@dataclass(frozen=True, eq=False)
class ThicknessMap:
    """Per-column thickness in voxels, and in microns when pitch is known."""

    px: np.ndarray
    um: np.ndarray | None = None

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
    px = rpe.z - ilm.z
    um = None
    if dz_um is not None:
        if not 0 < dz_um < math.inf:
            raise ValueError(f"dz_um must be positive and finite, got {dz_um}")
        um = px * float(dz_um)
    return ThicknessMap(px=px, um=um)


def save_thickness_csv(tm: ThicknessMap, path) -> None:
    """CSV dump, y-major rows; a thickness_um column appears when available."""
    px_tokens, index = _distinct_reprs(tm.px)
    if tm.um is None:
        _write_rows(path, "x,y,thickness_px\n", [t + "\n" for t in px_tokens], index)
        return
    um_tokens, um_index = _distinct_reprs(tm.um)
    pairs, index = np.unique(index * len(um_tokens) + um_index, return_inverse=True)
    tails = [f"{px_tokens[p]},{um_tokens[u]}\n"
             for p, u in zip(*(a.tolist() for a in np.divmod(pairs, len(um_tokens))))]
    _write_rows(path, "x,y,thickness_px,thickness_um\n", tails, index.reshape(tm.px.shape))


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


def export_surface_mesh(
    surface: Surface,
    path,
    stride: int = 1,
    spacing: tuple[float, float, float] | None = None,
) -> tuple[int, int]:
    """Write a total surface as an ASCII triangle mesh (PLY layout).

    Grid cells are sampled every ``stride`` columns; each sampled quad
    becomes two triangles.  Vertex coordinates are (x*dx, y*dy, z*dz) using
    unit pitch when ``spacing`` is omitted.  Returns (vertex_count,
    face_count).
    """
    if not surface.valid.all():
        raise ValueError("mesh export needs a total surface (all cells valid)")
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    dx, dy, dz = spacing if spacing is not None else (1.0, 1.0, 1.0)
    xs = np.arange(0, surface.nx, stride)
    ys = np.arange(0, surface.ny, stride)
    ncols = xs.size
    nrows = ys.size
    n_verts = ncols * nrows
    n_faces = 2 * (ncols - 1) * (nrows - 1)
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {n_verts}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {n_faces}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    for iy in ys:
        for ix in xs:
            lines.append(
                f"{ix * dx:.8g} {iy * dy:.8g} {float(surface.z[ix, iy]) * dz:.8g}"
            )
    for r in range(nrows - 1):
        for c in range(ncols - 1):
            v00 = r * ncols + c
            v01 = v00 + 1
            v10 = v00 + ncols
            v11 = v10 + 1
            lines.append(f"3 {v00} {v01} {v11}")
            lines.append(f"3 {v00} {v11} {v10}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines))
        f.write("\n")
    return n_verts, n_faces
