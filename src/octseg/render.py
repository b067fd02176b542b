"""Quick-look rendering: one B-scan as a grayscale image with overlaid
boundary polylines, written as binary PPM."""

from __future__ import annotations

import numpy as np

from .surfaces import Surface

BOUNDARY_COLORS = {
    "ilm": (255, 64, 64),
    "isos": (64, 220, 64),
    "rpe": (80, 128, 255),
}


def draw_bscan(
    bscan: np.ndarray, ny: int, surfaces: dict[str, Surface], slice_index: int
) -> np.ndarray:
    """Rasterize B-scan y=slice_index of a volume of ``ny`` B-scans, given
    as its (nx, nz) values, as (nz, nx, 3) uint8 with overlays.

    Rows are depth (shallow at the top), columns are x.  Each surface is
    drawn as a connected polyline in its ``BOUNDARY_COLORS`` colour:
    consecutive columns whose rounded depths differ by more than one pixel
    get a vertical joining segment.  The surfaces must be named ilm, isos
    or rpe, and the index must lie in [0, ny).
    """
    if not 0 <= slice_index < ny:
        raise ValueError(f"slice index {slice_index} outside [0, {ny})")
    nx, nz = bscan.shape
    gray = np.clip(np.rint(bscan * 255.0), 0, 255)
    img = np.repeat(gray.T.astype(np.uint8)[:, :, None], 3, axis=2)
    for name, surf in surfaces.items():
        if surf.z.shape != (nx, ny):
            raise ValueError(
                f"surface {name!r} grid {surf.z.shape} does not match the volume's "
                f"(nx, ny) = {(nx, ny)}"
            )
        if name not in BOUNDARY_COLORS:
            raise ValueError(f"no colour for surface {name!r}: expected one of "
                             f"{', '.join(BOUNDARY_COLORS)}")
        col = np.array(BOUNDARY_COLORS[name], dtype=np.uint8)
        depths = surf.z[:, slice_index]
        holes = np.isnan(depths)
        prev_r = None
        for x in range(nx):
            if holes[x]:
                prev_r = None
                continue
            r = int(np.clip(np.rint(depths[x]), 0, nz - 1))
            img[r, x] = col
            if prev_r is not None and abs(r - prev_r) > 1:
                lo, hi = sorted((r, prev_r))
                img[lo + 1 : hi, x] = col
            prev_r = r
    return img


def write_ppm(image: np.ndarray, path) -> None:
    """Binary PPM (P6) writer for (rows, cols, 3) uint8 images."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError(f"expected (rows, cols, 3) uint8, got {image.shape} {image.dtype}")
    rows, cols = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{cols} {rows}\n255\n".encode("ascii"))
        f.write(np.ascontiguousarray(image).tobytes())

