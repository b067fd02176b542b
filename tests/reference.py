"""Independent references that the tests check octseg against.

Not collected by pytest; test modules import it by name.  ``convolve_direct``
sums a dense kernel over its taps, apart from the separable slab pass it
cross-checks, ``read_ppm`` reads back the images that ``write_ppm``
writes, and ``fill_sweeps`` inpaints with whole-grid sweeps where
``fill_from_neighbors`` visits only the open holes, and ``read_volume``
reads a raw file whole where the pipeline reads it a slab at a time.
``FLAT_CASES`` are inputs with the parts of each boundary's score that
are flat on them.
"""

from pathlib import Path

import numpy as np

from octseg import filters
from octseg.volume import Volume, open_volume


def outer_product(kernel: filters.SeparableKernel) -> np.ndarray:
    """The dense (x, y, z) coefficients of a separable kernel."""
    return kernel.kx[:, None, None] * kernel.ky[None, :, None] * kernel.kz[None, None, :]


def convolve_direct(volume: Volume, coeffs) -> Volume:
    """Reference dense correlation: pad with edge replication, sum over taps.

    ``coeffs`` is a 3D kernel with odd extent along every axis, none longer
    than the volume.  Accumulates in float64 regardless of input dtype, then
    casts back to the dtype of the volume's values.  Intended for small
    volumes; cost grows with kernel volume.
    """
    c = np.asarray(coeffs, dtype=np.float64)
    if c.ndim != 3 or any(s % 2 == 0 for s in c.shape):
        raise ValueError(f"dense kernel must be 3D with odd extents, got {c.shape}")
    filters._check_extents(c.shape, volume.dims)
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


def read_ppm(path) -> np.ndarray:
    """Read back a binary PPM written by ``render.write_ppm``."""
    data = Path(path).read_bytes()
    parts = data.split(b"\n", 3)
    if len(parts) < 4 or parts[0] != b"P6":
        raise ValueError(f"{path}: not a binary PPM")
    cols, rows = (int(t) for t in parts[1].split())
    maxval = int(parts[2])
    if maxval != 255:
        raise ValueError(f"{path}: unsupported max value {maxval}")
    pixels = np.frombuffer(parts[3], dtype=np.uint8, count=rows * cols * 3)
    return pixels.reshape(rows, cols, 3).copy()


def fill_sweeps(z: np.ndarray) -> np.ndarray:
    """Reference inpainting: every sweep averages, over the whole grid, the
    finite 4-neighbors of each NaN cell (x+1, x-1, y+1, y-1, summed in that
    order), and fills the holes that have one, until none is left."""
    z = z.copy()
    while np.isnan(z).any():
        acc, cnt = np.zeros_like(z), np.zeros_like(z)
        for src, dst in ((np.s_[1:, :], np.s_[:-1, :]), (np.s_[:-1, :], np.s_[1:, :]),
                         (np.s_[:, 1:], np.s_[:, :-1]), (np.s_[:, :-1], np.s_[:, 1:])):
            finite = ~np.isnan(z[src])
            np.add(acc[dst], z[src], out=acc[dst], where=finite)
            np.add(cnt[dst], 1.0, out=cnt[dst], where=finite)
        fill = np.isnan(z) & (cnt > 0)
        if not fill.any():
            raise ValueError("cannot inpaint: surface has no valid cells")
        np.divide(acc, cnt, out=z, where=fill)
    return z


def read_volume(path, meta) -> Volume:
    """A raw volume file read whole, one x-plane at a time through
    ``open_volume``, into the canonical (nx, ny, nz) layout."""
    with open_volume(path, meta) as raw:
        data = np.empty(raw.dims, dtype=raw.data.dtype)
        for x in range(raw.nx):
            data[x : x + 1] = raw.data[x : x + 1]
    return Volume(data, raw.spacing, raw.scale)


def _one_step() -> np.ndarray:
    step = np.full((32, 12, 96), 40, dtype=np.uint8)
    step[:, :, :60] = (150 + np.arange(32))[:, None, None]
    return step


# u8 samples in xyz order, and the flat parts that RPE, IS/OS and ILM (in
# cascade order) name: a constant volume is flat everywhere, and one step
# that is brighter above (150 + x above z = 60, 40 below) leaves the two
# bright-below boundaries a clamped derivative that is zero throughout
FLAT_CASES = {
    "constant": (np.full((24, 12, 40), 77, dtype=np.uint8),
                 [["derivative", "smoothed", "score"]] * 3),
    "one_step": (_one_step(), [[], ["derivative"], ["derivative"]]),
}
