"""Boundary surfaces over the (x, y) grid and the operators that clean them.

A surface stores one depth value per A-scan column, NaN where the column
has none (a hole); a cell is valid exactly when it is not NaN.  A
SearchMask holds each column's depth window, the planes above a
per-column end; extraction is a per-column argmax of a boundary score
that ``enhance`` has already confined to those windows.
Cleanup is a median-deviation outlier test, diffusion inpainting of the
holes, and a small lateral box smoothing.  File formats: CSV with an
x,y,z,valid header, or a raw little-endian float32 grid with NaN marking
holes.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filters import _correlate1d
from .volume import Volume


@dataclass(eq=False)
class Surface:
    """Depth z(x, y) in voxels, NaN where the column has no depth (a hole)."""

    z: np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=np.float64)
        if z.ndim != 2 or min(z.shape) < 1:
            raise ValueError(f"surface z must be 2D and non-empty, got shape {z.shape}")
        if np.isinf(z).any():
            raise ValueError("surface depths must be finite, or NaN for a hole")
        self.z = z

    @classmethod
    def full(cls, z: np.ndarray) -> "Surface":
        surface = cls(z)
        if np.isnan(surface.z).any():
            raise ValueError("a full surface has no NaN depths")
        return surface

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.z)

    @property
    def nx(self) -> int:
        return self.z.shape[0]

    @property
    def ny(self) -> int:
        return self.z.shape[1]


@dataclass(eq=False)
class SearchMask:
    """Per-column search window: the planes z < k_hi of nz.

    Each boundary is searched above the one found before it, so every
    window starts at plane 0.  Columns with k_hi == 0 are excluded from
    extraction entirely.
    """

    k_hi: np.ndarray
    nz: int

    def __post_init__(self):
        k_hi = np.asarray(self.k_hi, dtype=np.int32)
        if k_hi.ndim != 2:
            raise ValueError("k_hi must be a 2D array")
        if self.nz < 1:
            raise ValueError(f"nz must be >= 1, got {self.nz}")
        if k_hi.min() < 0 or k_hi.max() > self.nz:
            raise ValueError(f"window bounds must lie within [0, {self.nz}]")
        self.k_hi = k_hi

    @classmethod
    def full(cls, nx: int, ny: int, nz: int) -> "SearchMask":
        return cls(k_hi=np.full((nx, ny), nz, dtype=np.int32), nz=nz)

    @property
    def k_lo(self) -> np.ndarray:
        # every window's start, read by perfbench's tracer until its
        # change (ROADMAP item 1)
        return np.zeros_like(self.k_hi)

    def column_valid(self) -> np.ndarray:
        return self.k_hi > 0

    @property
    def depth(self) -> int:
        """The deepest window end: planes [0, depth) hold every window."""
        depth = int(self.k_hi.max())
        if depth == 0:
            raise ValueError("search mask has no non-empty window")
        return depth


def argmax_per_ascan(intensity: Volume) -> Surface:
    """First index of the maximum along depth, per column.

    Ties resolve to the shallowest tied index.  Search windows are the
    caller's: ``enhance`` masks the samples outside them first.
    """
    return Surface.full(intensity.data.argmax(axis=2))


# cells per block of x rows in reject_outliers: a block's tile extrema and
# counts take a few block-sized arrays, so a block's, not the surface's, size
# bounds the scratch; its tiles are copied for medians (8 bytes per tap and
# cell) in parts of at most the bytes below, so at 25 taps a block (1.6 MB)
# is one part that stays in cache, and a wide window splits only its copies
_OUTLIER_BLOCK_CELLS = 2**13
_OUTLIER_TILE_BYTES = 2**23

# a tile value this large in magnitude can overflow the sum of the middle
# pair, which would put the median outside the tile's [min, max]
_HUGE = 2.0**1023


def _tile_reduce(ufunc, rows: np.ndarray, window: int, ny: int) -> np.ndarray:
    """``ufunc`` reduced over each window x window tile whose corner cell
    lies in ``rows``, separably: first along y, then along x."""
    along_y = rows[:, :ny].copy()
    for d in range(1, window):
        ufunc(along_y, rows[:, d:d + ny], out=along_y)
    n = rows.shape[0] - window + 1
    out = along_y[:n].copy()
    for d in range(1, window):
        ufunc(out, along_y[d:d + n], out=out)
    return out


def _nanmedians(tiles: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``np.nanmedian`` of each row of ``tiles``, a scratch array sorted in
    place, where row i holds k[i] values besides its NaNs."""
    tiles.sort(axis=1)  # NaNs last: a row's k values lead it
    i = np.arange(k.size)
    return (tiles[i, (k - 1) // 2] + tiles[i, k // 2]) / 2


def _inliers(surface: Surface, tau: float, window: int) -> np.ndarray:
    """The valid cells of ``surface`` within tau of their tile's median."""
    h, taps = window // 2, window * window
    nx, ny = surface.z.shape
    padded = np.full((nx + 2 * h, ny + 2 * h), np.nan)
    padded[h:h + nx, h:h + ny] = surface.z
    tiles = sliding_window_view(padded, (window, window))
    # a tile's cells as offsets from its corner in the flat padded grid
    offsets = (np.arange(window)[:, None] * padded.shape[1] + np.arange(window)).ravel()
    keep = surface.valid
    rows, part = max(1, _OUTLIER_BLOCK_CELLS // ny), max(1, _OUTLIER_TILE_BYTES // (8 * taps))
    for x0 in range(0, nx, rows):
        x1 = min(x0 + rows, nx)
        block = padded[x0:x1 + 2 * h]
        hi, lo = (_tile_reduce(f, block, window, ny) for f in (np.fmax, np.fmin))
        # inf - inf reads NaN and huge values overflow; the test below holds
        with np.errstate(invalid="ignore", over="ignore"):
            candidate = (hi - lo > tau) | (hi >= _HUGE) | (lo <= -_HUGE)
        candidate &= keep[x0:x1]
        count = np.count_nonzero(candidate)
        if not count:
            continue
        # most tiles can reject: one strided copy of all of them costs less
        # than gathering the candidates
        whole = 2 * count > candidate.size
        at = np.s_[:] if whole else np.nonzero(candidate)
        k = _tile_reduce(np.add, (~np.isnan(block)).astype(np.intp), window, ny)[at].ravel()
        if whole:  # a part is whole rows of the block
            n = max(1, part // ny) * ny
            copy = lambda i: np.array(tiles[x0:x1][i // ny:(i + n) // ny], order="C")
        else:
            n, corners = part, (at[0] + x0) * padded.shape[1] + at[1]
            copy = lambda i: padded.take(corners[i:i + n, None] + offsets)
        # one part's copy at a time is alive
        median = np.concatenate([_nanmedians(copy(i).reshape(-1, taps), k[i:i + n])
                                 for i in range(0, k.size, n)])
        inside = keep[x0:x1]
        inside[at] &= ~(np.abs(surface.z[x0:x1][at] - median.reshape(inside[at].shape)) > tau)
    return keep


def reject_outliers(surface: Surface, tau: float, window: int = 5) -> Surface:
    """Invalidate cells deviating from their local median by more than tau.

    The median is taken over an odd window x window neighborhood (the cell
    itself included; cells outside the grid or already invalid are ignored)
    and equals ``np.nanmedian`` over it: the mean of the middle pair of the
    tile's k values, sorted (the middle value twice when k is odd).
    Surviving cells keep their exact z; nothing is re-estimated here.

    Most tiles cannot reject, and a spread pre-test finds them without a
    median: a cell and its tile's median both lie in the tile's [min, max],
    and float rounding is monotone, so the computed deviation is at most
    the computed max - min.  Only valid cells whose tile spreads by more
    than tau (or holds a value near the float range's end, where the
    middle pair's sum can overflow) get a median, from their tiles sorted
    with NaNs last.  The rest are kept, as the full test would keep them.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    window = int(window)
    if window < 3 or window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {window}")
    return Surface(np.where(_inliers(surface, tau, window), surface.z, np.nan))


def fill_from_neighbors(z: np.ndarray) -> np.ndarray:
    """Fill NaN cells by repeated averaging of finite 4-neighbors.

    Each sweep fills every hole that touches at least one finite cell with
    the mean of its finite neighbors, then repeats on the updated grid until
    nothing is left.  Sweeps update simultaneously, so the result does not
    depend on traversal order.  A sweep visits only the holes still open.
    """
    z = z.copy()
    nx, ny = z.shape
    flat = z.reshape(-1)
    holes = np.flatnonzero(np.isnan(flat))
    while holes.size:
        x, y = np.divmod(holes, ny)
        acc = np.zeros(holes.size, dtype=z.dtype)
        cnt = np.zeros(holes.size, dtype=z.dtype)
        # the neighbors at x+1, x-1, y+1 and y-1, summed in that order
        for step, inside in ((ny, x + 1 < nx), (-ny, x > 0), (1, y + 1 < ny), (-1, y > 0)):
            nb = flat.take(holes + step, mode="clip")
            finite = inside & ~np.isnan(nb)
            np.add(acc, nb, out=acc, where=finite)
            cnt += finite
        fill = cnt > 0
        if not fill.any():  # no finite cell anywhere
            raise ValueError("cannot inpaint: surface has no valid cells")
        flat[holes[fill]] = acc[fill] / cnt[fill]
        holes = holes[~fill]
    return z


def inpaint_and_smooth(
    surface: Surface, smooth_radius: int = 2, max_z: float | None = None
) -> Surface:
    """Produce a total surface: diffusion-fill holes, then box smooth.

    Smoothing is a separable (2r+1)^2 lateral box average with replicated
    edges; radius 0 skips it.  When ``max_z`` is given the result is clamped
    into [0, max_z].  Requires at least one valid cell; depths whose
    neighbour or box sums overflow float64 raise ValueError.
    """
    if not surface.valid.any():
        raise ValueError("cannot inpaint: surface has no valid cells")
    if smooth_radius < 0:
        raise ValueError(f"smooth_radius must be >= 0, got {smooth_radius}")
    try:
        with np.errstate(over="raise"):
            z = fill_from_neighbors(surface.z)
            if smooth_radius > 0:
                n = 2 * smooth_radius + 1
                box = np.full(n, 1.0 / n, dtype=np.float64)
                z = _correlate1d(_correlate1d(z, box, 0), box, 1)
    except FloatingPointError:
        raise ValueError("cannot inpaint and smooth: a sum of depths overflows float64") from None
    if max_z is not None:
        z = np.clip(z, 0.0, max_z)
    return Surface(z)


def truncate_above_surface(surface: Surface, margin: int, nz: int) -> SearchMask:
    """The search mask above an already-extracted surface, in nz planes.

    Each column's window ends at round(z) - margin (exclusive), removing
    the reference boundary and everything below it.  The reference surface
    must be total (all cells valid).
    """
    if not surface.valid.all():
        raise ValueError("reference surface must be fully valid")
    margin = int(margin)
    if margin < 0:
        raise ValueError(f"margin must be >= 0, got {margin}")
    # a margin of nz already empties the window above any depth in the
    # volume, and a larger one need not fit int64
    cap = np.clip(np.rint(surface.z).astype(np.int64) - min(margin, nz), 0, nz)
    return SearchMask(k_hi=cap, nz=nz)


# ---------------------------------------------------------------------------
# surface file formats


def _distinct(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float64 array, and each element's index into
    them.

    Values are told apart by bit pattern, so NaN and -0.0 keep their own
    tokens; a writer renders each with repr, which round-trips every float
    exactly, once per distinct value.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    return bits.view(np.float64), index.reshape(values.shape)


# cells per write of _write_rows: a write holds about 100 bytes a cell (the
# picks, their tokens and the text in two encodings), so a chunk, not the
# grid, bounds the writer's memory
_WRITE_CELLS = 2**14


def _write_rows(path, header: str, tails: list[str], index: np.ndarray) -> None:
    """Write the CSV rows "x,y,<tail>" of an (nx, ny) grid, y-major (all x
    for y=0, then y=1, ...), where ``index[x, y]`` picks the cell's tail.

    A row is three tokens of one table, "<x>," "<y>," and the tail, so the
    text of a chunk of rows is a single join of the tokens its cells pick.
    """
    nx, ny = index.shape
    n = max(nx, ny)
    table = np.array([f"{i}," for i in range(n)] + tails, dtype=object)
    rows = max(1, _WRITE_CELLS // nx)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(header)
        for y0 in range(0, ny, rows):
            y1 = min(y0 + rows, ny)
            picks = np.empty((y1 - y0, nx, 3), dtype=np.intp)
            picks[..., 0] = np.arange(nx)
            picks[..., 1] = np.arange(y0, y1)[:, None]
            np.add(index[:, y0:y1].T, n, out=picks[..., 2])
            f.write("".join(table.take(picks.reshape(-1)).tolist()))


def save_surface(surface: Surface, path, fmt: str = "csv") -> None:
    """Write a surface as CSV (x,y,z,valid) or a raw float32 grid.

    CSV rows are ordered y-major (all x for y=0, then y=1, ...); z is
    rendered with repr so values round-trip exactly, and holes get z "nan"
    and valid 0.  The f32 grid holds nx*ny little-endian floats in the same
    y-major order with NaN at holes; the grid shape is not self-describing
    and must be supplied again at load time.
    """
    path = Path(path)
    if fmt == "csv":
        values, index = _distinct(surface.z)
        tails = [f"{v!r},{int(v == v)}\n" for v in values.tolist()]  # NaN != NaN
        _write_rows(path, "x,y,z,valid\n", tails, index)
    elif fmt == "f32":
        np.ascontiguousarray(surface.z.T, dtype="<f4").tofile(path)
    else:
        raise ValueError(f"fmt must be 'csv' or 'f32', got {fmt!r}")


# one CSV data row; np.loadtxt parses a file's body into these
_ROW = np.dtype([("x", "i8"), ("y", "i8"), ("z", "f8"), ("v", "i8")])

# coordinates stop below this: no surface grid is that wide, and below it
# x * (_COORD_LIMIT + 1) + y, the key that finds repeated cells, fits int64
_COORD_LIMIT = 2**31


def _ints(values: list) -> np.ndarray:
    """Python ints as int64, or kept as objects when one does not fit, so
    that an error can name it exactly."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _parse_rows(path: Path):
    """Parse a surface CSV's data rows with the csv module, int and float.

    Returns the x, y, z and valid columns and the file line of each row,
    or raises naming the line of the first row that does not parse.  It is
    load_surface's path for files that np.loadtxt rejects, such as those
    with a field only Python's int or float accepts, and for naming the
    line of a row that fails a later check.
    """
    xs, ys, zs, vs, lines = [], [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        next(reader, None)  # the header, checked by load_surface
        for row in reader:
            if not row:
                continue
            try:
                x, y, depth, flag = row
                xs.append(int(x))
                ys.append(int(y))
                zs.append(float(depth))
                vs.append(int(flag))
            except ValueError:
                raise ValueError(
                    f"{path}: line {reader.line_num}: malformed row {row}"
                ) from None
            lines.append(reader.line_num)
    return _ints(xs), _ints(ys), np.array(zs), _ints(vs), lines


def load_surface(path, fmt: str = "csv", dims: tuple[int, int] | None = None) -> Surface:
    """Read a surface written by save_surface.

    The f32 grid format needs ``dims`` = (nx, ny); CSV is self-describing.
    """
    path = Path(path)
    if fmt == "csv":
        with open(path, "r", encoding="utf-8", newline="") as f:
            header = next(csv.reader(f), None)
            if header is None or [h.strip() for h in header] != ["x", "y", "z", "valid"]:
                raise ValueError(f"{path}: expected header 'x,y,z,valid', got {header}")
            body = f.read()
        # blank lines are skipped, so a body of line breaks holds no row
        if not body.strip("\r\n"):
            raise ValueError(f"{path}: surface file has no data rows")
        lines = None
        try:
            rows = np.loadtxt(io.StringIO(body), dtype=_ROW, delimiter=",",
                              comments=None, quotechar='"', ndmin=1)
        except ValueError:  # a malformed row, or a field only int or float reads
            xs, ys, zs, vs, lines = _parse_rows(path)
        else:
            xs, ys, zs, vs = rows["x"], rows["y"], rows["z"], rows["v"]
        # clipped, so the key cannot overflow; the range checks come first
        cx, cy = (np.clip(c, -1, _COORD_LIMIT).astype(np.int64) for c in (xs, ys))
        repeated = np.ones(xs.size, dtype=bool)
        repeated[np.unique(cx * (_COORD_LIMIT + 1) + cy, return_index=True)[1]] = False
        # the first failing check, in this order, names the line it fails on
        for bad, message in (
            ((xs < 0) | (ys < 0), "negative x,y = {x},{y}"),
            ((xs >= _COORD_LIMIT) | (ys >= _COORD_LIMIT),
             f"x,y = {{x}},{{y}} lies outside any grid (coordinates stop below {_COORD_LIMIT})"),
            (repeated, "repeats x,y = {x},{y}"),
            ((vs != 0) & (vs != 1), "valid must be 0 or 1, got {v}"),
            ((vs == 1) & ~np.isfinite(zs), "valid cell has non-finite z = {z}"),
        ):
            if bad.any():
                i = np.flatnonzero(bad)[0]
                detail = message.format(x=xs[i], y=ys[i], z=zs[i], v=vs[i])
                if lines is None:
                    lines = _parse_rows(path)[-1]
                raise ValueError(f"{path}: line {lines[i]}: {detail}")
        nx = int(xs.max()) + 1
        ny = int(ys.max()) + 1
        if len(xs) != nx * ny:
            raise ValueError(f"{path}: expected {nx * ny} rows, got {len(xs)}")
        z = np.full((nx, ny), np.nan)
        z[xs, ys] = np.where(vs == 1, zs, np.nan)
        return Surface(z)
    if fmt == "f32":
        if dims is None:
            raise ValueError("f32 grid loading requires dims=(nx, ny)")
        nx, ny = dims
        flat = np.fromfile(path, dtype="<f4")
        if flat.size != nx * ny:
            raise ValueError(
                f"{path}: expected {nx * ny} float32 values, found {flat.size}"
            )
        z = flat.reshape(ny, nx).T.astype(np.float64)
        return Surface(np.where(np.isinf(z), np.nan, z))
    raise ValueError(f"fmt must be 'csv' or 'f32', got {fmt!r}")
