"""The benchmark's workloads: inputs made from a seed, the CLI calls that
make up one operation, and the checks every operation's outputs must pass.

Inputs come from ``octseg.phantom`` and are written with this module's own
raw writer, so the benchmark's inputs do not depend on the program's writer.
Each run makes ``inputs`` phantoms from its seed and operations cycle through
them, so the accuracy figures pool several speckle draws and the first
input is always processed twice (the determinism check compares repeats).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from octseg.analysis import thickness_map
from octseg.phantom import PhantomSpec, SurfaceSpec, generate_phantom
from octseg.surfaces import load_surface

BOUNDARIES = ("ilm", "isos", "rpe")
DZ_UM = 3.9  # axial pitch passed to `octseg thickness`, as in the README


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    tiny_dims: tuple[int, int, int]
    speckle_looks: int
    # PhantomSpec.default with its lesion; otherwise the README cube
    lesion: bool
    file_dtype: str
    file_order: str
    threads: int
    # phantoms per run, each a different speckle draw: pooling their columns
    # keeps the RMS figures from swinging with one draw
    inputs: int
    # acceptance bound on per-boundary RMS from tests/test_acceptance.py
    rms_limit: float
    review: bool = False

    @property
    def cli_threads(self) -> int:
        return min(self.threads, os.cpu_count() or 1)

    def phantom(self, dims, seed: int) -> PhantomSpec:
        if self.lesion:
            return PhantomSpec.default(
                dims=dims, seed=seed, speckle_looks=self.speckle_looks, with_lesion=True
            )
        return readme_cube(dims, seed, self.speckle_looks)


def readme_cube(dims, seed: int, looks: int) -> PhantomSpec:
    """The README's quick-start phantom, scaled when dims differ from 300x99x480."""
    nx, _, nz = dims
    s = nz / 480.0
    sigma = 30.0 * nx / 300.0

    def surf(base, dip=0.0):
        return SurfaceSpec(base_depth=base * s, dip_amplitude=dip * s,
                           dip_sigma=sigma, wave_amplitude=5.0 * s)

    return PhantomSpec(dims=tuple(dims), ilm=surf(115, 29), isos=surf(202),
                       rpe=surf(264), speckle_looks=looks, seed=seed)


WORKLOADS = {
    # the README cube as users run it: single thread, u8, L=4; filters and
    # enhance are ~88% of the pipeline here
    "macular": Workload("macular", (300, 99, 480), (60, 20, 160), 4, False,
                        "u8", "xyz", threads=1, inputs=5, rms_limit=2.0),
    # 102k shallow columns at a similar voxel count: surface cleanup and CSV
    # writes weigh ~25%, f32 zxy load transposes, L=1 plus the lesion make
    # outlier rejection do real work, and the filter passes split 2 ways
    "widefield": Workload("widefield", (640, 160, 128), (128, 32, 128), 1, True,
                          "f32", "zxy", threads=2, inputs=4, rms_limit=3.5),
    # read side only: thickness + render on surfaces segmented during
    # set-up; no filtering runs, so a filter change predicts no change here
    "review": Workload("review", (300, 99, 480), (60, 20, 160), 4, False,
                       "u8", "xyz", threads=1, inputs=4, rms_limit=2.0, review=True),
}


@dataclass
class Input:
    raw: Path
    meta: Path
    dims: tuple[int, int, int]
    truth: dict
    # review only: surfaces segmented during set-up and what thickness must print
    surfaces_dir: Path | None = None
    thickness: object = None


def input_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def write_raw(data: np.ndarray, raw: Path, meta: Path, dtype: str, order: str) -> None:
    """Write canonical (x, y, z) float data as a raw file in ``order`` plus sidecar."""
    if dtype == "u8":
        samples = np.clip(np.rint(data * 255.0), 0, 255).astype(np.uint8)
    else:
        samples = data.astype("<f4")
    perm = tuple("xyz".index(ax) for ax in order)
    np.ascontiguousarray(samples.transpose(perm)).tofile(raw)
    sidecar = {"dims": [data.shape[p] for p in perm], "dtype": dtype,
               "endian": "le", "order": order}
    meta.write_text(json.dumps(sidecar) + "\n", encoding="utf-8")


def make_input(wl: Workload, dims, seed: int, index: int, where: Path) -> Input:
    volume, truth = generate_phantom(wl.phantom(dims, input_seed(seed, index)))
    where.mkdir(parents=True)
    raw, meta = where / "volume.raw", where / "volume.json"
    write_raw(volume.data, raw, meta, wl.file_dtype, wl.file_order)
    return Input(raw, meta, tuple(dims), {k: s.z for k, s in truth.as_dict().items()})


def segment_argv(inp: Input, out_dir: Path, threads: int) -> list[str]:
    return ["segment", "--in", str(inp.raw), "--meta", str(inp.meta),
            "--out-dir", str(out_dir), "--threads", str(threads), "--format", "csv"]


def operation(wl: Workload, inp: Input, out_dir: Path) -> list[list[str]]:
    """The octseg command lines of one operation, run one after another."""
    if not wl.review:
        return [segment_argv(inp, out_dir, wl.cli_threads)]
    nx, ny, nz = inp.dims
    s = inp.surfaces_dir
    return [
        ["thickness", "--ilm", str(s / "ilm.csv"), "--rpe", str(s / "rpe.csv"),
         "--dz-um", str(DZ_UM), "--out", str(out_dir / "thickness")],
        ["render", "--in", str(inp.raw), "--meta", str(inp.meta), "--surfaces", str(s),
         "--slice", str(ny // 2), "--out", str(out_dir / "bscan.ppm")],
    ]


def output_files(wl: Workload, out_dir: Path) -> list[Path]:
    """Files hashed for the determinism check (report.json carries timings)."""
    if wl.review:
        names = ["thickness.csv", "thickness.pgm", "thickness.pgm.json", "bscan.ppm"]
    else:
        names = [f"{b}.csv" for b in BOUNDARIES]
    return [out_dir / n for n in names]


def _read_grid_csv(path: Path, header: str, nx: int, ny: int) -> np.ndarray:
    with open(path, encoding="utf-8") as f:
        first = f.readline()
    if first != header + "\n":
        raise CheckFailed(f"{path.name}: header {first!r}, expected {header!r}")
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (nx * ny, header.count(",") + 1):
        raise CheckFailed(f"{path.name}: {rows.shape[0]} rows, expected {nx * ny}")
    if not (np.array_equal(rows[:, 0], np.tile(np.arange(nx), ny))
            and np.array_equal(rows[:, 1], np.repeat(np.arange(ny), nx))):
        raise CheckFailed(f"{path.name}: rows are not the y-major x,y grid")
    return rows


def check_report(out_dir: Path, dims) -> None:
    """report.json: one enhance and one argmax pass per boundary, not degenerate."""
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    if report["degenerate"] or report["dims"] != list(dims):
        raise CheckFailed(f"report: degenerate={report['degenerate']} dims={report['dims']}")
    for b in report["boundaries"]:
        if b["enhance_passes"] != 1 or b["argmax_passes"] != 1:
            raise CheckFailed(
                f"report: {b['name']} enhance_passes={b['enhance_passes']} "
                f"argmax_passes={b['argmax_passes']}, expected 1 and 1"
            )


def check_surfaces(wl: Workload, inp: Input, out_dir: Path) -> dict:
    """Total, finite, ordered surfaces within the RMS bound; returns squared errors."""
    nx, ny, _ = inp.dims
    z = {}
    for b in BOUNDARIES:
        rows = _read_grid_csv(out_dir / f"{b}.csv", "x,y,z,valid", nx, ny)
        if not (rows[:, 3] == 1).all():
            raise CheckFailed(f"{b}.csv: {int((rows[:, 3] != 1).sum())} invalid cells")
        if not np.isfinite(rows[:, 2]).all():
            raise CheckFailed(f"{b}.csv: non-finite depths")
        z[b] = rows[:, 2].reshape(ny, nx).T
    disordered = int(((z["ilm"] > z["isos"]) | (z["isos"] > z["rpe"])).sum())
    if disordered:
        raise CheckFailed(f"{disordered} columns break ILM <= IS/OS <= RPE")
    sse = {}
    for b in BOUNDARIES:
        sse[b] = float(((z[b] - inp.truth[b]) ** 2).sum())
        rms = (sse[b] / (nx * ny)) ** 0.5
        if rms > wl.rms_limit:
            raise CheckFailed(f"{b}: rms {rms:.3f} above the bound {wl.rms_limit}")
    return sse


def prepare_review(inp: Input) -> None:
    """What `octseg thickness` must print for the set-up segmentation."""
    ilm = load_surface(inp.surfaces_dir / "ilm.csv")
    rpe = load_surface(inp.surfaces_dir / "rpe.csv")
    inp.thickness = thickness_map(ilm, rpe, dz_um=DZ_UM)


def check_review(inp: Input, out_dir: Path) -> None:
    nx, ny, nz = inp.dims
    rows = _read_grid_csv(out_dir / "thickness.csv", "x,y,thickness_px,thickness_um", nx, ny)
    tm = inp.thickness
    if not (np.array_equal(rows[:, 2], tm.px.T.ravel())
            and np.array_equal(rows[:, 3], tm.um.T.ravel())):
        raise CheckFailed("thickness.csv differs from thickness_map computed in-process")
    _check_netpbm(out_dir / "thickness.pgm", b"P5", nx, ny, 1)
    _check_netpbm(out_dir / "bscan.ppm", b"P6", nx, nz, 3)


def _check_netpbm(path: Path, magic: bytes, cols: int, rows: int, channels: int) -> None:
    data = path.read_bytes()
    header = magic + f"\n{cols} {rows}\n255\n".encode("ascii")
    if not data.startswith(header) or len(data) != len(header) + cols * rows * channels:
        raise CheckFailed(f"{path.name}: expected a {cols}x{rows} {magic.decode()} image")
