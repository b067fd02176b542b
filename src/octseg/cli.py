"""Command-line front end.

Subcommands: ``segment`` (raw volume -> three boundary surfaces plus a run
report), ``phantom`` (spec JSON -> synthetic volume with ground truth),
``thickness`` (two surface files -> CSV map and PGM preview), ``render``
(volume + surfaces -> annotated B-scan PPM).

Exit codes: 0 success, 1 pipeline failure (including degenerate
enhancement, whose boundaries are written with every cell invalid), 2
usage or input errors, among them an input file that cannot be read in
full; ``segment`` names on stderr each boundary whose report lists flat
parts, then the degenerate ones.  The OCTSEG_THREADS environment variable
supplies the default worker count when --threads is omitted.  ``segment``
opens its input and the filter passes read it an x-slab at a time, so the
whole input is never in memory.  The phantom, analysis and render modules
are imported by the commands that use them, so a call that does not run
them does not compile them.  ``run`` is ``main`` as the ``octseg`` program
and ``python -m octseg`` call it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

import numpy as np

from .pipeline import PipelineConfig, PipelineError, segment_retina
from .surfaces import Surface, load_surface, save_surface
from .volume import VolumeMeta, load_bscan, open_volume, save_volume

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_USAGE = 2
ENV_THREADS = "OCTSEG_THREADS"


def _resolve_threads(cli_value: int | None) -> int:
    if cli_value is None:
        env = os.environ.get(ENV_THREADS)
        if env is None:
            return 1
        try:
            cli_value = int(env)
        except ValueError:
            raise ValueError(f"{ENV_THREADS} must be an integer, got {env!r}") from None
    if cli_value < 1:
        raise ValueError(f"thread count must be >= 1, got {cli_value}")
    return cli_value


def cmd_segment(args) -> int:
    meta = VolumeMeta.from_json(args.meta)
    # the usage checks come before open_volume, whose range pass reads a
    # float input whole
    config = PipelineConfig.from_json(args.config) if args.config else PipelineConfig()
    threads = _resolve_threads(args.threads)
    with open_volume(args.input, meta) as volume:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        result = segment_retina(volume, config, threads=threads)

    ext = args.format
    files = {}
    # a degenerate boundary's depths carry no information: its file says so
    degenerate = {k for k, r in zip(("rpe", "isos", "ilm"), result.reports) if r.degenerate}
    for key in ("ilm", "isos", "rpe"):
        fname = f"{key}.{ext}"
        surface = result.surfaces[key]
        if key in degenerate:
            surface = Surface(np.full_like(surface.z, np.nan))
        save_surface(surface, out_dir / fname, fmt=args.format)
        files[key] = fname
    report = result.report_dict(dims=volume.dims)
    report["input"] = str(args.input)
    report["surface_format"] = args.format
    report["surface_files"] = files
    with open(out_dir / "report.json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    for r in result.reports:
        if r.flat:
            print(f"{r.name}: flat over its search window: {', '.join(r.flat)}", file=sys.stderr)
    if result.degenerate:
        names = ", ".join(r.name for r in result.reports if r.degenerate)
        print(f"segmentation degenerate: {names}", file=sys.stderr)
        return EXIT_PIPELINE
    return EXIT_OK


def cmd_phantom(args) -> int:
    from .phantom import PhantomSpec, generate_phantom

    spec = PhantomSpec.from_json(args.spec)
    volume, truth = generate_phantom(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_volume(
        volume,
        out_dir / "volume.raw",
        dtype=spec.dtype,
        meta_path=out_dir / "volume.json",
    )
    for name, surf in truth.as_dict().items():
        save_surface(surf, out_dir / f"truth_{name}.csv", fmt="csv")
    spec.save(out_dir / "spec.json")
    return EXIT_OK


def cmd_thickness(args) -> int:
    from .analysis import save_thickness_csv, save_thickness_pgm, thickness_map

    ilm = load_surface(args.ilm, fmt="csv")
    rpe = load_surface(args.rpe, fmt="csv")
    tm = thickness_map(ilm, rpe, dz_um=args.dz_um)
    save_thickness_csv(tm, f"{args.out}.csv")
    save_thickness_pgm(tm, f"{args.out}.pgm")
    return EXIT_OK


def cmd_render(args) -> int:
    from .render import draw_bscan, write_ppm

    meta = VolumeMeta.from_json(args.meta)
    bscan = load_bscan(args.input, meta, args.slice)
    sdir = Path(args.surfaces)
    surfaces = {}
    for name in ("ilm", "isos", "rpe"):
        p = sdir / f"{name}.csv"
        if p.exists():
            surfaces[name] = load_surface(p, fmt="csv")
    if not surfaces:
        raise ValueError(f"no ilm/isos/rpe .csv surface files found in {sdir}")
    img = draw_bscan(bscan, meta.dims[meta.order.index("y")], surfaces, args.slice)
    write_ppm(img, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octseg",
        description="Depth-weighted 3D boundary segmentation for retinal OCT volumes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segment", help="segment ILM, IS/OS and RPE from a raw volume")
    p.add_argument("--in", dest="input", required=True, help="raw volume file")
    p.add_argument("--meta", required=True, help="JSON sidecar describing the raw file")
    p.add_argument("--config", default=None, help="JSON with per-boundary overrides")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker threads (default: ${ENV_THREADS} or 1)",
    )
    p.add_argument("--format", choices=("csv", "f32"), default="csv",
                   help="surface file format (default csv)")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("phantom", help="generate a synthetic volume with ground truth")
    p.add_argument("--spec", required=True, help="phantom spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("thickness", help="thickness map between two surface files")
    p.add_argument("--ilm", required=True, help="inner surface CSV")
    p.add_argument("--rpe", required=True, help="outer surface CSV")
    p.add_argument("--dz-um", type=float, default=None, help="axial voxel pitch in microns")
    p.add_argument("--out", required=True, help="output prefix (.csv/.pgm appended)")
    p.set_defaults(func=cmd_thickness)

    p = sub.add_parser("render", help="write one annotated B-scan as PPM")
    p.add_argument("--in", dest="input", required=True, help="raw volume file")
    p.add_argument("--meta", required=True, help="JSON sidecar describing the raw file")
    p.add_argument("--surfaces", required=True, help="directory with ilm/isos/rpe .csv")
    p.add_argument("--slice", type=int, required=True, help="B-scan index (y)")
    p.add_argument("--out", required=True, help="output PPM path")
    p.set_defaults(func=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PipelineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PIPELINE
    except (ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def run(argv=None) -> int:
    """``main`` as the ``octseg`` program runs it, which exits next: the
    objects left are frozen, so the interpreter's exit-time collection
    skips them."""
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
