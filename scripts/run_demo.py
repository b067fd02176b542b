"""End-to-end tour: phantom -> segmentation -> thickness, render.

Writes every artifact the library produces into one output directory so
the file formats can be inspected by hand.
"""

import argparse
import json
import pathlib

import numpy as np

from octseg.analysis import save_thickness_csv, save_thickness_pgm, thickness_map
from octseg.phantom import PhantomSpec, generate_phantom, surface_error
from octseg.pipeline import segment_retina
from octseg.render import draw_bscan, write_ppm
from octseg.surfaces import save_surface
from octseg.volume import save_volume


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_out")
    parser.add_argument("--looks", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lesion", action="store_true",
                        help="add a focal deformation to the outer layers")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dims = (160, 48, 256)
    looks = args.looks if args.looks > 0 else None
    spec = PhantomSpec.default(dims=dims, seed=args.seed, speckle_looks=looks,
                               with_lesion=args.lesion)
    volume, truth = generate_phantom(spec)
    save_volume(volume, out / "volume.raw", dtype="u8")
    print(f"wrote {out / 'volume.raw'} (+ sidecar) "
          f"{dims[0]}x{dims[1]}x{dims[2]} looks={looks}")

    result = segment_retina(volume)
    for key, surf in result.surfaces.items():
        save_surface(surf, out / f"{key}.csv")
        err = surface_error(surf, getattr(truth, key))
        print(f"{key:<5} rms={err.rms:.3f} voxels -> {out / (key + '.csv')}")
    report = result.report_dict(dims=dims)
    (out / "report.json").write_text(json.dumps(report, indent=2))

    # 3.9 um is a plausible axial pitch
    tm = thickness_map(result.surfaces["ilm"], result.surfaces["rpe"], dz_um=3.9)
    save_thickness_csv(tm, out / "thickness.csv")
    save_thickness_pgm(tm, out / "thickness.pgm")
    print(f"thickness map mean {tm.px.mean():.1f} px "
          f"({tm.um.mean():.1f} um) -> thickness.csv / thickness.pgm")

    y_mid = dims[1] // 2
    image = draw_bscan(volume.values(np.s_[:, y_mid, :]), volume.ny, result.surfaces, y_mid)
    write_ppm(image, out / f"bscan_y{y_mid}.ppm")
    print(f"overlay of slice y={y_mid} -> bscan_y{y_mid}.ppm")


if __name__ == "__main__":
    main()
