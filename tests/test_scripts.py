"""The scripts under scripts/ run end to end on small inputs (timings are not checked)."""

import os
import subprocess
import sys
from pathlib import Path

import octseg
from octseg.cli import main
from octseg.surfaces import load_surface
from octseg.volume import VolumeMeta
from reference import read_ppm, read_volume

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


def test_run_demo_writes_every_file_it_reports(tmp_path):
    p = run_script("run_demo.py", "--out-dir", str(tmp_path))
    assert p.returncode == 0, p.stderr
    reported = [Path(token) for token in p.stdout.split()
                if Path(token).suffix in {".raw", ".csv", ".pgm", ".ppm"}]
    paths = {path.name: path if path.is_absolute() else tmp_path / path for path in reported}
    assert sorted(paths) == ["bscan_y24.ppm", "ilm.csv", "isos.csv", "rpe.csv",
                             "thickness.csv", "thickness.pgm", "volume.raw"]
    assert all(path.parent == tmp_path and path.stat().st_size > 0 for path in paths.values())
    # the volume comes with its sidecar, and the files read back
    volume = read_volume(paths["volume.raw"], VolumeMeta.from_json(tmp_path / "volume.raw.json"))
    assert volume.dims == (160, 48, 256)
    for key in ("ilm", "isos", "rpe"):
        surface = load_surface(paths[f"{key}.csv"])
        assert surface.z.shape == (160, 48) and surface.valid.all()
    assert read_ppm(paths["bscan_y24.ppm"]).shape == (256, 160, 3)
    # the surfaces are those `octseg segment` gives on the file written with them
    seg = tmp_path / "segment"
    assert main(["segment", "--in", str(paths["volume.raw"]),
                 "--meta", str(tmp_path / "volume.raw.json"), "--out-dir", str(seg)]) == 0
    for key in ("ilm", "isos", "rpe"):
        assert paths[f"{key}.csv"].read_bytes() == (seg / f"{key}.csv").read_bytes(), key
