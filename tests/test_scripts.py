"""The scripts under scripts/ run end to end on small inputs (timings are not checked)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import octseg
from octseg.phantom import PhantomSpec, generate_phantom
from octseg.pipeline import segment_retina
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


def run_benchmark(*args):
    return run_script("run_benchmark.py", *args)


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


def test_run_benchmark_prints_every_stage_of_the_reports():
    p = run_benchmark("--dims", "40x12x96", "--looks", "0", "--repeat", "1")
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("stage "))
    rule = lines[header + 1]
    rows = [line.split()[0] for line in lines[header + 2:lines.index(rule, header + 2)]]
    volume, _ = generate_phantom(PhantomSpec.default(dims=(40, 12, 96)))
    for report in segment_retina(volume).reports:
        assert sorted(rows) == sorted(report.stage_s), report.name
    io_rows = [line for line in lines if line.startswith("surface CSV I/O: ")]
    assert len(io_rows) == 1
    assert re.fullmatch(r"surface CSV I/O: save \d+\.\d{3}s, load \d+\.\d{3}s "
                        r"\(ilm, isos, rpe; fastest of 1\)", io_rows[0])
    memory_rows = [line for line in lines if line.startswith("peak RSS ")]
    assert len(memory_rows) == 1
    match = re.fullmatch(r"peak RSS \d+\.\d MiB \(ru_maxrss, phantom generation included\); "
                         r"cascade peak (\d+\.\d{2}) float volumes above the input "
                         r"\(tracemalloc, one untimed run\)", memory_rows[0])
    assert match and float(match.group(1)) > 0
    # the CLI's own peak follows, from a child that segments the same samples
    cli_row = lines[lines.index(memory_rows[0]) + 1]
    match = re.fullmatch(r"CLI segment peak RSS (\d+\.\d) MiB \(ru_maxrss of one `octseg segment` "
                         r"child on the phantom's u8 file\)", cli_row)
    assert match and float(match.group(1)) > 0
    # then the stage its sampled VmRSS peaked in, where /proc can be read
    stage_row = lines[lines.index(cli_row) + 1]
    if os.path.exists("/proc/self/status"):
        match = re.fullmatch(r"CLI segment RSS peaked in (.+) \(VmRSS (\d+\.\d) MiB, "
                             r"sampled every 0\.5 ms\)", stage_row)
        stages = "|".join(rows)  # the table's stages
        assert match and re.fullmatch(rf"start-up|(after )?(RPE|IS/OS|ILM) ({stages})",
                                      match.group(1)), stage_row
        assert float(match.group(2)) > 0
    else:
        assert stage_row == "CLI segment peak stage not sampled (no /proc/self/status)"
    # the start-up line gives the import child's CPU time next to its wall time
    startup_rows = [line for line in lines if line.startswith("CLI start-up ")]
    assert len(startup_rows) == 1
    match = re.fullmatch(r"CLI start-up (\d+\.\d{3})s wall, (\d+\.\d{3})s CPU \(median of 5 "
                         r"child processes running `import octseg\.cli`; CPU is user \+ sys\)",
                         startup_rows[0])
    assert match and float(match.group(1)) > 0 and float(match.group(2)) > 0
    # each boundary's accuracy carries its signed bias next to the RMS
    accuracy = [line.split() for line in lines if re.match(r"  (ilm|isos|rpe) ", line)]
    assert [row[0] for row in accuracy] == ["ilm", "isos", "rpe"]
    assert all(re.fullmatch(r"mean=[+-]\d+\.\d{3}", row[2]) for row in accuracy)


@pytest.mark.parametrize("args, message", [
    (["--dims", "40x8x96"], "IS/OS: kernel extent 9 exceeds volume size 8 along y"),
    (["--dims", "0x8x96"], "dims must be three positive ints"),
    (["--dims", "40x12x96", "--repeat", "0"], "--repeat must be >= 1, got 0"),
    (["--dims", "40x12x96", "--threads", "0"], "threads must be an integer >= 1, got 0"),
], ids=["volume-narrower-than-kernel", "zero-dim", "zero-repeat", "zero-threads"])
def test_run_benchmark_usage_errors_exit_2_with_one_line(args, message):
    p = run_benchmark(*args, "--looks", "0")
    assert p.returncode == 2
    assert p.stderr.startswith("error: ") and p.stderr.count("\n") == 1
    assert message in p.stderr
