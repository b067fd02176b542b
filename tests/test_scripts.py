"""The scripts under scripts/ run end to end on tiny inputs (timings are not checked)."""

import os
import subprocess
import sys
from pathlib import Path

import octseg
from octseg.phantom import PhantomSpec, generate_phantom
from octseg.pipeline import segment_retina

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_benchmark_prints_every_stage_of_the_reports():
    env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
    p = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_benchmark.py"),
         "--dims", "40x12x96", "--looks", "0", "--repeat", "1"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr
    lines = p.stdout.splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("stage "))
    rule = lines[header + 1]
    rows = [line.split()[0] for line in lines[header + 2:lines.index(rule, header + 2)]]
    volume, _ = generate_phantom(PhantomSpec.default(dims=(40, 12, 96)))
    for report in segment_retina(volume).reports:
        assert sorted(rows) == sorted(report.stage_s), report.name
