"""The public surface: the root namespace holds what the README, the scripts
and the CLI use, ``import octseg`` loads no octseg module, the README's
Python quick start runs as written, and its defaults are the code's."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import octseg
from octseg import filters, pipeline, render, volume

SRC = Path(octseg.__file__).resolve().parents[1]
README = SRC.parent / "README.md"

PUBLIC = [
    "ThicknessMap", "thickness_map",
    "GroundTruth", "LayerIntensities", "LesionSpec", "PhantomSpec", "SurfaceSpec",
    "generate_phantom", "surface_error",
    "BoundaryProfile", "BoundaryReport", "PipelineConfig", "PipelineError",
    "SegmentationResult", "segment_retina",
    "Surface", "load_surface", "save_surface",
    "RawVolume", "SizeMismatchError", "Volume", "VolumeMeta", "open_volume", "save_volume",
    "DegenerateNormalizationWarning",
]


def run_child(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       timeout=300)
    assert p.returncode == 0, p.stderr
    return p.stdout


def test_root_namespace_is_what_the_readme_scripts_and_cli_use():
    assert octseg.__all__ == sorted(PUBLIC) and len(PUBLIC) == 25


def test_bare_import_loads_no_octseg_module():
    # and the CLI loads the modules that ``segment`` runs, no more
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('octseg.'))\n"
        "import octseg\n"
        "bare = loaded()\n"
        "import octseg.cli\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    bare, cli = json.loads(run_child(code).strip().splitlines()[-1])
    assert bare == []
    assert cli == [f"octseg.{m}" for m in ("cli", "enhance", "filters", "pipeline", "records",
                                           "surfaces", "volume")]


@pytest.mark.parametrize("module, name", [
    (filters, "convolve_direct"),
    (filters, "Kernel3D"),
    (filters.SeparableKernel, "to_dense"),
    (render, "read_ppm"),
    (render, "render_bscan"),
    (volume, "normalize_intensities"),
    (pipeline.PipelineConfig, "default"),
])
def test_test_only_helpers_left_src(module, name):
    assert not hasattr(module, name)


def test_readme_python_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks and "from octseg import" in blocks[0]
    rms = float(run_child(blocks[0]).strip().splitlines()[-1])
    assert 0 <= rms < 1.0


def test_readme_defaults_are_the_configs():
    text = README.read_text()
    lines = text[text.index("| parameter "):].splitlines()
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    assert header == ["parameter", "rpe", "isos", "ilm"]
    rows = []
    for line in lines[2:]:
        if not line.startswith("|"):
            break
        name, *values = (c.strip() for c in line.strip("|").split("|"))
        rows.append((name, values))
    config = pipeline.PipelineConfig()
    fields = [f.name for f in dataclasses.fields(pipeline.BoundaryProfile)]
    assert sorted(name for name, _ in rows) == sorted(set(fields) - {"name"})
    for name, values in rows:
        shown = [v if isinstance(v, str) else json.dumps(v)
                 for v in (getattr(getattr(config, role), name) for role in header[1:])]
        assert values == shown, name
    for name in ("isos_clearance", "ilm_clearance"):
        assert f"`{name}` (default {getattr(config, name)})" in text
