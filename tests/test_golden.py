"""Golden digests: small generated phantoms segmented end to end, each
surface's depths and the run's counters compared with values committed in
``golden_digests.json``.

A change that moves any surface by a single bit, or any counter, fails
here.  A change that alters the arithmetic on purpose regenerates the file
in the same commit (``PYTHONPATH=src python tests/test_golden.py``) and
names the digests that moved and why.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from octseg.phantom import PhantomSpec, generate_phantom
from octseg.pipeline import segment_retina
from octseg.volume import open_volume, save_volume

GOLDEN = Path(__file__).with_name("golden_digests.json")
DIMS = (48, 12, 96)
PHANTOMS = {
    "noiseless": PhantomSpec.default(dims=DIMS),
    "looks4": PhantomSpec.default(dims=DIMS, speckle_looks=4),
    "looks1_lesion": PhantomSpec.default(dims=DIMS, speckle_looks=1, with_lesion=True),
}
DTYPES = ("u8", "f32")
COUNTERS = ("rejected_points", "enhance_passes", "argmax_passes", "degenerate",
            "columns_total", "columns_searched")


def segment_digests(phantom: str, dtype: str, threads: int, tmp: Path) -> dict:
    """sha256 of each surface's ``z`` bytes and the run's counters, for the
    phantom written as a ``dtype`` raw file and read back as the CLI does."""
    volume, _ = generate_phantom(PHANTOMS[phantom])
    path = tmp / f"{phantom}.{dtype}.raw"
    meta = save_volume(volume, path, dtype=dtype)
    with open_volume(path, meta) as opened:
        result = segment_retina(opened, threads=threads)
    counters = {"ordering_fixed_columns": result.ordering_fixed_columns}
    for report in result.reports:
        counters[report.name] = {key: getattr(report, key) for key in COUNTERS}
    return {
        "z_sha256": {key: hashlib.sha256(s.z.tobytes()).hexdigest()
                     for key, s in result.surfaces.items()},
        "counters": counters,
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("phantom", sorted(PHANTOMS))
def test_surfaces_and_counters_match_golden(phantom, dtype, threads, tmp_path):
    expected = json.loads(GOLDEN.read_text())[f"{phantom}.{dtype}"]
    assert segment_digests(phantom, dtype, threads, tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {f"{p}.{d}": segment_digests(p, d, 1, Path(tmp))
                  for p in sorted(PHANTOMS) for d in DTYPES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
