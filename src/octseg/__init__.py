"""octseg: depth-weighted 3D boundary segmentation for retinal OCT volumes.

The public names are imported from their modules on first use (PEP 562),
so ``import octseg`` loads no octseg module and ``import octseg.cli`` loads
only the modules that the CLI itself imports.  They are what the README,
the scripts and the CLI use; the other names stay in their modules.

octseg calls no BLAS routine (``--threads`` runs its own pool), so the
package loads numpy with its OpenBLAS pool pinned to one thread: the
process runs only its own threads.  A thread count set in
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, or
a numpy loaded before octseg, is left as it is.  A program that imports
octseg before numpy and sets none of them runs its own BLAS calls
(``np.dot``, ``np.linalg``) on one thread too; importing numpy first keeps
OpenBLAS's default pool.
"""

import importlib
import os
import sys

# numpy's bundled OpenBLAS starts one worker per core when it loads, and
# each busy-waits for BLAS work that octseg never sends: on a 2-vCPU host
# the one worker burned 0.12 s of CPU in `import numpy` alone.  OpenBLAS
# reads the variable once, at load, so it is set only around the import
# that loads numpy; os.environ, and every subprocess, keep what they had.
# OpenBLAS takes its count from the first of these that is set, so any of
# them set by the user wins.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        importlib.import_module("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("ThicknessMap", "thickness_map"),
    "enhance": ("DegenerateNormalizationWarning",),
    "phantom": (
        "GroundTruth",
        "LayerIntensities",
        "LesionSpec",
        "PhantomSpec",
        "SurfaceSpec",
        "generate_phantom",
        "surface_error",
    ),
    "pipeline": (
        "BoundaryProfile",
        "BoundaryReport",
        "PipelineConfig",
        "PipelineError",
        "SegmentationResult",
        "segment_retina",
    ),
    "surfaces": ("Surface", "load_surface", "save_surface"),
    "volume": (
        "RawVolume",
        "SizeMismatchError",
        "Volume",
        "VolumeMeta",
        "open_volume",
        "save_volume",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
