"""octseg: depth-weighted 3D boundary segmentation for retinal OCT volumes.

The public names are imported from their modules on first use (PEP 562),
so ``import octseg.cli`` loads only the modules that the CLI itself
imports.  ``enhance`` is the exception: the function shares its module's
name, and the import system rebinds that name to the module whenever the
module is first loaded, so the enhance names are bound here up front.
"""

import importlib

from .enhance import DegenerateNormalizationWarning, enhance

__version__ = "0.1.0"

_EXPORTS = {
    "analysis": ("ThicknessMap", "export_surface_mesh", "thickness_map"),
    "filters": (
        "FilterBank",
        "Kernel3D",
        "SeparableKernel",
        "convolve_direct",
        "convolve_separable",
        "make_derivative_kernel",
        "make_smoothing_kernel",
    ),
    "phantom": (
        "GroundTruth",
        "LayerIntensities",
        "LesionSpec",
        "PhantomSpec",
        "SurfaceSpec",
        "add_speckle",
        "generate_phantom",
        "surface_error",
    ),
    "pipeline": (
        "BoundaryProfile",
        "BoundaryReport",
        "BoundaryResult",
        "PipelineConfig",
        "PipelineError",
        "SegmentationResult",
        "enforce_ordering",
        "segment_boundary",
        "segment_retina",
    ),
    "surfaces": (
        "SearchMask",
        "Surface",
        "argmax_per_ascan",
        "inpaint_and_smooth",
        "load_surface",
        "reject_outliers",
        "save_surface",
        "truncate_above_surface",
    ),
    "volume": (
        "SizeMismatchError",
        "Volume",
        "VolumeMeta",
        "load_volume",
        "normalize_intensities",
        "save_volume",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "DegenerateNormalizationWarning", "enhance"])


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
