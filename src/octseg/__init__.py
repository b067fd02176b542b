"""octseg: depth-weighted 3D boundary segmentation for retinal OCT volumes."""

from .analysis import ThicknessMap, export_surface_mesh, thickness_map
from .enhance import DegenerateNormalizationWarning, enhance
from .filters import (
    FilterBank,
    Kernel3D,
    SeparableKernel,
    convolve_direct,
    convolve_separable,
    make_derivative_kernel,
    make_smoothing_kernel,
)
from .phantom import (
    GroundTruth,
    LayerIntensities,
    LesionSpec,
    PhantomSpec,
    SurfaceSpec,
    add_speckle,
    generate_phantom,
    surface_error,
)
from .pipeline import (
    BoundaryProfile,
    BoundaryReport,
    BoundaryResult,
    PipelineConfig,
    PipelineError,
    SegmentationResult,
    enforce_ordering,
    segment_boundary,
    segment_retina,
)
from .surfaces import (
    SearchMask,
    Surface,
    argmax_per_ascan,
    inpaint_and_smooth,
    load_surface,
    reject_outliers,
    save_surface,
    truncate_above_surface,
)
from .volume import (
    SizeMismatchError,
    Volume,
    VolumeMeta,
    load_volume,
    normalize_intensities,
    save_volume,
)

__version__ = "0.1.0"
