"""Single-pass boundary segmentation and the three-boundary cascade.

One boundary is found in one sweep: depth-derivative filtering, box
smoothing, then depth-weighted fusion with a per-column argmax inside the
current search window.  There is no iterative refinement of candidates;
``enhance`` scores the depth band that the search windows span one x-slab
at a time and picks each slab as it is scored, so no score volume is kept.
Each stage's wall time goes to the boundary's report, and a failing stage
is raised as a PipelineError naming the boundary and the stage.  One
``FilterBank`` per volume computes each distinct field once; polarity is
the sign ``enhance`` gives the bank's bright-above derivative, so ILM
reuses RPE's.  ``segment_retina`` hands the bank the fields each boundary
will read, so a field is freed after its last reader.  Each boundary asks
for its fields down to the end of its search band, read before the
derivative stage, and no band ends deeper than the one before it (IS/OS
searches above RPE, ILM above IS/OS), so the bank computes a new field only
that deep and cuts the fields it keeps to it.  The cascade runs RPE first
on the whole volume, then removes the RPE and everything below it from the
search window (with a safety margin) before finding IS/OS, and repeats
that truncation above IS/OS before finding ILM.  A final projection step
restores the anatomical depth ordering in any column where the three
estimates disagree.  ``BoundaryProfile`` and ``PipelineConfig`` are
checked ``records.Record``s.
"""

from __future__ import annotations

import dataclasses
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .enhance import DepthWeight, enhance
from .filters import FilterBank
from .records import Record
from .surfaces import (
    SearchMask,
    Surface,
    fill_from_neighbors,
    inpaint_and_smooth,
    reject_outliers,
    truncate_above_surface,
)
from .volume import Volume


class PipelineError(RuntimeError):
    """A segmentation stage failed; the message names boundary and stage."""


@dataclass(frozen=True)
class BoundaryProfile(Record):
    """Everything needed to segment one boundary.

    polarity describes the intensity step at the boundary ("bright_above"
    means brighter tissue on the shallow side); weight_direction picks which
    of two similar candidates wins (deeper or shallower).  truncation_margin
    is how many voxels of clearance this boundary's search window keeps from
    the previously found surface.
    """

    name: str
    polarity: str
    weight_direction: str
    derivative_half_width: int = 5
    lateral_width: int = 3
    smoothing_radius: int = 3
    clamp_negative: bool = True
    outlier_tau: float = 15.0
    median_window: int = 5
    surface_smooth_radius: int = 2
    truncation_margin: int = 10

    def check(self):
        if self.polarity not in ("bright_above", "bright_below"):
            raise ValueError(f"bad polarity {self.polarity!r}")
        if self.weight_direction not in ("favor_deep", "favor_shallow"):
            raise ValueError(f"bad weight_direction {self.weight_direction!r}")
        if self.derivative_half_width < 1:
            raise ValueError("derivative_half_width must be >= 1")
        if self.lateral_width < 1 or self.lateral_width % 2 == 0:
            raise ValueError("lateral_width must be odd and >= 1")
        if self.smoothing_radius < 0:
            raise ValueError("smoothing_radius must be >= 0")
        if not self.outlier_tau > 0:
            raise ValueError("outlier_tau must be positive")
        if self.median_window < 3 or self.median_window % 2 == 0:
            raise ValueError("median_window must be odd and >= 3")
        if self.surface_smooth_radius < 0:
            raise ValueError("surface_smooth_radius must be >= 0")
        if self.truncation_margin < 0:
            raise ValueError("truncation_margin must be >= 0")


_DEFAULT_PROFILES = {
    "rpe": BoundaryProfile(
        name="RPE", polarity="bright_above", weight_direction="favor_deep"
    ),
    # the IS/OS step is the weakest of the three; a wider lateral average
    # keeps its derivative peak above the speckle noise floor
    "isos": BoundaryProfile(
        name="IS/OS", polarity="bright_below", weight_direction="favor_deep",
        lateral_width=9,
    ),
    "ilm": BoundaryProfile(
        name="ILM", polarity="bright_below", weight_direction="favor_shallow"
    ),
}


@dataclass(frozen=True)
class PipelineConfig(Record):
    """Profiles for the three boundaries, keyed by their cascade role; in
    JSON each holds overrides of that boundary's default profile."""

    _label = "config"

    rpe: BoundaryProfile = _DEFAULT_PROFILES["rpe"]
    isos: BoundaryProfile = _DEFAULT_PROFILES["isos"]
    ilm: BoundaryProfile = _DEFAULT_PROFILES["ilm"]

    @classmethod
    def default(cls) -> "PipelineConfig":
        return cls()


@dataclass
class BoundaryReport:
    """Counters and timings for one boundary's segmentation pass."""

    name: str
    wall_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    rejected_points: int = 0
    enhance_passes: int = 0
    argmax_passes: int = 0
    degenerate: bool = False
    columns_total: int = 0
    columns_searched: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _filter_sizes(profile: BoundaryProfile) -> tuple[int, int, int]:
    """What a boundary reads from the filter bank: derivative half-width,
    lateral width and smoothing radius."""
    return profile.derivative_half_width, profile.lateral_width, profile.smoothing_radius


def _check_threads(threads) -> None:
    if isinstance(threads, bool) or not isinstance(threads, numbers.Integral) or threads < 1:
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")


@contextmanager
def _stage(report: BoundaryReport, name: str):
    """Time one stage into ``report.stage_s[name]``; re-raise its failure as
    a PipelineError naming the boundary and the stage."""
    t = time.perf_counter()
    try:
        yield
    except PipelineError:
        raise
    except Exception as e:
        raise PipelineError(f"{report.name}: stage {name!r}: {e}") from e
    report.stage_s[name] = time.perf_counter() - t


@dataclass
class BoundaryResult:
    surface: Surface
    report: BoundaryReport


@dataclass
class SegmentationResult:
    surfaces: dict
    reports: list
    total_wall_s: float
    ordering_fixed_columns: int
    threads: int
    config: PipelineConfig

    @property
    def degenerate(self) -> bool:
        return any(r.degenerate for r in self.reports)

    def report_dict(self, dims=None) -> dict:
        d = {
            "threads": self.threads,
            "total_wall_s": self.total_wall_s,
            "ordering_fixed_columns": self.ordering_fixed_columns,
            "degenerate": self.degenerate,
            "config": self.config.to_dict(),
            "boundaries": [r.to_dict() for r in self.reports],
        }
        if dims is not None:
            d["dims"] = list(dims)
        return d


def segment_boundary(
    volume: Volume,
    profile: BoundaryProfile,
    mask: SearchMask | None = None,
    threads: int = 1,
    bank: FilterBank | None = None,
) -> BoundaryResult:
    """Locate one boundary surface in a single enhance pass.

    Fields come from ``bank``, which must hold ``volume`` (None builds one),
    down to the end of this boundary's search band.  That depth is a
    promise to the bank, so a shared bank is read in order of
    non-increasing band end: a band that ends deeper than an earlier
    reader's fails in the derivative stage.
    Returns a total surface (every column carries a depth) plus a report
    with per-stage wall times and counters; the ``enhance`` stage scores
    and picks.  A flat enhanced score (e.g. from constant input) is flagged
    degenerate rather than raised; any stage failure raises PipelineError
    naming the boundary and stage.
    """
    _check_threads(threads)
    t0 = time.perf_counter()
    nx, ny, nz = volume.dims
    if bank is None:
        bank = FilterBank(volume, threads, [_filter_sizes(profile)])
    if mask is None:
        mask = SearchMask.full(nx, ny, nz)
    report = BoundaryReport(name=profile.name)
    report.columns_total = nx * ny
    report.columns_searched = int(mask.column_valid().sum())

    weight = DepthWeight(profile.weight_direction, nz)
    sign = 1 if profile.polarity == "bright_above" else -1
    with _stage(report, "derivative"):
        z0, band = mask.to_band()
        depth = z0 + band.nz  # enhance reads no plane below the search band
        deriv = bank.derivative(profile.derivative_half_width, profile.lateral_width, depth)
    with _stage(report, "smoothing"):
        smooth = bank.smoothing(profile.smoothing_radius, depth)
    with _stage(report, "enhance"):
        raw, report.degenerate = enhance(
            deriv, smooth, weight, sign, profile.clamp_negative, mask, threads
        )
    del deriv, smooth  # a field the bank no longer keeps is freed here
    report.enhance_passes += 1
    report.argmax_passes += 1
    with _stage(report, "outlier_reject"):
        kept = reject_outliers(raw, profile.outlier_tau, profile.median_window)
    report.rejected_points = int(raw.valid.sum() - kept.valid.sum())
    with _stage(report, "regularize"):
        final = inpaint_and_smooth(kept, profile.surface_smooth_radius, max_z=float(nz - 1))
    report.wall_s = time.perf_counter() - t0
    return BoundaryResult(surface=final, report=report)


def enforce_ordering(
    ilm: Surface, isos: Surface, rpe: Surface
) -> tuple[Surface, Surface, Surface, int]:
    """Project three total surfaces onto the constraint ILM <= IS/OS <= RPE.

    Columns violating the ordering are invalidated in all three surfaces and
    refilled by the same diffusion inpainting; because the refill applies an
    identical nonnegative averaging to each surface, it preserves the
    ordering that holds at the surviving cells.  If violations somehow
    persist, the per-column sorted triple is taken as a last resort.
    Returns the fixed surfaces and the count of initially violating columns.
    """
    surfs = [ilm.copy(), isos.copy(), rpe.copy()]
    for s in surfs:
        if not s.valid.all():
            raise ValueError("ordering projection expects total surfaces")

    def misordered():
        return ~((surfs[0].z <= surfs[1].z) & (surfs[1].z <= surfs[2].z))

    bad = misordered()
    n_bad = int(bad.sum())
    for _ in range(4):
        if bad.all() or not bad.any():
            break
        for s in surfs:
            s.z[bad] = np.nan
            s.z[:] = fill_from_neighbors(s.z)
        bad = misordered()
    if bad.any():
        stacked = np.sort(np.stack([s.z for s in surfs]), axis=0)
        for s, z in zip(surfs, stacked):
            s.z[:] = z
    for s in surfs:
        s.valid[:] = True
    return surfs[0], surfs[1], surfs[2], n_bad


def segment_retina(
    volume: Volume, config: PipelineConfig | None = None, threads: int = 1
) -> SegmentationResult:
    """Run the full cascade: RPE, then IS/OS above it, then ILM above that.

    Each later boundary searches only the part of the volume strictly above
    the previously found surface minus its truncation margin, which removes
    the strong already-found step from the candidate set.  Truncation is
    skipped after a degenerate (flat) result since the surface carries no
    information.  All three draw on one filter bank.  Returns surfaces keyed
    "ilm", "isos", "rpe" (depth order restored in every column) and
    per-boundary reports in execution order.  A volume smaller than one of
    the profiles' kernels raises ValueError before any stage runs.
    """
    _check_threads(threads)
    t0 = time.perf_counter()
    if config is None:
        config = PipelineConfig.default()
    nx, ny, nz = volume.dims
    full = SearchMask.full(nx, ny, nz)
    profiles = (config.rpe, config.isos, config.ilm)
    bank = FilterBank(volume, threads, [_filter_sizes(p) for p in profiles])
    for p in profiles:
        try:
            bank.check_fits(*_filter_sizes(p))
        except ValueError as e:
            raise ValueError(f"{p.name}: {e}") from None

    rpe_res = segment_boundary(volume, config.rpe, full, threads, bank)
    if rpe_res.report.degenerate:
        isos_mask = full
    else:
        isos_mask = truncate_above_surface(full, rpe_res.surface, config.isos.truncation_margin)
    isos_res = segment_boundary(volume, config.isos, isos_mask, threads, bank)
    if isos_res.report.degenerate:
        ilm_mask = isos_mask
    else:
        ilm_mask = truncate_above_surface(full, isos_res.surface, config.ilm.truncation_margin)
    ilm_res = segment_boundary(volume, config.ilm, ilm_mask, threads, bank)

    ilm_s, isos_s, rpe_s, n_fixed = enforce_ordering(
        ilm_res.surface, isos_res.surface, rpe_res.surface
    )
    return SegmentationResult(
        surfaces={"ilm": ilm_s, "isos": isos_s, "rpe": rpe_s},
        reports=[rpe_res.report, isos_res.report, ilm_res.report],
        total_wall_s=time.perf_counter() - t0,
        ordering_fixed_columns=n_fixed,
        threads=threads,
        config=config,
    )
