"""Single-pass boundary segmentation and the three-boundary cascade.

One boundary is found in one sweep: a filters stage that reads the depth
derivative and the box-smoothed intensity, then depth-weighted fusion with
a per-column argmax inside the current search window, the planes above
a per-column end.  There is no iterative refinement of candidates;
``enhance`` scores the depth band above the deepest window end one x-slab
at a time, masking only the ragged planes below a slab's shallowest end,
and picks each slab as it is scored, so no score volume is kept.  Each
stage's wall time, and how far it raised the process's peak resident set,
go to the boundary's report, and a failing stage is raised as a
PipelineError naming the boundary and the stage.  One
``FilterBank`` per volume computes each distinct field once; polarity is
the sign ``enhance`` gives the bank's bright-above derivative, so ILM
reuses RPE's.  ``segment_retina`` hands the bank the fields each boundary
will read, so a field is freed after its last reader; a boundary's
filters stage asks for both of its fields in one request, and those that
are new are computed in one pass.  Each boundary asks for its fields down
to the end of its search band, and no band ends deeper than the one
before it (IS/OS searches above RPE, ILM above IS/OS), so the bank
computes a new field only that deep and cuts the fields it keeps to it.
The cascade runs RPE first on the whole volume, then removes the RPE and
everything below it from the search window (with a clearance) before
finding IS/OS, and repeats that truncation above IS/OS before finding
ILM.  A final projection step restores the anatomical depth ordering in
any column where the three estimates disagree.  The input is a ``Volume``
in memory or a ``RawVolume``, a raw file opened by ``open_volume``: the
filter passes are all that read it, an x-slab at a time, so an opened
file is never held whole, and a read that fails raises its OSError
unchanged.  ``BoundaryProfile`` and ``PipelineConfig`` are checked
``records.Record``s.
"""

from __future__ import annotations

import dataclasses
import numbers
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from resource import RUSAGE_SELF, getrusage

import numpy as np

from .enhance import enhance
from .filters import FilterBank, _check_read
from .records import Record
from .surfaces import (
    SearchMask,
    Surface,
    fill_from_neighbors,
    inpaint_and_smooth,
    reject_outliers,
    truncate_above_surface,
)
from .volume import RawVolume, Volume


class PipelineError(RuntimeError):
    """A segmentation stage failed; the message names boundary and stage."""


@dataclass(frozen=True)
class BoundaryProfile(Record):
    """Everything needed to segment one boundary.

    polarity describes the intensity step at the boundary ("bright_above"
    means brighter tissue on the shallow side); weight_direction picks which
    of two similar candidates wins (deeper or shallower).
    """

    name: str
    polarity: str
    weight_direction: str
    derivative_half_width: int = 5
    lateral_width: int = 3
    smoothing_radius: int = 3
    outlier_tau: float = 15.0
    median_window: int = 5
    surface_smooth_radius: int = 2

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
    """Profiles for the three boundaries, keyed by their cascade role (in
    JSON each holds overrides of that boundary's default profile), and the
    cascade's clearances: how many voxels IS/OS's search window keeps
    above the RPE, and ILM's above IS/OS."""

    _label = "config"

    rpe: BoundaryProfile = _DEFAULT_PROFILES["rpe"]
    isos: BoundaryProfile = _DEFAULT_PROFILES["isos"]
    ilm: BoundaryProfile = _DEFAULT_PROFILES["ilm"]
    isos_clearance: int = 10
    ilm_clearance: int = 10

    def check(self):
        for name in ("isos_clearance", "ilm_clearance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class BoundaryReport:
    """Counters and timings for one boundary's segmentation pass; ``flat``
    names what ``enhance`` found flat, and ``degenerate`` is "score" in it.
    ``stage_peak_rise_mb`` holds the MiB each stage raised the process's
    peak resident set by (ru_maxrss): 0 for one under an earlier peak."""

    name: str
    wall_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    stage_peak_rise_mb: dict = field(default_factory=dict)
    rejected_points: int = 0
    enhance_passes: int = 0
    argmax_passes: int = 0
    degenerate: bool = False
    flat: list = field(default_factory=list)
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
    """Time one stage into ``report.stage_s[name]`` and its rise of the
    peak resident set into ``report.stage_peak_rise_mb[name]``; re-raise
    its failure as a PipelineError naming the boundary and the stage."""
    t, peak = time.perf_counter(), getrusage(RUSAGE_SELF).ru_maxrss
    try:
        yield
    except (PipelineError, OSError):
        raise  # an input file that cannot be read is the caller's error
    except Exception as e:
        raise PipelineError(f"{report.name}: stage {name!r}: {e}") from e
    report.stage_s[name] = time.perf_counter() - t
    report.stage_peak_rise_mb[name] = (getrusage(RUSAGE_SELF).ru_maxrss - peak) / 1024


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
    volume: Volume | RawVolume,
    profile: BoundaryProfile,
    mask: SearchMask | None = None,
    threads: int = 1,
    bank: FilterBank | None = None,
) -> BoundaryResult:
    """Locate one boundary surface in a single enhance pass.

    Fields come from ``bank``, which must hold ``volume`` and plan this
    boundary's read (None builds one), down to the end of this boundary's
    search band.  That depth is a promise to the bank, so a shared bank is
    read in order of non-increasing band end: a band that ends deeper than
    an earlier reader's fails in the filters stage.
    Returns a total surface (every column carries a depth) plus a report
    with per-stage wall times and counters; the ``enhance`` stage scores
    and picks.  What was flat goes to ``report.flat``; a flat score (e.g.
    from constant input) is flagged degenerate rather than raised; any
    stage failure raises PipelineError naming the boundary and stage.
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

    with _stage(report, "filters"):
        # enhance reads no plane below the deepest window end
        deriv, smooth = bank.fields(_filter_sizes(profile), mask.depth)
    passes = Counter()
    with _stage(report, "enhance"):
        raw, report.flat = enhance(deriv, smooth, profile, mask, threads, passes)
    report.degenerate = "score" in report.flat
    del deriv, smooth  # a field the bank no longer keeps is freed here
    report.enhance_passes, report.argmax_passes = passes["enhance"], passes["argmax"]
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
    refilled once by the same diffusion inpainting.  The three surfaces then
    have the same holes, so the refill gives each the same neighbours in the
    same order, and rounded sums and quotients are monotone: the refilled
    columns keep the ordering that holds at the surviving cells.  When every
    column violates it, nothing survives to refill from, and each column
    takes its sorted triple.  Returns the fixed surfaces and the count of
    violating columns.
    """
    surfs = [Surface(s.z) for s in (ilm, isos, rpe)]
    for s in surfs:
        if not s.valid.all():
            raise ValueError("ordering projection expects total surfaces")

    bad = ~((surfs[0].z <= surfs[1].z) & (surfs[1].z <= surfs[2].z))
    if bad.all():
        stacked = np.sort(np.stack([s.z for s in surfs]), axis=0)
        for s, z in zip(surfs, stacked):
            s.z[:] = z
    elif bad.any():
        for s in surfs:
            s.z[bad] = np.nan
            s.z[:] = fill_from_neighbors(s.z)
    return surfs[0], surfs[1], surfs[2], int(bad.sum())


def segment_retina(
    volume: Volume | RawVolume, config: PipelineConfig | None = None, threads: int = 1
) -> SegmentationResult:
    """Run the full cascade: RPE, then IS/OS above it, then ILM above that.

    Each later boundary searches only the part of the volume strictly above
    the previously found surface minus its clearance (``isos_clearance``,
    ``ilm_clearance``), which removes the strong already-found step from
    the candidate set.  Truncation is skipped after a degenerate (flat)
    result since the surface carries no information.  All three draw on one
    filter bank.  Returns surfaces keyed "ilm", "isos", "rpe" (depth order
    restored in every column) and per-boundary reports in execution order.
    A volume smaller than one of the profiles' kernels raises ValueError
    before any stage runs.
    """
    _check_threads(threads)
    t0 = time.perf_counter()
    if config is None:
        config = PipelineConfig()
    nx, ny, nz = volume.dims
    profiles = (config.rpe, config.isos, config.ilm)
    plan = [_filter_sizes(p) for p in profiles]
    bank = FilterBank(volume, threads, plan)
    for p, reader in zip(profiles, plan):
        try:
            _check_read(reader, volume.dims)
        except ValueError as e:
            raise ValueError(f"{p.name}: {e}") from None

    mask, results = SearchMask.full(nx, ny, nz), []
    for p, clearance in zip(profiles, (config.isos_clearance, config.ilm_clearance, None)):
        results.append(segment_boundary(volume, p, mask, threads, bank))
        if clearance is not None and not results[-1].report.degenerate:
            mask = truncate_above_surface(results[-1].surface, clearance, nz)
    rpe_res, isos_res, ilm_res = results

    ilm_s, isos_s, rpe_s, n_fixed = enforce_ordering(
        ilm_res.surface, isos_res.surface, rpe_res.surface
    )
    return SegmentationResult(
        surfaces={"ilm": ilm_s, "isos": isos_s, "rpe": rpe_s},
        reports=[r.report for r in results],
        total_wall_s=time.perf_counter() - t0,
        ordering_fixed_columns=n_fixed,
        threads=threads,
        config=config,
    )
