"""Synthetic retina volumes with exactly known boundary surfaces.

A phantom is a stack of piecewise-constant layers separated by three
interfaces (ILM, IS/OS, RPE).  Each interface is a smooth height field:
a base depth plus an optional centered Gaussian dip (foveal pit) and a low
frequency lateral undulation.  The IS/OS and RPE interfaces carry thin
bright bands on their deep side (IS/OS) and shallow side (RPE), so the
interface itself is the intensity step a detector should find.  An optional
lesion locally shifts the two outer interfaces and darkens the gap between
the bands.  Multiplicative speckle uses unit-mean Gamma noise.  The specs
are checked ``records.Record``s.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .records import Record
from .surfaces import Surface
from .volume import Volume, VolumeMeta


@dataclass(frozen=True)
class SurfaceSpec(Record):
    """Height field z(x, y) = base + dip + undulation, in voxels."""

    base_depth: float
    dip_amplitude: float = 0.0
    dip_sigma: float = 0.0
    wave_amplitude: float = 0.0
    wave_cycles: float = 1.5

    def render(self, nx: int, ny: int) -> np.ndarray:
        x = np.arange(nx, dtype=np.float64)[:, None]
        y = np.arange(ny, dtype=np.float64)[None, :]
        z = np.full((nx, ny), float(self.base_depth))
        if self.dip_amplitude != 0.0 and self.dip_sigma > 0.0:
            cx = (nx - 1) / 2.0
            cy = (ny - 1) / 2.0
            r2 = (x - cx) ** 2 + (y - cy) ** 2
            z = z + self.dip_amplitude * np.exp(-r2 / (2.0 * self.dip_sigma**2))
        if self.wave_amplitude != 0.0:
            z = z + self.wave_amplitude * np.sin(
                2.0 * np.pi * self.wave_cycles * x / nx
            ) * np.cos(2.0 * np.pi * self.wave_cycles * y / max(ny, 2))
        return z


@dataclass(frozen=True)
class LesionSpec(Record):
    """Local deformation: IS/OS and RPE move by shift * profile(x, y) and the
    gap between the bright bands changes intensity by delta * profile.

    The lateral profile is a Gaussian with sigma = radius / 2, hard-zeroed
    beyond 2 * radius so the lesion has strictly compact support.
    """

    center_x: float
    center_y: float
    radius: float
    surface_shift: float = 0.0
    intensity_delta: float = 0.0

    def check(self):
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")

    def profile(self, nx: int, ny: int) -> np.ndarray:
        x = np.arange(nx, dtype=np.float64)[:, None]
        y = np.arange(ny, dtype=np.float64)[None, :]
        d2 = (x - self.center_x) ** 2 + (y - self.center_y) ** 2
        sigma = self.radius / 2.0
        prof = np.exp(-d2 / (2.0 * sigma**2))
        prof[d2 > (2.0 * self.radius) ** 2] = 0.0
        return prof


@dataclass(frozen=True)
class LayerIntensities(Record):
    """Mean reflectance per layer, all in [0, 1].  The gap between the
    IS/OS and RPE bands reuses the inner-retina level."""

    vitreous: float = 0.05
    inner_retina: float = 0.40
    isos_band: float = 0.75
    rpe_band: float = 0.90
    choroid: float = 0.20

    def check(self):
        for name, v in asdict(self).items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"intensity {name}={v} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruth:
    """The three exact interface surfaces (no holes)."""

    ilm: Surface
    isos: Surface
    rpe: Surface

    def as_dict(self) -> dict[str, Surface]:
        return {"ilm": self.ilm, "isos": self.isos, "rpe": self.rpe}


@dataclass(frozen=True)
class PhantomSpec(Record):
    _label = "phantom spec"

    dims: tuple[int, int, int]
    ilm: SurfaceSpec
    isos: SurfaceSpec
    rpe: SurfaceSpec
    intensities: LayerIntensities = field(default_factory=LayerIntensities)
    isos_band_thickness: float = 4.0
    rpe_band_thickness: float = 4.0
    speckle_looks: float | None = None
    seed: int = 0
    lesion: LesionSpec | None = None
    dtype: str = "u8"

    def check(self):
        VolumeMeta(dims=self.dims, dtype=self.dtype)  # the sidecar it is written with
        if self.dims[2] < 8:
            raise ValueError(f"need at least 8 depth planes, got {self.dims[2]}")
        if self.isos_band_thickness < 1 or self.rpe_band_thickness < 1:
            raise ValueError("band thicknesses must be >= 1 voxel")
        if self.speckle_looks is not None and self.speckle_looks < 1:
            raise ValueError(f"speckle looks must be >= 1, got {self.speckle_looks}")

    @classmethod
    def default(
        cls,
        dims: tuple[int, int, int] = (300, 99, 480),
        seed: int = 0,
        speckle_looks: float | None = None,
        with_lesion: bool = False,
    ) -> "PhantomSpec":
        """A plausibly retina-shaped phantom scaled to the given dims."""
        nx, ny, nz = dims
        wave = 0.01 * nz
        lesion = None
        if with_lesion:
            lesion = LesionSpec(
                center_x=0.72 * nx,
                center_y=0.50 * ny,
                radius=max(3.0, 0.09 * nx),
                surface_shift=-0.035 * nz,
                intensity_delta=-0.25,
            )
        return cls(
            dims=tuple(dims),
            ilm=SurfaceSpec(
                base_depth=0.24 * nz,
                dip_amplitude=0.06 * nz,
                dip_sigma=0.10 * nx,
                wave_amplitude=wave,
            ),
            isos=SurfaceSpec(base_depth=0.42 * nz, wave_amplitude=wave),
            rpe=SurfaceSpec(base_depth=0.55 * nz, wave_amplitude=wave),
            isos_band_thickness=max(3, round(nz / 120)),
            rpe_band_thickness=max(3, round(nz / 120)),
            speckle_looks=speckle_looks,
            seed=seed,
            lesion=lesion,
        )

    # -- geometry -----------------------------------------------------------

    def truth_surfaces(self) -> GroundTruth:
        nx, ny, _ = self.dims
        ilm = self.ilm.render(nx, ny)
        isos = self.isos.render(nx, ny)
        rpe = self.rpe.render(nx, ny)
        if self.lesion is not None:
            bump = self.lesion.surface_shift * self.lesion.profile(nx, ny)
            isos = isos + bump
            rpe = rpe + bump
        self._validate_geometry(ilm, isos, rpe)
        return GroundTruth(
            ilm=Surface.full(ilm), isos=Surface.full(isos), rpe=Surface.full(rpe)
        )

    def _validate_geometry(self, ilm, isos, rpe) -> None:
        nz = self.dims[2]
        if ilm.min() < 1.0:
            raise ValueError("ILM must stay at least 1 voxel below the top face")
        if rpe.max() > nz - 1.0:
            raise ValueError("RPE must stay above the bottom face")
        if not (ilm < isos).all():
            raise ValueError("interfaces must satisfy ILM < IS/OS everywhere")
        gap = (rpe - self.rpe_band_thickness) - (isos + self.isos_band_thickness)
        if gap.min() < 0.0:
            raise ValueError("IS/OS and RPE bands overlap; increase separation")


def generate_phantom(spec: PhantomSpec) -> tuple[Volume, GroundTruth]:
    """Render the layered volume and its exact interfaces.

    A voxel at integer depth k belongs to the layer whose half-open depth
    interval contains it, so an interface at z=100.0 puts its first deeper
    voxel at k=100.  Same spec (including seed) means bitwise-identical
    output.
    """
    truth = spec.truth_surfaces()
    nx, ny, nz = spec.dims
    lay = spec.intensities
    k = np.arange(nz, dtype=np.float64)[None, None, :]
    ilm = truth.ilm.z[:, :, None]
    isos = truth.isos.z[:, :, None]
    rpe = truth.rpe.z[:, :, None]

    gap_value = np.full((nx, ny, 1), lay.inner_retina)
    if spec.lesion is not None:
        gap_value = gap_value + (
            spec.lesion.intensity_delta * spec.lesion.profile(nx, ny)[:, :, None]
        )

    data = np.select(
        [
            k < ilm,
            k < isos,
            k < isos + spec.isos_band_thickness,
            k < rpe - spec.rpe_band_thickness,
            k < rpe,
        ],
        [
            np.float64(lay.vitreous),
            np.float64(lay.inner_retina),
            np.float64(lay.isos_band),
            gap_value,
            np.float64(lay.rpe_band),
        ],
        default=np.float64(lay.choroid),
    )
    data = np.clip(data, 0.0, 1.0).astype(np.float32)
    volume = Volume(data)
    if spec.speckle_looks is not None:
        volume = add_speckle(volume, spec.speckle_looks, spec.seed)
    return volume, truth


def add_speckle(volume: Volume, looks: float, seed: int = 0) -> Volume:
    """Multiply by unit-mean Gamma noise (shape L, scale 1/L), clip to [0, 1].

    Larger L means more effective averaging and weaker speckle; L must be
    at least 1.
    """
    if looks < 1:
        raise ValueError(f"looks must be >= 1, got {looks}")
    rng = np.random.default_rng(seed)
    noise = rng.gamma(shape=float(looks), scale=1.0 / float(looks), size=volume.dims)
    data = np.clip(volume.values() * noise.astype(np.float32), 0.0, 1.0)
    return Volume(data, volume.spacing)


@dataclass(frozen=True, eq=False)
class SurfaceError:
    """Per-column absolute error between an estimate and the truth, and the
    signed mean (estimate minus truth: positive when the estimate is deeper)."""

    abs_diff: np.ndarray
    rms: float
    mean: float
    mean_abs: float
    max_abs: float

    def frac_within(self, tol: float) -> float:
        return float((self.abs_diff <= tol).mean())


def surface_error(estimate: Surface, truth: Surface) -> SurfaceError:
    if estimate.z.shape != truth.z.shape:
        raise ValueError(
            f"surface shapes differ: {estimate.z.shape} vs {truth.z.shape}"
        )
    if not (estimate.valid.all() and truth.valid.all()):
        raise ValueError("surface comparison requires fully valid surfaces")
    diff = estimate.z - truth.z
    return SurfaceError(
        abs_diff=np.abs(diff),
        rms=float(np.sqrt(np.mean(diff**2))),
        mean=float(np.mean(diff)),
        mean_abs=float(np.mean(np.abs(diff))),
        max_abs=float(np.max(np.abs(diff))),
    )
