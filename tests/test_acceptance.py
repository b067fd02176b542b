"""Acceptance gate: every shipping criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
Fixtures are module-scoped because several criteria share the same
full-scale runs; everything here goes through the public API or the CLI.
"""

import json
import time

import numpy as np
import pytest

from octseg.cli import main
from octseg.filters import SeparableKernel, convolve_separable
from octseg.phantom import PhantomSpec, generate_phantom, surface_error
from octseg.pipeline import segment_retina
from octseg.surfaces import Surface, load_surface, reject_outliers
from octseg.analysis import thickness_map
from octseg.volume import Volume
from reference import convolve_direct, outer_product

FULL_DIMS = (300, 99, 480)  # clinical-scale grid: 300x99 A-scans, 480 deep
ACC_DIMS = (256, 64, 480)
SMALL_DIMS = (64, 16, 128)
BOUNDARIES = ("ilm", "isos", "rpe")


def report_line(n, label, detail):
    print(f"\nACCEPTANCE {n} ({label}): PASS  [{detail}]")


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Full-scale speckled phantom written and segmented through the CLI."""
    base = tmp_path_factory.mktemp("accept")
    spec = PhantomSpec.default(dims=FULL_DIMS, seed=0, speckle_looks=4)
    (base / "spec.json").write_text(json.dumps(spec.to_dict()))
    assert main(["phantom", "--spec", str(base / "spec.json"), "--out", str(base / "ph")]) == 0

    runs = {}
    for threads in (1, 8):
        out = base / f"seg_t{threads}"
        rc = main([
            "segment",
            "--in", str(base / "ph" / "volume.raw"),
            "--meta", str(base / "ph" / "volume.json"),
            "--out-dir", str(out),
            "--threads", str(threads),
        ])
        assert rc == 0
        runs[threads] = {
            "dir": out,
            "report": json.loads((out / "report.json").read_text()),
        }
    return {"base": base, "runs": runs}


@pytest.fixture(scope="module")
def accuracy_suite():
    """Segmentations vs ground truth across the accuracy matrix.

    Everything runs with the fixed library defaults; no per-case tuning.
    """
    cases = {}

    def run(tag, dims, looks, seed, with_lesion=False):
        spec = PhantomSpec.default(dims=dims, seed=seed, speckle_looks=looks,
                                   with_lesion=with_lesion)
        vol, truth = generate_phantom(spec)
        res = segment_retina(vol)
        errs = {
            key: surface_error(res.surfaces[key], getattr(truth, key))
            for key in BOUNDARIES
        }
        s = res.surfaces
        ordered = bool(
            ((s["ilm"].z <= s["isos"].z) & (s["isos"].z <= s["rpe"].z)).all()
        )
        cases[tag] = {"errs": errs, "ordered": ordered}

    run("noiseless_large", ACC_DIMS, None, 0)
    run("noiseless_small", SMALL_DIMS, None, 0)
    for seed in range(5):
        run(f"L4_seed{seed}", ACC_DIMS, 4, seed)
    for seed in range(5):
        run(f"L1_seed{seed}", ACC_DIMS, 1, seed)
    run("lesion_L4", ACC_DIMS, 4, 0, with_lesion=True)
    return cases


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_runtime(cli_workspace):
    """Per-boundary wall time <= 5 s; full run <= 15 s single-threaded and
    <= 5 s with 8 worker threads, measured from the CLI run reports."""
    rep1 = cli_workspace["runs"][1]["report"]
    rep8 = cli_workspace["runs"][8]["report"]
    per_boundary = {b["name"]: b["wall_s"] for b in rep1["boundaries"]}
    for name, wall in per_boundary.items():
        assert wall <= 5.0, f"{name} took {wall:.2f}s (budget 5s)"
    assert rep1["total_wall_s"] <= 15.0, f"single-thread total {rep1['total_wall_s']:.2f}s"
    assert rep8["total_wall_s"] <= 5.0, f"threaded total {rep8['total_wall_s']:.2f}s"
    report_line(
        1, "runtime",
        f"boundaries {', '.join(f'{k}={v:.2f}s' for k, v in per_boundary.items())}; "
        f"total t1={rep1['total_wall_s']:.2f}s t8={rep8['total_wall_s']:.2f}s",
    )


def test_criterion_2_filter_cross_check():
    """Separable fast path vs the independent dense reference: 50 random
    volume/kernel pairs at dims <= 16^3, max abs difference <= 1e-5,
    comfortably under a 10 s budget."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        dims = tuple(int(rng.integers(4, 17)) for _ in range(3))
        vol = Volume(rng.random(dims))
        taps = [
            rng.uniform(
                -1.0, 1.0,
                size=int(rng.integers(0, min(2, (d - 1) // 2) + 1)) * 2 + 1,
            )
            for d in dims
        ]
        kernel = SeparableKernel(kx=taps[0], ky=taps[1], kz=taps[2])
        fast = convolve_separable(vol, kernel)
        ref = convolve_direct(vol, outer_product(kernel))
        worst = max(worst, float(np.abs(fast.data - ref.data).max()))
        assert worst <= 1e-5, f"routes diverged: {worst:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"cross-check took {elapsed:.1f}s"
    report_line(2, "filter cross-check", f"50 pairs, max diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_noiseless_accuracy(accuracy_suite):
    """Noiseless default phantoms at 256x64x480 and 64x16x128: every
    boundary recovered within 1.0 voxel RMS."""
    details = []
    for tag in ("noiseless_large", "noiseless_small"):
        for key in BOUNDARIES:
            rms = accuracy_suite[tag]["errs"][key].rms
            assert rms <= 1.0, f"{tag}/{key}: rms={rms:.3f}"
            details.append(f"{tag}/{key}={rms:.2f}")
    report_line(3, "noiseless accuracy", "; ".join(details))


def test_criterion_4_speckled_accuracy(accuracy_suite):
    """Speckled phantoms at fixed defaults: L=4 seeds 0-4 within 2.0 voxel
    RMS and >= 99% of columns within 5 voxels; L=1 seeds 0-4 within 3.5
    voxel RMS."""
    worst_l4 = worst_l1 = 0.0
    worst_frac = 1.0
    for seed in range(5):
        for key in BOUNDARIES:
            e4 = accuracy_suite[f"L4_seed{seed}"]["errs"][key]
            assert e4.rms <= 2.0, f"L4 seed{seed}/{key}: rms={e4.rms:.3f}"
            frac = e4.frac_within(5.0)
            assert frac >= 0.99, f"L4 seed{seed}/{key}: within5={frac:.4f}"
            worst_l4 = max(worst_l4, e4.rms)
            worst_frac = min(worst_frac, frac)
            e1 = accuracy_suite[f"L1_seed{seed}"]["errs"][key]
            assert e1.rms <= 3.5, f"L1 seed{seed}/{key}: rms={e1.rms:.3f}"
            worst_l1 = max(worst_l1, e1.rms)
    report_line(
        4, "speckled accuracy",
        f"worst L4 rms={worst_l4:.2f} (within5 {worst_frac:.4f}); worst L1 rms={worst_l1:.2f}",
    )


def test_criterion_5_ordering(accuracy_suite):
    """ILM <= IS/OS <= RPE holds in 100% of columns on every accuracy
    phantom, the lesion phantom included."""
    for tag, case in accuracy_suite.items():
        assert case["ordered"], f"ordering violated on {tag}"
    assert "lesion_L4" in accuracy_suite
    report_line(5, "ordering", f"{len(accuracy_suite)} phantoms, all columns ordered")


def test_criterion_6_single_pass(cli_workspace):
    """The run report proves one enhancement pass and one extraction pass
    per boundary: no iterative refinement anywhere."""
    rep = cli_workspace["runs"][1]["report"]
    for b in rep["boundaries"]:
        assert b["enhance_passes"] == 1, b
        assert b["argmax_passes"] == 1, b
    names = [b["name"] for b in rep["boundaries"]]
    assert names == ["RPE", "IS/OS", "ILM"]
    report_line(6, "single pass", f"counters 1/1 for {', '.join(names)}")


def test_criterion_7_thread_determinism(cli_workspace):
    """Surface files from --threads 1 and --threads 8 are byte-identical."""
    d1 = cli_workspace["runs"][1]["dir"]
    d8 = cli_workspace["runs"][8]["dir"]
    for name in ("ilm.csv", "isos.csv", "rpe.csv"):
        b1 = (d1 / name).read_bytes()
        b8 = (d8 / name).read_bytes()
        assert b1 == b8, f"{name} differs between thread counts"
    report_line(7, "thread determinism", "3 surface files byte-identical (t1 vs t8)")


def test_criterion_8_thickness_identity():
    """thickness_px equals rpe.z - ilm.z exactly, checked exhaustively on a
    64x16 surface pair."""
    rng = np.random.default_rng(88)
    ilm = rng.random((64, 16)) * 200.0
    rpe = ilm + rng.random((64, 16)) * 150.0
    tm = thickness_map(Surface.full(ilm), Surface.full(rpe))
    expected = rpe - ilm
    mismatches = int((tm.px != expected).sum())
    assert mismatches == 0, f"{mismatches} cells differ"
    assert np.array_equal(tm.px, expected)
    report_line(8, "thickness identity", "64x16 exhaustive, 0 mismatches")


def test_criterion_9_outlier_robustness():
    """1% spikes of magnitude 40 on a smooth surface, tolerance 15: at
    least 99% of spiked cells invalidated, and no clean cell's depth is
    modified."""
    rng = np.random.default_rng(99)
    xx, yy = np.meshgrid(np.arange(128), np.arange(96), indexing="ij")
    z = 200.0 + 12.0 * np.sin(2 * np.pi * xx / 128) * np.cos(2 * np.pi * yy / 96)
    n = z.size
    n_spike = int(0.01 * n)
    idx = rng.choice(n, size=n_spike, replace=False)
    signs = rng.choice([-1.0, 1.0], size=n_spike)
    spiked = z.copy()
    spiked.flat[idx] += 40.0 * signs
    spike_mask = np.zeros(z.shape, dtype=bool)
    spike_mask.flat[idx] = True

    out = reject_outliers(Surface.full(spiked), tau=15.0, window=5)

    caught = float((~out.valid[spike_mask]).mean())
    assert caught >= 0.99, f"only {caught:.1%} of spikes invalidated"
    clean_kept = out.valid & ~spike_mask
    modified = int((out.z[clean_kept] != spiked[clean_kept]).sum())
    assert modified == 0, f"{modified} clean cells were modified"
    report_line(
        9, "outlier robustness",
        f"{caught:.1%} of {n_spike} spikes caught, 0 clean cells touched",
    )
