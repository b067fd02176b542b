"""Command-line interface: workflows, exit codes, environment defaults."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import octseg
from octseg import cli
from octseg.cli import ENV_THREADS, EXIT_OK, EXIT_PIPELINE, EXIT_USAGE, main, run
from octseg.phantom import PhantomSpec, generate_phantom, surface_error
from octseg.render import draw_bscan, write_ppm
from octseg.surfaces import Surface, load_surface, save_surface
from octseg.volume import VolumeMeta, save_volume
from reference import FLAT_CASES, read_volume


@pytest.fixture()
def phantom_dir(tmp_path):
    """Generate a small speckled phantom through the CLI itself."""
    spec = PhantomSpec.default(dims=(48, 12, 96), seed=1, speckle_looks=4)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec.to_dict()))
    out = tmp_path / "ph"
    assert main(["phantom", "--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
    return out


class TestPhantomCmd:
    def test_outputs_exist_with_declared_size(self, phantom_dir):
        meta = VolumeMeta.from_json(phantom_dir / "volume.json")
        assert (phantom_dir / "volume.raw").stat().st_size == meta.nbytes
        assert meta.dims == (48, 12, 96)
        for name in ("ilm", "isos", "rpe"):
            s = load_surface(phantom_dir / f"truth_{name}.csv")
            assert s.valid.all()

    def test_same_spec_is_reproducible(self, tmp_path):
        spec = PhantomSpec.default(dims=(32, 8, 64), seed=9, speckle_looks=1)
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec.to_dict()))
        main(["phantom", "--spec", str(p), "--out", str(tmp_path / "a")])
        main(["phantom", "--spec", str(p), "--out", str(tmp_path / "b")])
        assert (tmp_path / "a/volume.raw").read_bytes() == (tmp_path / "b/volume.raw").read_bytes()

    def test_invalid_geometry_is_usage_error(self, tmp_path):
        spec = PhantomSpec.default(dims=(32, 8, 64)).to_dict()
        spec["ilm"]["base_depth"] = 60.0
        spec["isos"]["base_depth"] = 20.0  # above the ILM: rejected
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        assert main(["phantom", "--spec", str(p), "--out", str(tmp_path / "x")]) == EXIT_USAGE

    def test_unknown_key_is_usage_error(self, tmp_path):
        d = PhantomSpec.default(dims=(32, 8, 64)).to_dict()
        d["glitter"] = 1
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(d))
        assert main(["phantom", "--spec", str(p), "--out", str(tmp_path / "x")]) == EXIT_USAGE

    @pytest.mark.parametrize("key,value", [
        ("dims", 5), ("dims", [32.5, 8, 64]), ("seed", "a"), ("speckle_looks", "x"),
        ("isos_band_thickness", "3"), ("lesion", 5), ("ilm", 3),
        ("isos_band_thickness", float("nan")), ("speckle_looks", float("inf")),
    ])
    def test_mistyped_entry_is_usage_error(self, tmp_path, capsys, key, value):
        d = PhantomSpec.default(dims=(32, 8, 64), speckle_looks=2).to_dict()
        d[key] = value
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(d))
        assert main(["phantom", "--spec", str(p), "--out", str(tmp_path / "x")]) == EXIT_USAGE
        assert key in capsys.readouterr().err


class TestSegmentCmd:
    def test_full_run_outputs(self, phantom_dir, tmp_path):
        out = tmp_path / "seg"
        rc = main([
            "segment", "--in", str(phantom_dir / "volume.raw"),
            "--meta", str(phantom_dir / "volume.json"),
            "--out-dir", str(out), "--threads", "1",
        ])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["dims"] == [48, 12, 96]
        assert report["threads"] == 1
        assert len(report["boundaries"]) == 3
        for b in report["boundaries"]:
            assert b["enhance_passes"] == 1
            assert b["argmax_passes"] == 1
            assert b["wall_s"] > 0
            assert "stage_s" in b
        surfaces = {k: load_surface(out / f"{k}.csv") for k in ("ilm", "isos", "rpe")}
        assert (surfaces["ilm"].z <= surfaces["isos"].z).all()
        assert (surfaces["isos"].z <= surfaces["rpe"].z).all()

    def test_report_records_how_far_each_stage_raised_the_peak(self, tmp_path):
        # RPE's fields of a 96x24x160 u8 phantom take more than the start-up
        # peak of a fresh process.  Linux folds the peak of the address space
        # a process leaves at exec into its ru_maxrss, and a vfork child
        # leaves its parent's, so the segment child is spawned from a small
        # Python process rather than from this one
        vol, _ = generate_phantom(PhantomSpec.default(dims=(96, 24, 160), speckle_looks=4))
        save_volume(vol, tmp_path / "v.raw", dtype="u8")
        hop = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
        p = subprocess.run([sys.executable, "-c", hop, sys.executable, "-m", "octseg", "segment",
                            "--in", str(tmp_path / "v.raw"), "--meta", str(tmp_path / "v.raw.json"),
                            "--out-dir", str(tmp_path / "seg")],
                           env=env, capture_output=True, text=True, timeout=300)
        assert p.returncode == EXIT_OK, p.stderr
        report = json.loads((tmp_path / "seg/report.json").read_text())
        for b in report["boundaries"]:
            assert list(b["stage_peak_rise_mb"]) == list(b["stage_s"])
            assert all(v >= 0 for v in b["stage_peak_rise_mb"].values())
        assert report["boundaries"][0]["name"] == "RPE"
        assert report["boundaries"][0]["stage_peak_rise_mb"]["filters"] > 0

    def test_threads_do_not_change_bytes(self, phantom_dir, tmp_path):
        outs = []
        for threads in ("1", "3"):
            out = tmp_path / f"seg{threads}"
            main(["segment", "--in", str(phantom_dir / "volume.raw"),
                  "--meta", str(phantom_dir / "volume.json"),
                  "--out-dir", str(out), "--threads", threads])
            outs.append(out)
        for name in ("ilm.csv", "isos.csv", "rpe.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_missing_sidecar_is_usage_error(self, phantom_dir, tmp_path):
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "nope.json"),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    def test_truncated_volume_is_usage_error(self, phantom_dir, tmp_path):
        clipped = tmp_path / "short.raw"
        clipped.write_bytes((phantom_dir / "volume.raw").read_bytes()[:-10])
        rc = main(["segment", "--in", str(clipped),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_volume_truncated_after_opening_is_usage_error_naming_it(
            self, phantom_dir, tmp_path, capsys, monkeypatch, threads):
        # the filter passes read the file an x-slab at a time, so a file cut
        # short after it was opened fails the first read that misses bytes
        raw = tmp_path / "v.raw"
        raw.write_bytes((phantom_dir / "volume.raw").read_bytes())
        opened = cli.open_volume

        def open_then_truncate(path, meta):
            volume = opened(path, meta)
            with open(path, "r+b") as f:
                f.truncate(meta.nbytes // 2)
            return volume

        monkeypatch.setattr(cli, "open_volume", open_then_truncate)
        rc = main(["segment", "--in", str(raw), "--meta", str(phantom_dir / "volume.json"),
                   "--out-dir", str(tmp_path / "seg"), "--threads", threads])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {raw}: the file changed after it was opened: ")
        assert err.count("\n") == 1

    def test_constant_volume_is_pipeline_error(self, tmp_path, capsys):
        raw = tmp_path / "flat.raw"
        raw.write_bytes(bytes([77]) * (24 * 12 * 40))
        VolumeMeta(dims=(24, 12, 40), dtype="u8", order="xyz").save(tmp_path / "flat.json")
        rc = main(["segment", "--in", str(raw), "--meta", str(tmp_path / "flat.json"),
                   "--out-dir", str(tmp_path / "seg")])
        assert rc == EXIT_PIPELINE
        assert capsys.readouterr().err.endswith("segmentation degenerate: RPE, IS/OS, ILM\n")
        # the run report still lands, flagged degenerate
        report = json.loads((tmp_path / "seg/report.json").read_text())
        assert report["degenerate"] is True
        # and each degenerate boundary is written with every cell invalid,
        # so no later step reads its depths as found
        assert all(b["degenerate"] for b in report["boundaries"])
        for name in ("ilm", "isos", "rpe"):
            rows = np.loadtxt(tmp_path / f"seg/{name}.csv", delimiter=",", skiprows=1)
            assert rows.shape == (24 * 12, 4)
            assert (rows[:, 3] == 0).all() and np.isnan(rows[:, 2]).all()
        rc = main(["thickness", "--ilm", str(tmp_path / "seg/ilm.csv"),
                   "--rpe", str(tmp_path / "seg/rpe.csv"), "--out", str(tmp_path / "t")])
        assert rc == EXIT_USAGE
        assert "thickness needs total surfaces" in capsys.readouterr().err

    @pytest.mark.parametrize("key,clearance,name", [
        ("isos_clearance", 500, "IS/OS"),
        ("isos_clearance", 10**30, "IS/OS"),
        ("ilm_clearance", 2**63, "ILM"),
    ], ids=["500", "1e30", "2**63"])
    def test_empty_search_window_is_pipeline_error(self, phantom_dir, tmp_path, capsys,
                                                   key, clearance, name):
        # a clearance deeper than the volume leaves no window above the
        # surface before, however far past int64 it goes
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: clearance}))
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert err == f"error: {name}: stage 'filters': search mask has no non-empty window\n"

    @pytest.mark.parametrize("case", sorted(FLAT_CASES))
    def test_flat_parts_named_on_stderr_without_warnings(self, tmp_path, case):
        # one line per boundary with a flat part, from the report, and no
        # Python warning even when warnings are errors
        samples, flats = FLAT_CASES[case]
        samples.tofile(tmp_path / "v.raw")
        VolumeMeta(dims=samples.shape, dtype="u8", order="xyz").save(tmp_path / "v.json")
        env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
        p = subprocess.run([sys.executable, "-W", "error", "-m", "octseg", "segment",
                            "--in", str(tmp_path / "v.raw"), "--meta", str(tmp_path / "v.json"),
                            "--out-dir", str(tmp_path / "seg")],
                           env=env, capture_output=True, text=True, timeout=300)
        names = ["RPE", "IS/OS", "ILM"]
        expected = [f"{n}: flat over its search window: {', '.join(f)}"
                    for n, f in zip(names, flats) if f]
        degenerate = [n for n, f in zip(names, flats) if "score" in f]
        if degenerate:
            expected.append(f"segmentation degenerate: {', '.join(degenerate)}")
        assert p.stderr.splitlines() == expected
        assert p.returncode == (EXIT_PIPELINE if degenerate else EXIT_OK)
        report = json.loads((tmp_path / "seg/report.json").read_text())
        assert [b["flat"] for b in report["boundaries"]] == flats
        assert [b["degenerate"] for b in report["boundaries"]] == [n in degenerate for n in names]

    @pytest.mark.filterwarnings("error")
    def test_f32_range_wider_than_float32_segments(self, tmp_path):
        # the phantom spread over about +-3e38: a range that float32 cannot
        # hold is still scaled exactly, with no overflow to NaN
        spec = PhantomSpec.default(dims=(48, 12, 96), speckle_looks=4)
        vol, truth = generate_phantom(spec)
        v = vol.data.astype(np.float64)
        v = (v - v.min()) / (v.max() - v.min()) * 6e38 - 3e38
        v.astype("<f4").tofile(tmp_path / "v.raw")
        VolumeMeta(dims=(48, 12, 96), dtype="f32", order="xyz").save(tmp_path / "v.json")
        rc = main(["segment", "--in", str(tmp_path / "v.raw"), "--meta", str(tmp_path / "v.json"),
                   "--out-dir", str(tmp_path / "seg")])
        assert rc == EXIT_OK
        for name in ("ilm", "isos", "rpe"):
            found = load_surface(tmp_path / f"seg/{name}.csv")
            assert surface_error(found, getattr(truth, name)).rms <= 2.0

    def test_non_finite_voxel_is_usage_error(self, tmp_path, capsys):
        data = np.random.default_rng(0).random((64, 16, 128), dtype=np.float32)
        data[10, 3, 77] = np.nan
        data.astype("<f4").tofile(tmp_path / "v.raw")
        VolumeMeta(dims=(64, 16, 128), dtype="f32", order="xyz").save(tmp_path / "v.json")
        rc = main(["segment", "--in", str(tmp_path / "v.raw"), "--meta", str(tmp_path / "v.json"),
                   "--out-dir", str(tmp_path / "seg")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "1 non-finite voxel(s), first at (x, y, z) = (10, 3, 77)" in err
        assert not (tmp_path / "seg/report.json").exists()

    def test_volume_smaller_than_a_kernel_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "v.raw").write_bytes(bytes(range(96)))
        VolumeMeta(dims=(4, 4, 6), dtype="u8", order="xyz").save(tmp_path / "v.json")
        rc = main(["segment", "--in", str(tmp_path / "v.raw"), "--meta", str(tmp_path / "v.json"),
                   "--out-dir", str(tmp_path / "seg")])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "RPE: kernel extent 11 exceeds volume size 6 along z" in err
        assert not (tmp_path / "seg/report.json").exists()

    def test_kernel_too_long_for_any_volume_is_usage_error(self, phantom_dir, tmp_path):
        # its 2**41 + 1 depth taps are never built: only sizes are compared
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rpe": {"derivative_half_width": 2**40}}))
        env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
        p = subprocess.run([sys.executable, "-m", "octseg", "segment",
                            "--in", str(phantom_dir / "volume.raw"),
                            "--meta", str(phantom_dir / "volume.json"),
                            "--config", str(cfg), "--out-dir", str(tmp_path / "x")],
                           env=env, capture_output=True, text=True, timeout=300)
        assert p.returncode == EXIT_USAGE
        assert f"RPE: kernel extent {2**41 + 1} exceeds volume size 96 along z" in p.stderr
        assert "Traceback" not in p.stderr
        assert not (tmp_path / "x/report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("dims", 5), ("dims", [8.7, 8, 16]), ("dims", [True, 8, 16]),
        ("spacing_um", 3), ("spacing_um", [1.0, "2", 3.0]), ("order", 5),
    ])
    def test_sidecar_type_error_is_usage_error(self, tmp_path, capsys, key, value):
        (tmp_path / "v.raw").write_bytes(bytes(8 * 8 * 16))
        sidecar = {"dims": [8, 8, 16], "dtype": "u8", "order": "xyz", key: value}
        (tmp_path / "v.json").write_text(json.dumps(sidecar))
        rc = main(["segment", "--in", str(tmp_path / "v.raw"), "--meta", str(tmp_path / "v.json"),
                   "--out-dir", str(tmp_path / "seg")])
        assert rc == EXIT_USAGE
        assert f"error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("derivative_half_width", 2.5), ("lateral_width", 2.5), ("smoothing_radius", True),
        ("outlier_tau", "15"), ("outlier_tau", False), ("name", 7),
    ])
    def test_config_type_error_is_usage_error(self, phantom_dir, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"isos": {field: value}}))
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert f"bad config entry for 'isos': {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "x/report.json").exists()

    @pytest.mark.parametrize("config, message", [
        ({"ilm_clearance": 3.7}, "error: ilm_clearance must be an integer, got 3.7"),
        ({"isos_clearance": -1}, "error: isos_clearance must be >= 0"),
        # a clearance is the cascade's, not a profile's
        ({"rpe": {"truncation_margin": 5}}, "unknown rpe keys: ['truncation_margin']"),
        # the derivative is always clamped
        ({"isos": {"clamp_negative": False}}, "unknown isos keys: ['clamp_negative']"),
    ], ids=["ilm_clearance-3.7", "isos_clearance--1", "rpe-truncation_margin",
            "isos-clamp_negative"])
    def test_bad_or_removed_config_key_is_usage_error(self, phantom_dir, tmp_path, capsys,
                                                      config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x/report.json").exists()

    def test_config_override_echoed(self, phantom_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rpe": {"outlier_tau": 9.0}}))
        out = tmp_path / "seg"
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--config", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["rpe"]["outlier_tau"] == 9.0
        assert report["config"]["ilm"]["outlier_tau"] == 15.0

    def test_bad_config_is_usage_error(self, phantom_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"rpe": {"wavelength": 840}}))
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--config", str(cfg), "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("flags, env, message", [
        (["--config", "cfg.json"], None, "unknown rpe keys: ['wavelength']"),
        (["--threads", "0"], None, "thread count must be >= 1, got 0"),
        ([], "many", f"{ENV_THREADS} must be an integer, got 'many'"),
    ])
    def test_usage_checked_before_the_input_is_opened(self, tmp_path, capsys, monkeypatch,
                                                      flags, env, message):
        # a non-finite f32 input: opening it would read it whole and report
        # its NaN in place of the usage error
        data = np.ones((8, 8, 16), dtype="<f4")
        data[1, 2, 3] = np.nan
        data.tofile(tmp_path / "v.raw")
        VolumeMeta(dims=(8, 8, 16), dtype="f32", order="xyz").save(tmp_path / "v.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"rpe": {"wavelength": 840}}))
        monkeypatch.chdir(tmp_path)
        if env is None:
            monkeypatch.delenv(ENV_THREADS, raising=False)
        else:
            monkeypatch.setenv(ENV_THREADS, env)

        def opened(*args, **kwargs):
            raise AssertionError("open_volume called before the usage checks")

        monkeypatch.setattr(cli, "open_volume", opened)
        rc = main(["segment", "--in", "v.raw", "--meta", "v.json", "--out-dir", "seg", *flags])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "seg").exists()

    def test_f32_surface_format(self, phantom_dir, tmp_path):
        out = tmp_path / "seg"
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--out-dir", str(out), "--format", "f32"])
        assert rc == EXIT_OK
        assert (out / "ilm.f32").stat().st_size == 48 * 12 * 4
        s = load_surface(out / "ilm.f32", fmt="f32", dims=(48, 12))
        assert s.valid.all()

    def test_env_var_sets_default_threads(self, phantom_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "2")
        out = tmp_path / "seg"
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        assert json.loads((out / "report.json").read_text())["threads"] == 2

    def test_bad_env_var_is_usage_error(self, phantom_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "many")
        rc = main(["segment", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--out-dir", str(tmp_path / "x")])
        assert rc == EXIT_USAGE

    def test_cli_flag_beats_env_var(self, phantom_dir, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_THREADS, "7")
        out = tmp_path / "seg"
        main(["segment", "--in", str(phantom_dir / "volume.raw"),
              "--meta", str(phantom_dir / "volume.json"),
              "--out-dir", str(out), "--threads", "1"])
        assert json.loads((out / "report.json").read_text())["threads"] == 1


class TestThicknessCmd:
    def _seg(self, phantom_dir, tmp_path):
        out = tmp_path / "seg"
        main(["segment", "--in", str(phantom_dir / "volume.raw"),
              "--meta", str(phantom_dir / "volume.json"), "--out-dir", str(out)])
        return out

    def test_writes_csv_pgm_sidecar(self, phantom_dir, tmp_path):
        seg = self._seg(phantom_dir, tmp_path)
        prefix = tmp_path / "thick"
        rc = main(["thickness", "--ilm", str(seg / "ilm.csv"),
                   "--rpe", str(seg / "rpe.csv"), "--dz-um", "7.1",
                   "--out", str(prefix)])
        assert rc == EXIT_OK
        csv_lines = (tmp_path / "thick.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "x,y,thickness_px,thickness_um"
        assert len(csv_lines) == 1 + 48 * 12
        assert (tmp_path / "thick.pgm").exists()
        side = json.loads((tmp_path / "thick.pgm.json").read_text())
        assert side["max_thickness_px"] >= side["min_thickness_px"]

    def test_equal_surfaces_zero_map(self, phantom_dir, tmp_path):
        seg = self._seg(phantom_dir, tmp_path)
        rc = main(["thickness", "--ilm", str(seg / "ilm.csv"),
                   "--rpe", str(seg / "ilm.csv"), "--out", str(tmp_path / "z")])
        assert rc == EXIT_OK
        rows = (tmp_path / "z.csv").read_text().strip().split("\n")[1:]
        assert all(r.rsplit(",", 1)[-1] == "0.0" for r in rows)

    def test_dims_mismatch_is_usage_error(self, phantom_dir, tmp_path):
        seg = self._seg(phantom_dir, tmp_path)
        other = PhantomSpec.default(dims=(16, 4, 64))
        sp = tmp_path / "s2.json"
        sp.write_text(json.dumps(other.to_dict()))
        main(["phantom", "--spec", str(sp), "--out", str(tmp_path / "ph2")])
        rc = main(["thickness", "--ilm", str(seg / "ilm.csv"),
                   "--rpe", str(tmp_path / "ph2/truth_rpe.csv"),
                   "--out", str(tmp_path / "bad")])
        assert rc == EXIT_USAGE


    @pytest.mark.parametrize("row", ["0,1,nan,1", "0,1,inf,1", "a,1,1.0,1", "0,1,1.0,7",
                                     "0,9223372036854775807,0.0,0", "0,99999999999999999999,0.0,0",
                                     "9223372036854775808,1,1.0,1"])
    def test_bad_surface_row_is_usage_error(self, tmp_path, capsys, row):
        good = tmp_path / "good.csv"
        good.write_text("x,y,z,valid\n0,0,1.0,1\n0,1,2.0,1\n")
        bad = tmp_path / "bad.csv"
        bad.write_text(f"x,y,z,valid\n0,0,5.0,1\n{row}\n")
        rc = main(["thickness", "--ilm", str(good), "--rpe", str(bad), "--out", str(tmp_path / "t")])
        assert rc == EXIT_USAGE
        assert f"error: {bad}: line 3: " in capsys.readouterr().err
        assert not (tmp_path / "t.pgm.json").exists()

    @pytest.mark.parametrize("dz_um", ["nan", "inf", "0"])
    def test_bad_pitch_is_usage_error(self, tmp_path, capsys, dz_um):
        p = tmp_path / "s.csv"
        p.write_text("x,y,z,valid\n0,0,1.0,1\n")
        rc = main(["thickness", "--ilm", str(p), "--rpe", str(p), "--dz-um", dz_um,
                   "--out", str(tmp_path / "t")])
        assert rc == EXIT_USAGE
        assert "dz_um must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()


class TestJsonInputErrors:
    """Every JSON input fails with one line that names the file or the entry."""

    def _run(self, phantom_dir, tmp_path, flag, path):
        out = str(tmp_path / "out")
        if flag == "--spec":
            return main(["phantom", "--spec", str(path), "--out", out])
        meta = path if flag == "--meta" else phantom_dir / "volume.json"
        config = ["--config", str(path)] if flag == "--config" else []
        return main(["segment", "--in", str(phantom_dir / "volume.raw"), "--meta", str(meta),
                     *config, "--out-dir", out])

    @pytest.mark.parametrize("flag", ["--meta", "--config", "--spec"])
    def test_truncated_json_names_the_file(self, phantom_dir, tmp_path, capsys, flag):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dims": ')
        assert self._run(phantom_dir, tmp_path, flag, bad) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not valid JSON" in err and str(bad) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, entry", [("--spec", "lesion"), ("--config", "rpe")])
    def test_unknown_nested_key_names_the_entry(self, phantom_dir, tmp_path, capsys, flag, entry):
        if flag == "--spec":
            d = PhantomSpec.default(dims=(32, 8, 64), with_lesion=True).to_dict()
            d["lesion"]["bogus"] = 1
        else:
            d = {"rpe": {"bogus": 1}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(d))
        assert self._run(phantom_dir, tmp_path, flag, bad) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"entry for '{entry}': unknown {entry} keys: ['bogus']" in err
        assert "__init__()" not in err


class TestRenderCmd:
    def test_writes_ppm_with_volume_dims(self, phantom_dir, tmp_path):
        seg = tmp_path / "seg"
        main(["segment", "--in", str(phantom_dir / "volume.raw"),
              "--meta", str(phantom_dir / "volume.json"), "--out-dir", str(seg)])
        out = tmp_path / "b.ppm"
        rc = main(["render", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--surfaces", str(seg), "--slice", "6", "--out", str(out)])
        assert rc == EXIT_OK
        header = out.read_bytes()[:20]
        assert header.startswith(b"P6\n48 96\n")  # cols=nx, rows=nz

    @pytest.mark.parametrize("dtype, order", [("u8", "xyz"), ("u8", "zxy"), ("u8", "yzx"),
                                              ("f32", "zxy")])
    def test_ppm_equal_to_a_render_of_the_whole_volume(self, phantom_dir, tmp_path, dtype, order):
        # u8 files are read one B-scan's samples at a time, f32 files whole
        seg = tmp_path / "seg"
        main(["segment", "--in", str(phantom_dir / "volume.raw"),
              "--meta", str(phantom_dir / "volume.json"), "--out-dir", str(seg)])
        data = read_volume(phantom_dir / "volume.raw",
                           VolumeMeta.from_json(phantom_dir / "volume.json")).values()
        perm = tuple("xyz".index(ax) for ax in order)
        samples = np.rint(data * 255).astype("u1") if dtype == "u8" else data * 2 - 0.5
        raw, meta = tmp_path / "v.raw", tmp_path / "v.json"
        np.ascontiguousarray(samples.transpose(perm)).tofile(raw)
        VolumeMeta(dims=tuple(data.shape[p] for p in perm), dtype=dtype, order=order).save(meta)
        surfaces = {name: load_surface(seg / f"{name}.csv") for name in ("ilm", "isos", "rpe")}
        for y in (0, 5, 11):
            out = tmp_path / f"b{y}.ppm"
            assert main(["render", "--in", str(raw), "--meta", str(meta), "--surfaces", str(seg),
                         "--slice", str(y), "--out", str(out)]) == EXIT_OK
            volume = read_volume(raw, VolumeMeta.from_json(meta))
            write_ppm(draw_bscan(volume.values(np.s_[:, y, :]), volume.ny, surfaces, y),
                      tmp_path / "ref.ppm")
            assert out.read_bytes() == (tmp_path / "ref.ppm").read_bytes()

    def test_out_of_range_slice_is_usage_error(self, phantom_dir, tmp_path):
        seg = tmp_path / "seg"
        main(["segment", "--in", str(phantom_dir / "volume.raw"),
              "--meta", str(phantom_dir / "volume.json"), "--out-dir", str(seg)])
        rc = main(["render", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--surfaces", str(seg), "--slice", "99",
                   "--out", str(tmp_path / "b.ppm")])
        assert rc == EXIT_USAGE

    def test_no_surfaces_found_is_usage_error(self, phantom_dir, tmp_path):
        rc = main(["render", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--surfaces", str(tmp_path), "--slice", "0",
                   "--out", str(tmp_path / "b.ppm")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("grid", [(20, 12), (60, 12), (48, 5)],
                             ids=["narrower", "wider", "fewer-bscans"])
    def test_surface_grid_unlike_the_volume_is_usage_error(self, phantom_dir, tmp_path,
                                                           capsys, grid):
        save_surface(Surface.full(np.full(grid, 30.0)), tmp_path / "ilm.csv")
        out = tmp_path / "b.ppm"
        rc = main(["render", "--in", str(phantom_dir / "volume.raw"),
                   "--meta", str(phantom_dir / "volume.json"),
                   "--surfaces", str(tmp_path), "--slice", "3", "--out", str(out)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: surface 'ilm' grid {grid} does not match the volume's "
                       "(nx, ny) = (48, 12)\n")
        assert not out.exists()


def test_no_command_imports_scipy(phantom_dir, tmp_path):
    """segment, thickness and render run on numpy alone: scipy stays unloaded."""
    seg = tmp_path / "seg"
    vol = ["--in", str(phantom_dir / "volume.raw"), "--meta", str(phantom_dir / "volume.json")]
    commands = [
        ["segment", *vol, "--out-dir", str(seg), "--threads", "2"],
        ["thickness", "--ilm", str(seg / "ilm.csv"), "--rpe", str(seg / "rpe.csv"),
         "--out", str(tmp_path / "thick")],
        ["render", *vol, "--surfaces", str(seg), "--slice", "3", "--out", str(tmp_path / "b.ppm")],
    ]
    code = (
        "import json, sys\n"
        "from octseg.cli import main\n"
        "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
    p = subprocess.run([sys.executable, "-c", code, json.dumps(commands)], env=env,
                       capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    codes, scipy_modules = json.loads(p.stdout.strip().splitlines()[-1])
    assert codes == [EXIT_OK] * 3
    assert scipy_modules == []


def test_cli_import_loads_only_what_segment_runs():
    """``import octseg.cli`` leaves the phantom, analysis and render modules
    and the thread pool unloaded; the package's public names resolve on use,
    and ``octseg.enhance`` is the module, not a function of that name."""
    unused = ["octseg.phantom", "octseg.analysis", "octseg.render", "concurrent.futures"]
    code = (
        "import json, sys\n"
        "import octseg.cli\n"
        f"loaded = [m for m in {unused!r} if m in sys.modules]\n"
        "import octseg\n"
        "missing = [n for n in octseg.__all__ if getattr(octseg, n, None) is None]\n"
        "print(json.dumps([loaded, missing, octseg.enhance is sys.modules['octseg.enhance']]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                       timeout=120)
    assert p.returncode == 0, p.stderr
    assert json.loads(p.stdout.strip().splitlines()[-1]) == [[], [], True]


class TestEntryPoint:
    """``python -m octseg`` and the ``octseg`` script run ``cli.run``: it
    returns what ``main`` returns, with the heap frozen for the exit."""

    def test_module_exits_with_the_commands_code(self, phantom_dir, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
        vol = ["--in", str(phantom_dir / "volume.raw"), "--out-dir", str(tmp_path / "seg")]
        for meta, code in (("nope.json", EXIT_USAGE), ("volume.json", EXIT_OK)):
            p = subprocess.run([sys.executable, "-m", "octseg", "segment", *vol,
                                "--meta", str(phantom_dir / meta)],
                               env=env, capture_output=True, text=True, timeout=300)
            assert p.returncode == code, p.stderr
        assert load_surface(tmp_path / "seg" / "rpe.csv").valid.all()

    def test_run_freezes_the_heap(self, tmp_path):
        try:
            assert run(["render", "--in", "v.raw", "--meta", str(tmp_path / "nope.json"),
                        "--surfaces", str(tmp_path), "--slice", "0",
                        "--out", str(tmp_path / "b.ppm")]) == EXIT_USAGE
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_console_script_is_run(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        pyproject = Path(octseg.__file__).resolve().parents[2] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"octseg": "octseg.cli:run"}


class TestBlasPin:
    """``import octseg`` loads numpy with OpenBLAS pinned to one thread and
    leaves ``os.environ`` as it found it; each case runs in a fresh child."""

    # os.environ becomes a dict that records writes: octseg must make none
    WATCH = (
        "writes = []\n"
        "class Watched(dict):\n"
        "    def __setitem__(self, key, value):\n"
        "        writes.append(key)\n"
        "        super().__setitem__(key, value)\n"
        "before = dict(os.environ)\n"
        "os.environ = Watched(before)\n"
    )

    def run_child(self, code, **env_vars):
        env = dict(os.environ, PYTHONPATH=str(Path(octseg.__file__).resolve().parents[1]))
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            env.pop(name, None)
        env.update(env_vars)
        p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        return json.loads(p.stdout.strip().splitlines()[-1])

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                        reason="counts the process's threads in /proc/self/task")
    def test_import_leaves_one_thread_and_no_variable(self):
        code = (
            "import json, os\n"
            "before = dict(os.environ)\n"
            "import octseg\n"
            "print(json.dumps([len(os.listdir('/proc/self/task')),\n"
            "                  'OPENBLAS_NUM_THREADS' in os.environ, dict(os.environ) == before]))\n"
        )
        assert self.run_child(code) == [1, False, True]

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_user_thread_count_is_kept(self, name):
        # OpenBLAS reads any of the three, so a count set in one of them
        # is the user's and the pin stays off
        code = (
            "import json, os\n" + self.WATCH + "import octseg\n"
            f"print(json.dumps([writes, os.environ[{name!r}]]))\n"
        )
        assert self.run_child(code, **{name: "2"}) == [[], "2"]

    def test_numpy_loaded_first_leaves_environ_alone(self):
        code = (
            "import json, os\nimport numpy\n" + self.WATCH + "import octseg\n"
            "print(json.dumps([writes, dict(os.environ) == before]))\n"
        )
        assert self.run_child(code) == [[], True]


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["segment", "--in", "x.raw"])
        assert exc.value.code == 2
