"""Thickness maps and their file outputs."""

import dataclasses
import json

import numpy as np
import pytest

from octseg.analysis import ThicknessMap, save_thickness_csv, save_thickness_pgm, thickness_map
from octseg.surfaces import Surface


class TestThickness:
    def test_difference_in_voxels_and_microns(self):
        ilm = Surface.full(np.full((4, 3), 100.0))
        rpe = Surface.full(np.full((4, 3), 220.0))
        tm = thickness_map(ilm, rpe, dz_um=3400.0 / 480.0)
        assert (tm.px == 120.0).all()
        assert np.allclose(tm.um, 850.0, atol=1e-9)

    def test_exact_identity(self):
        rng = np.random.default_rng(14)
        a = rng.random((64, 16)) * 100
        b = a + rng.random((64, 16)) * 50
        tm = thickness_map(Surface.full(a), Surface.full(b))
        assert np.array_equal(tm.px, b - a)
        assert tm.um is None

    def test_equal_surfaces_zero(self):
        z = np.random.default_rng(15).random((5, 5)) * 80
        tm = thickness_map(Surface.full(z), Surface.full(z.copy()))
        assert np.array_equal(tm.px, np.zeros((5, 5)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            thickness_map(Surface.full(np.zeros((2, 2))), Surface.full(np.zeros((3, 2))))

    def test_partial_surface_rejected(self):
        a = Surface.full(np.zeros((2, 2)))
        b = Surface(np.array([[0.0, np.nan], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            thickness_map(a, b)

    def test_nonpositive_pitch_rejected(self):
        s = Surface.full(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            thickness_map(s, s, dz_um=0.0)

    @pytest.mark.parametrize("dz_um", [float("nan"), float("inf")])
    def test_non_finite_pitch_rejected(self, dz_um):
        s = Surface.full(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dz_um must be positive and finite"):
            thickness_map(s, s, dz_um=dz_um)

    def test_microns_are_voxels_times_the_pitch(self):
        assert [f.name for f in dataclasses.fields(ThicknessMap)] == ["px", "dz_um"]
        px = np.array([[1.5, -0.0], [7.0, 1e300]])
        with np.errstate(over="ignore"):
            assert ThicknessMap(px, 3.9).um.tobytes() == (px * 3.9).tobytes()
        assert ThicknessMap(px).um is None
        for dz_um in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="dz_um must be positive and finite"):
                ThicknessMap(px, dz_um)


class TestThicknessFiles:
    def test_csv_has_both_units(self, tmp_path):
        ilm = Surface.full(np.full((2, 1), 10.0))
        rpe = Surface.full(np.full((2, 1), 30.0))
        tm = thickness_map(ilm, rpe, dz_um=5.0)
        p = tmp_path / "t.csv"
        save_thickness_csv(tm, p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == "x,y,thickness_px,thickness_um"
        assert lines[1] == "0,0,20.0,100.0"

    @pytest.mark.parametrize("with_um", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_csv_bytes_equal_per_cell_reference(self, tmp_path, with_um, dtype):
        rng = np.random.default_rng(3)
        px = (rng.standard_normal((5, 3)) * 1e3).astype(dtype)
        tm = ThicknessMap(px=px, dz_um=np.float32(3.9) if with_um else None)
        p = tmp_path / "t.csv"
        save_thickness_csv(tm, p)
        ref = ["x,y,thickness_px" + (",thickness_um" if with_um else "") + "\n"]
        for y in range(3):
            for x in range(5):
                cells = [float(px[x, y])] + ([float(tm.um[x, y])] if with_um else [])
                ref.append(f"{x},{y}," + ",".join(repr(c) for c in cells) + "\n")
        assert p.read_text() == "".join(ref)

    def test_pgm_scaling_and_sidecar(self, tmp_path):
        px = np.array([[0.0, 50.0], [100.0, 25.0]])
        tm = thickness_map(Surface.full(np.zeros((2, 2))), Surface.full(px))
        p = tmp_path / "t.pgm"
        save_thickness_pgm(tm, p)
        raw = p.read_bytes()
        header, rest = raw.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        img = np.frombuffer(rest, dtype=np.uint8).reshape(2, 2)  # rows y, cols x
        assert img[0, 0] == 0
        assert img[0, 1] == 255
        assert img[1, 0] == 128  # 50/100 rounded half even -> 128
        side = json.loads((tmp_path / "t.pgm.json").read_text())
        assert side["min_thickness_px"] == 0.0
        assert side["max_thickness_px"] == 100.0

    def test_constant_map_renders_black(self, tmp_path):
        tm = thickness_map(Surface.full(np.zeros((3, 2))), Surface.full(np.full((3, 2), 7.0)))
        p = tmp_path / "t.pgm"
        save_thickness_pgm(tm, p)
        rest = p.read_bytes().split(b"255\n", 1)[1]
        assert set(rest) == {0}

