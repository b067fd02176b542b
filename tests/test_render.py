"""B-scan rasterization and PPM round-trips."""

import re

import numpy as np
import pytest

from octseg.render import BOUNDARY_COLORS, draw_bscan, write_ppm
from octseg.surfaces import Surface
from octseg.volume import Volume
from reference import read_ppm


def draw_slice(volume, surfaces, slice_index):
    """``draw_bscan`` of one B-scan of a volume, as the demo script calls it."""
    return draw_bscan(volume.values(np.s_[:, slice_index, :]), volume.ny, surfaces, slice_index)


def gradient_volume(nx=16, ny=4, nz=32):
    k = np.linspace(0.0, 1.0, nz, dtype=np.float32)
    return Volume(np.broadcast_to(k, (nx, ny, nz)).copy())


class TestRender:
    def test_shape_and_gray_base(self):
        vol = gradient_volume()
        img = draw_slice(vol, {}, slice_index=1)
        assert img.shape == (32, 16, 3)
        assert img.dtype == np.uint8
        # grayscale: all channels equal, darker at the top
        assert (img[:, :, 0] == img[:, :, 1]).all()
        assert img[0, 0, 0] < img[-1, 0, 0]

    def test_flat_surface_draws_colored_row(self):
        vol = gradient_volume()
        surf = Surface.full(np.full((16, 4), 10.0))
        img = draw_slice(vol, {"rpe": surf}, slice_index=2)
        assert (img[10, :, :] == np.array(BOUNDARY_COLORS["rpe"], np.uint8)).all()
        # neighboring rows keep the gray base
        assert (img[12, :, 0] == img[12, :, 1]).all()

    def test_steep_surface_drawn_connected(self):
        vol = gradient_volume(nx=4, ny=2, nz=40)
        z = np.tile(np.array([5.0, 25.0, 25.0, 5.0])[:, None], (1, 2))
        img = draw_slice(vol, {"ilm": z_surface(z)}, slice_index=0)
        col = np.array(BOUNDARY_COLORS["ilm"], np.uint8)
        # the jump between x=0 (row 5) and x=1 (row 25) is bridged at x=1
        between = img[6:25, 1]
        assert (between == col).all(axis=1).all()

    def test_invalid_cells_not_drawn(self):
        vol = gradient_volume()
        z = np.full((16, 4), 8.0)
        z[5, 1] = np.nan
        surf = Surface(z)
        img = draw_slice(vol, {"isos": surf}, slice_index=1)
        col = np.array(BOUNDARY_COLORS["isos"], np.uint8)
        assert not (img[8, 5] == col).all()
        assert (img[8, 4] == col).all()

    def test_out_of_range_slice_rejected(self):
        bscan = gradient_volume().values(np.s_[:, 0, :])
        with pytest.raises(ValueError):
            draw_bscan(bscan, 4, {}, slice_index=4)
        with pytest.raises(ValueError):
            draw_bscan(bscan, 4, {}, slice_index=-1)

    @pytest.mark.parametrize("slice_index", [-1, 3])
    def test_draw_bscan_checks_the_slice_itself(self, slice_index):
        # -1 would draw B-scan 2's surfaces, and 3 would index past them
        bscan = np.zeros((4, 8), dtype=np.float32)
        surfaces = {"rpe": Surface.full(np.full((4, 3), 5.0))}
        with pytest.raises(ValueError, match=re.escape(f"slice index {slice_index} outside [0, 3)")):
            draw_bscan(bscan, 3, surfaces, slice_index)

    @pytest.mark.parametrize("grid", [(8, 4), (17, 4), (16, 3), (16, 5)])
    def test_grid_unlike_the_volume_rejected(self, grid):
        surfaces = {"rpe": Surface.full(np.full((16, 4), 10.0)),
                    "isos": Surface.full(np.full(grid, 10.0))}
        message = f"surface 'isos' grid {grid} does not match the volume's (nx, ny) = (16, 4)"
        with pytest.raises(ValueError, match=re.escape(message)):
            draw_slice(gradient_volume(), surfaces, slice_index=1)

    def test_u8_volume_renders_like_its_float_values(self):
        # every u8 value, and surfaces drawn over them, in both volume forms
        rng = np.random.default_rng(5)
        samples = rng.permutation(np.arange(256, dtype=np.uint8)).reshape(16, 1, 16)
        samples = np.concatenate([samples, rng.integers(0, 256, (16, 3, 16), np.uint8)], axis=1)
        surfaces = {"ilm": z_surface(rng.uniform(0, 15, (16, 4))),
                    "rpe": z_surface(rng.uniform(0, 15, (16, 4)))}
        for y in range(4):
            img = draw_slice(Volume(samples, scale=255), surfaces, slice_index=y)
            ref = draw_slice(Volume(samples.astype(np.float32) / np.float32(255)), surfaces,
                             slice_index=y)
            assert img.tobytes() == ref.tobytes()
        gray = draw_slice(Volume(samples, scale=255), {}, slice_index=0)[:, :, 0]
        assert np.array_equal(gray, samples[:, 0, :].T)

    def test_unknown_surface_name_rejected(self):
        surf = Surface.full(np.full((16, 4), 20.0))
        for name in ("bruch", "ILM"):
            with pytest.raises(ValueError, match=f"no colour for surface '{name}'"):
                draw_slice(gradient_volume(), {name: surf}, slice_index=0)


def z_surface(z):
    return Surface.full(np.asarray(z, dtype=np.float64))


class TestPpm:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(17)
        img = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)
        p = tmp_path / "i.ppm"
        write_ppm(img, p)
        assert np.array_equal(read_ppm(p), img)

    def test_header(self, tmp_path):
        img = np.zeros((3, 5, 3), dtype=np.uint8)
        p = tmp_path / "i.ppm"
        write_ppm(img, p)
        assert p.read_bytes().startswith(b"P6\n5 3\n255\n")

    def test_bad_shape_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(np.zeros((3, 5), dtype=np.uint8), tmp_path / "i.ppm")
