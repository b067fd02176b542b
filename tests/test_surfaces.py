"""Surface extraction, outlier rejection, inpainting, masks, and file formats."""

import csv
import dataclasses
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octseg.surfaces import (
    SearchMask,
    Surface,
    argmax_per_ascan,
    fill_from_neighbors,
    inpaint_and_smooth,
    load_surface,
    reject_outliers,
    save_surface,
    truncate_above_surface,
)
from octseg import surfaces
from octseg.analysis import ThicknessMap, save_thickness_csv
from octseg.enhance import enhance
from octseg.pipeline import BoundaryProfile
from octseg.volume import Volume
from reference import fill_sweeps


def column_volume(*profiles):
    """Stack 1D depth profiles into an (n, 1, nz) volume."""
    arr = np.stack([np.asarray(p, dtype=np.float64) for p in profiles])[:, None, :]
    return Volume(arr)


def extract(v, mask):
    """The picks of a bright-above, deeper-favouring score of ``v`` inside
    ``mask``'s windows, as the pipeline extracts them."""
    rule = BoundaryProfile(name="test", polarity="bright_above", weight_direction="favor_deep")
    return enhance(v, v, rule, mask)[0]


class TestSurface:
    def test_holes_are_nans(self):
        assert [f.name for f in dataclasses.fields(Surface)] == ["z"]
        s = Surface(np.array([[1.0, np.nan]]))
        assert s.valid.tolist() == [[True, False]]
        with pytest.raises(TypeError):
            Surface(z=np.array([[1.0, np.nan]]), valid=np.ones((1, 2), dtype=bool))

    def test_copies_its_depths(self):
        z = np.zeros((2, 2))
        s = Surface(z)
        z[0, 0] = 5.0
        assert s.z[0, 0] == 0.0 and Surface(s.z).z is not s.z

    @pytest.mark.parametrize("z", [[[np.inf]], [[1.0, -np.inf]], [[np.nan, np.inf]]])
    def test_infinite_depth_rejected(self, z):
        message = "surface depths must be finite, or NaN for a hole"
        for make in (Surface, Surface.full):
            with pytest.raises(ValueError, match=message):
                make(np.array(z))

    def test_full_rejects_holes(self):
        assert Surface.full([[1.0, 2.0]]).valid.all()
        with pytest.raises(ValueError, match="NaN"):
            Surface.full(np.array([[1.0, np.nan]]))


class TestArgmax:
    def test_picks_peak(self):
        v = column_volume([0.1, 0.9, 0.3])
        s = argmax_per_ascan(v)
        assert s.z[0, 0] == 1.0
        assert s.valid[0, 0]

    def test_tie_goes_shallow(self):
        v = column_volume([0.5, 0.5, 0.5])
        assert argmax_per_ascan(v).z[0, 0] == 0.0

    # windowed extraction is enhance's: it picks inside each column's window

    def test_mask_restricts_search(self):
        # the window [0, 2) leaves out the peak at depth 2
        v = column_volume([1.0, 2.0, 9.0, 0.0])
        assert extract(v, SearchMask.full(1, 1, 4)).z[0, 0] == 2.0
        mask = SearchMask(k_hi=np.array([[2]]), nz=4)
        assert extract(v, mask).z[0, 0] == 1.0

    def test_empty_window_invalid(self):
        v = column_volume([1.0, 2.0, 3.0], [3.0, 1.0, 0.0])
        mask = SearchMask(k_hi=np.array([[0], [3]]), nz=3)
        s = extract(v, mask)
        assert not s.valid[0, 0]
        assert np.isnan(s.z[0, 0])
        assert s.valid[1, 0] and s.z[1, 0] == 0.0


class TestSearchMask:
    def test_full_covers_everything(self):
        m = SearchMask.full(3, 2, 7)
        assert (m.k_hi == 7).all() and m.k_hi.dtype == np.int32
        assert m.column_valid().all()
        assert m.depth == 7

    def test_holds_only_window_ends(self):
        m = SearchMask(k_hi=np.array([[3, 0]]), nz=4)
        assert [f.name for f in dataclasses.fields(SearchMask)] == ["k_hi", "nz"]
        # every window starts at plane 0; the start cannot be set
        assert np.array_equal(m.k_lo, [[0, 0]]) and m.k_lo.shape == m.k_hi.shape
        with pytest.raises(AttributeError):
            m.k_lo = np.array([[1, 0]])
        with pytest.raises(TypeError):
            SearchMask(k_lo=np.array([[1]]), k_hi=np.array([[3]]), nz=4)

    def test_bounds_validated(self):
        with pytest.raises(ValueError, match=r"within \[0, 3\]"):
            SearchMask(k_hi=np.array([[-1]]), nz=3)
        with pytest.raises(ValueError, match=r"within \[0, 3\]"):
            SearchMask(k_hi=np.array([[4]]), nz=3)
        with pytest.raises(ValueError, match="2D"):
            SearchMask(k_hi=np.array([3]), nz=3)
        with pytest.raises(ValueError, match="nz must be >= 1"):
            SearchMask(k_hi=np.zeros((1, 1)), nz=0)

    def test_band_half_open(self):
        # the window [0, 3) holds depths 0 to 2, not 3
        m = SearchMask(k_hi=np.array([[3]]), nz=4)
        assert m.depth == 3
        v = column_volume([0.0, 1.0, 2.0, 3.0])
        assert extract(v, m).z[0, 0] == 2.0

    def test_band_spans_searched_columns_only(self):
        m = SearchMask(k_hi=np.array([[6], [9], [0]]), nz=12)
        assert m.depth == 9
        assert np.array_equal(m.column_valid()[:, 0], [True, True, False])

    def test_band_of_empty_mask_rejected(self):
        m = SearchMask(k_hi=np.zeros((2, 3)), nz=4)
        assert not m.column_valid().any()
        with pytest.raises(ValueError, match="^search mask has no non-empty window$"):
            m.depth


class TestRejectOutliers:
    def test_spike_removed_neighbors_kept(self):
        z = np.full((7, 7), 50.0)
        z[3, 3] = 90.0
        s = Surface.full(z)
        out = reject_outliers(s, tau=15.0, window=5)
        assert not out.valid[3, 3]
        kept = out.valid.copy()
        kept[3, 3] = True
        assert kept.all()
        # surviving depths are untouched, not re-estimated
        assert np.array_equal(out.z[out.valid], z[out.valid])

    def test_flat_surface_untouched(self):
        s = Surface.full(np.full((5, 4), 12.0))
        out = reject_outliers(s, tau=3.0)
        assert out.valid.all()
        assert np.array_equal(out.z, s.z)

    def test_smooth_gradient_survives(self):
        xx, yy = np.meshgrid(np.arange(20), np.arange(15), indexing="ij")
        s = Surface.full(40.0 + 0.5 * xx + 0.3 * yy)
        out = reject_outliers(s, tau=15.0, window=5)
        assert out.valid.all()

    def test_already_invalid_cells_ignored(self):
        z = np.full((5, 5), 50.0)
        z[0, 0] = np.nan
        out = reject_outliers(Surface(z), tau=15.0)
        assert not out.valid[0, 0]
        assert out.valid.sum() == 24

    def test_seeded_spikes_mostly_rejected_clean_cells_untouched(self):
        rng = np.random.default_rng(7)
        xx, yy = np.meshgrid(np.arange(64), np.arange(64), indexing="ij")
        z = 100.0 + 5.0 * np.sin(2 * np.pi * xx / 64) * np.cos(2 * np.pi * yy / 64)
        n_spike = int(0.01 * z.size)
        flat = rng.choice(z.size, size=n_spike, replace=False)
        signs = rng.choice([-1.0, 1.0], size=n_spike)
        spiked = z.copy()
        spiked.flat[flat] += 40.0 * signs
        out = reject_outliers(Surface.full(spiked), tau=15.0, window=5)
        spike_mask = np.zeros(z.shape, dtype=bool)
        spike_mask.flat[flat] = True
        assert (~out.valid[spike_mask]).mean() >= 0.99
        clean_kept = out.valid & ~spike_mask
        assert np.array_equal(out.z[clean_kept], spiked[clean_kept])

    def test_peak_memory_bounded_by_grids_not_the_median_block(self):
        # a block of 2**13 cells holds the tile extrema, and the candidates'
        # 25 taps: the peak is the grid-sized arrays around it (1.7 grids
        # measured; 6.3 for the integral-image median of 2**11-cell blocks)
        rng = np.random.default_rng(3)
        z = rng.normal(60.0, 3.0, (640, 160))
        surface = Surface.full(z)
        tracemalloc.start()
        try:
            reject_outliers(surface, tau=15.0, window=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * z.nbytes

    def test_scratch_bounded_when_every_tile_is_a_candidate(self):
        # the widefield surface with holes and a spread far above tau: every
        # block's tiles are copied whole (3.8 grids measured), while 25 taps
        # of every cell at once would take 20 grids
        rng = np.random.default_rng(0)
        z = rng.normal(60.0, 40.0, (640, 160))
        z[rng.random(z.shape) < 0.3] = np.nan
        surface = Surface(z)
        tracemalloc.start()
        try:
            reject_outliers(surface, tau=15.0, window=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.5 * z.nbytes

    @given(
        seed=st.integers(0, 2**32 - 1),
        nx=st.integers(1, 12),
        ny=st.integers(1, 12),
        window=st.sampled_from([3, 5, 7]),
        holes=st.sampled_from(["random", "none", "interior"]),
        invalid=st.floats(0.0, 1.0),
        values=st.sampled_from(["integral", "real", "huge"]),
        tau=st.sampled_from([0.5, 1.0, 1.5, 15.0, "tie"]),
        block=st.sampled_from([1, 7, surfaces._OUTLIER_BLOCK_CELLS]),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_nanmedian_reference(self, seed, nx, ny, window, holes, invalid, values,
                                        tau, block):
        # small grids are mostly border; "huge" values overflow the middle
        # pair's sum, and a tau taken from the deviations makes exact ties
        # |z - median| == tau, half-integral ones too for integral values
        rng = np.random.default_rng(seed)
        if values == "integral":
            z = rng.integers(0, 40, (nx, ny)).astype(np.float64)
        else:
            z = rng.random((nx, ny)) * (300.0 if values == "real" else 1.5e308)
        valid = np.ones((nx, ny), dtype=bool)
        if holes == "random":
            valid = rng.random((nx, ny)) >= invalid
        elif holes == "interior" and min(nx, ny) > 2:
            valid[rng.integers(1, nx - 1, 3), rng.integers(1, ny - 1, 3)] = False
        surface = Surface(np.where(valid, z, np.nan))
        h = window // 2
        padded = np.pad(surface.z, h, mode="constant", constant_values=np.nan)
        tiles = np.lib.stride_tricks.sliding_window_view(padded, (window, window))
        with warnings.catch_warnings():
            # all-NaN tiles, and an overflowing sum, in both
            warnings.simplefilter("ignore", RuntimeWarning)
            deviation = np.abs(surface.z - np.nanmedian(tiles, axis=(-2, -1)))
            if tau == "tie":
                ties = deviation[np.isfinite(deviation) & (deviation > 0)]
                tau = float(rng.choice(ties)) if ties.size else 1.0
            expected = valid & ~(deviation > tau)
            # small blocks make one surface span several blocks of x rows
            with mock.patch.object(surfaces, "_OUTLIER_BLOCK_CELLS", block):
                out = reject_outliers(surface, tau=tau, window=window)
        assert np.array_equal(out.valid, expected)
        assert np.array_equal(out.z, np.where(expected, surface.z, np.nan), equal_nan=True)

    def test_parameter_validation(self):
        s = Surface.full(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            reject_outliers(s, tau=0.0)
        with pytest.raises(ValueError):
            reject_outliers(s, tau=5.0, window=4)
        # a NaN tau compares false with every deviation, so it would keep
        # every cell, a spike 450 deep too
        spiked = np.full((5, 5), 50.0)
        spiked[2, 2] = 500.0
        with pytest.raises(ValueError, match="tau must be positive, got nan"):
            reject_outliers(Surface.full(spiked), tau=float("nan"))


class TestInpaint:
    def test_single_hole_gets_neighbor_mean(self):
        z = np.full((5, 5), 50.0)
        z[2, 2] = np.nan
        out = inpaint_and_smooth(Surface(z), smooth_radius=0)
        assert out.valid.all()
        assert out.z[2, 2] == 50.0

    def test_fill_is_total_even_for_large_holes(self):
        z = np.full((9, 9), np.nan)
        z[0, 0] = 10.0
        filled = fill_from_neighbors(z)
        assert np.isfinite(filled).all()
        assert np.allclose(filled, 10.0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        nx=st.integers(1, 12),
        ny=st.integers(1, 12),
        holes=st.floats(0.0, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_fill_equals_whole_grid_sweeps(self, seed, nx, ny, holes):
        # holes on every border and in runs several sweeps deep
        rng = np.random.default_rng(seed)
        z = rng.random((nx, ny)) * 300.0
        z[rng.random((nx, ny)) < holes] = np.nan
        z.flat[rng.integers(z.size)] = rng.random() * 300.0  # one finite cell at least
        assert fill_from_neighbors(z).tobytes() == fill_sweeps(z).tobytes()

    def test_no_valid_cells_rejected(self):
        s = Surface(np.full((3, 3), np.nan))
        with pytest.raises(ValueError):
            inpaint_and_smooth(s)

    def test_smoothing_flattens_jitter(self):
        rng = np.random.default_rng(8)
        z = 80.0 + rng.standard_normal((32, 32))
        out = inpaint_and_smooth(Surface.full(z), smooth_radius=2)
        assert out.z.std() < z.std() * 0.5

    def test_clamped_to_depth_range(self):
        z = np.array([[1.0, -7.0], [300.0, 2.0]])
        out = inpaint_and_smooth(Surface.full(z), smooth_radius=0, max_z=127.0)
        assert out.z.min() >= 0.0
        assert out.z.max() <= 127.0

    def test_sinusoid_recovered_after_spike_rejection(self):
        # end-to-end cleanup: spikes out, holes refilled, wiggle preserved
        rng = np.random.default_rng(9)
        xx, yy = np.meshgrid(np.arange(48), np.arange(40), indexing="ij")
        z = 90.0 + 6.0 * np.sin(2 * np.pi * xx / 48) * np.cos(2 * np.pi * yy / 40)
        spiked = z.copy()
        flat = rng.choice(z.size, size=z.size // 100, replace=False)
        spiked.flat[flat] += 40.0
        kept = reject_outliers(Surface.full(spiked), tau=15.0, window=5)
        out = inpaint_and_smooth(kept, smooth_radius=2)
        rms = float(np.sqrt(np.mean((out.z - z) ** 2)))
        assert rms <= 1.0


class TestTruncate:
    def test_keep_above_excludes_reference_minus_margin(self):
        ref = Surface.full(np.array([[200.0]]))
        out = truncate_above_surface(ref, margin=3, nz=480)
        assert out.nz == 480 and out.k_hi[0, 0] == 197

    def test_margin_zero_still_excludes_reference_row(self):
        mask = truncate_above_surface(Surface.full(np.array([[2.0]])), margin=0, nz=4)
        # k_hi is exclusive: the reference depth itself is out of range
        assert mask.k_hi[0, 0] == 2

    def test_end_clipped_to_the_volume(self):
        ref = Surface.full(np.array([[90.0], [60.4], [60.6]]))
        out = truncate_above_surface(ref, margin=1, nz=50)
        assert np.array_equal(out.k_hi[:, 0], [50, 50, 50])
        out = truncate_above_surface(ref, margin=1, nz=100)
        assert np.array_equal(out.k_hi[:, 0], [89, 59, 60])  # round(z) - margin

    def test_surface_near_top_empties_window(self):
        ref = Surface.full(np.array([[2.0]]))
        out = truncate_above_surface(ref, margin=10, nz=50)
        assert not out.column_valid()[0, 0]

    def test_partial_surface_rejected(self):
        s = Surface(np.array([[10.0], [np.nan]]))
        with pytest.raises(ValueError, match="fully valid"):
            truncate_above_surface(s, margin=3, nz=50)
        with pytest.raises(ValueError, match="margin must be >= 0"):
            truncate_above_surface(Surface.full(s.z[:1]), margin=-1, nz=50)


class TestSurfaceFiles:
    @given(st.integers(1, 7), st.integers(1, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_csv_bytes_equal_per_cell_reference(self, tmp_path_factory, nx, ny, data):
        depths = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                           st.sampled_from([-0.0, 1e-300, 2.0**60, np.nan]))
        z = np.array(data.draw(st.lists(depths, min_size=nx * ny, max_size=nx * ny)))
        s = Surface(z.reshape(nx, ny))
        p = tmp_path_factory.mktemp("csv") / "s.csv"
        save_surface(s, p)
        ref = "x,y,z,valid\n" + "".join(
            f"{x},{y},{float(s.z[x, y])!r},{int(s.valid[x, y])}\n"
            for y in range(ny) for x in range(nx)
        )
        assert p.read_bytes() == ref.encode()

    def test_csv_single_cell_exact_line(self, tmp_path):
        p = tmp_path / "s.csv"
        save_surface(Surface.full(np.array([[3.5]])), p)
        assert p.read_text() == "x,y,z,valid\n0,0,3.5,1\n"

    def test_csv_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        z = rng.random((6, 4)) * 137.0
        valid = rng.random((6, 4)) > 0.2
        s = Surface(np.where(valid, z, np.nan))
        p = tmp_path / "s.csv"
        save_surface(s, p)
        back = load_surface(p)
        assert np.array_equal(back.valid, valid)
        assert np.array_equal(back.z[valid], z[valid])
        assert np.isnan(back.z[~valid]).all()

    def test_csv_invalid_cell_marked(self, tmp_path):
        s = Surface(np.array([[1.0, np.nan]]))
        p = tmp_path / "s.csv"
        save_surface(s, p)
        lines = p.read_text().strip().split("\n")
        assert lines[1] == "0,0,1.0,1"
        assert lines[2] == "0,1,nan,0"

    def test_f32_grid_size_and_order(self, tmp_path):
        z = np.array([[1.0, 3.0], [2.0, 4.0]])  # z[x, y]
        p = tmp_path / "s.f32"
        save_surface(Surface.full(z), p, fmt="f32")
        raw = np.fromfile(p, dtype="<f4")
        assert p.stat().st_size == 16
        # y-major: row y=0 is (x=0, x=1), then row y=1
        assert np.array_equal(raw, np.array([1.0, 2.0, 3.0, 4.0], dtype=np.float32))

    def test_f32_nan_for_invalid_and_roundtrip(self, tmp_path):
        z = np.array([[10.0, np.nan], [30.0, 40.0]])
        p = tmp_path / "s.f32"
        save_surface(Surface(z), p, fmt="f32")
        back = load_surface(p, fmt="f32", dims=(2, 2))
        assert back.valid.tolist() == [[True, False], [True, True]]
        assert back.z[0, 0] == 10.0
        assert np.isnan(back.z[0, 1])

    def test_f32_requires_dims(self, tmp_path):
        p = tmp_path / "s.f32"
        save_surface(Surface.full(np.zeros((2, 2))), p, fmt="f32")
        with pytest.raises(ValueError):
            load_surface(p, fmt="f32")

    def test_csv_negative_index_rejected(self, tmp_path):
        p = tmp_path / "neg.csv"
        p.write_text("x,y,z,valid\n1,0,5.0,1\n-1,0,6.0,1\n")
        with pytest.raises(ValueError, match="line 3: negative x,y = -1,0"):
            load_surface(p)

    @pytest.mark.parametrize("row, shown", [
        ("0,9223372036854775807,0.0,0", "0,9223372036854775807"),
        ("99999999999999999999,0,0.0,0", "99999999999999999999,0"),
        ("2147483648,0,1.0,1", "2147483648,0"),
    ])
    def test_csv_coordinate_past_any_grid_rejected(self, tmp_path, row, shown):
        # parsed by np.loadtxt, by the row loop (past int64) and at the limit
        p = tmp_path / "far.csv"
        p.write_text(f"x,y,z,valid\n0,0,1.0,1\n{row}\n")
        with pytest.raises(ValueError, match=f"{p}: line 3: x,y = {shown} lies outside any grid"):
            load_surface(p)

    def test_csv_repeated_cell_rejected(self, tmp_path):
        # the repeated 1,0 stands in for the missing 1,1, so the row count fits
        p = tmp_path / "dup.csv"
        p.write_text("x,y,z,valid\n0,0,1.0,1\n1,0,2.0,1\n0,1,3.0,1\n1,0,4.0,1\n")
        with pytest.raises(ValueError, match="line 5: repeats x,y = 1,0"):
            load_surface(p)

    def test_csv_header_enforced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            load_surface(p)

    @pytest.mark.parametrize("row, message", [
        ("0,1,nan,1", "line 3: valid cell has non-finite z = nan"),
        ("0,1,-inf,1", "line 3: valid cell has non-finite z = -inf"),
        ("0,1,1.0,7", "line 3: valid must be 0 or 1, got 7"),
        ("a,1,1.0,1", "line 3: malformed row ['a', '1', '1.0', '1']"),
        ("0,1.5,1.0,1", "line 3: malformed row"),
        ("0,1,1.0", "line 3: malformed row"),
        # no comment syntax: "#" is data
        ("0,1,1.0,1#", "line 3: malformed row ['0', '1', '1.0', '1#']"),
        ("#0,1,1.0,1", "line 3: malformed row ['#0', '1', '1.0', '1']"),
        # blank lines are skipped, but a line of spaces is a row
        ("  ", "line 3: malformed row ['  ']"),
    ])
    def test_csv_bad_row_rejected_with_line(self, tmp_path, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"x,y,z,valid\n0,0,1.0,1\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_surface(p)

    @pytest.mark.parametrize("text", [
        "x,y,z,valid\r\n0,0,1.5,1\r\n1,0,nan,0\r\n",
        "x,y,z,valid\r0,0,1.5,1\r1,0,nan,0\r",
        "x,y,z,valid\n\n0,0,1.5,1\n\r\n\n1,0,nan,0\n\n",
        'x,y,z,valid\n"0","0","1.5","1"\n1,"0",nan,"0"\n',
        ' x , y ,z,"valid"\n 0 , 0 ,\t1.5 ,1\n1,0 ,  nan,0 \n',
        "x,y,z,valid\n0,0,1.5,1\n1,0,nan,0",
        "x,y,z,valid\n+0,-0,0_1.5,1\n1,0_0,-inf,0\n",
    ], ids=["crlf", "cr", "blank-lines", "quoted", "padded", "no-final-newline",
            "python-numbers"])
    def test_csv_grammar(self, tmp_path, text):
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        s = load_surface(p)
        assert s.valid.tolist() == [[True], [False]]
        assert s.z[0, 0] == 1.5 and np.isnan(s.z[1, 0])

    @pytest.mark.parametrize("text, message", [
        ("x,y,z,valid\n0,0,1.0,1\n\n\n0,1,nan,1\n", "line 5: valid cell has non-finite z = nan"),
        ("x,y,z,valid\r\n\r\n0,0,1.0,1\r\n\r\n0,1,x,1\r\n", "line 5: malformed row ['0', '1', 'x', '1']"),
        ('x,y,z,valid\n"0\n",0,1.0,1\n\n0,0,2.0,1\n', "line 5: repeats x,y = 0,0"),
    ], ids=["blank-lines", "crlf-blank-lines", "quoted-line-break"])
    def test_csv_line_numbers_count_every_line(self, tmp_path, text, message):
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_surface(p)

    @pytest.mark.parametrize("text", ["x,y,z,valid\n", "x,y,z,valid", "x,y,z,valid\r\n\n\r\r\n"])
    def test_csv_without_rows_rejected_without_warning(self, tmp_path, text):
        p = tmp_path / "s.csv"
        p.write_bytes(text.encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{p}: surface file has no data rows")):
                load_surface(p)

    def test_csv_written_file_parsed_without_the_row_loop(self, tmp_path):
        # the row-by-row parser is only the fallback for files np.loadtxt rejects
        rng = np.random.default_rng(11)
        z = rng.random((9, 4)) * 300.0
        s = Surface(np.where(rng.random((9, 4)) > 0.3, z, np.nan))
        p = tmp_path / "s.csv"
        save_surface(s, p)
        with mock.patch.object(surfaces, "_parse_rows", side_effect=AssertionError):
            back = load_surface(p)
        assert np.array_equal(back.z, s.z, equal_nan=True)
        assert np.array_equal(back.valid, s.valid)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_surface(Surface.full(np.zeros((2, 2))), tmp_path / "s.bin", fmt="npz")


# ---------------------------------------------------------------------------
# the per-row CSV codec that the vectorised one replaced, kept as its reference


def reference_save_surface(surface, path):
    zs, valid = surface.z.T.tolist(), surface.valid.T.astype(np.uint8).tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("x,y,z,valid\n")
        f.writelines(
            f"{x},{y},{zv!r},{v}\n"
            for y, (z_row, v_row) in enumerate(zip(zs, valid))
            for x, (zv, v) in enumerate(zip(z_row, v_row))
        )


def reference_save_thickness_csv(tm, path):
    px = np.asarray(tm.px, dtype=np.float64).T.tolist()
    with open(path, "w", encoding="utf-8", newline="") as f:
        if tm.um is None:
            f.write("x,y,thickness_px\n")
            f.writelines(
                f"{x},{y},{p!r}\n" for y, row in enumerate(px) for x, p in enumerate(row)
            )
        else:
            um = np.asarray(tm.um, dtype=np.float64).T.tolist()
            f.write("x,y,thickness_px,thickness_um\n")
            f.writelines(
                f"{x},{y},{p!r},{u!r}\n"
                for y, (p_row, u_row) in enumerate(zip(px, um))
                for x, (p, u) in enumerate(zip(p_row, u_row))
            )


def reference_load_surface(path):
    xs, ys, zs, vs, lines = [], [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["x", "y", "z", "valid"]:
            raise ValueError(f"{path}: expected header 'x,y,z,valid', got {header}")
        for row in reader:
            if not row:
                continue
            try:
                x, y, depth, flag = row
                xs.append(int(x))
                ys.append(int(y))
                zs.append(float(depth))
                vs.append(int(flag))
            except ValueError:
                raise ValueError(
                    f"{path}: line {reader.line_num}: malformed row {row}"
                ) from None
            lines.append(reader.line_num)
    if not xs:
        raise ValueError(f"{path}: surface file has no data rows")
    # ints past int64 stay Python ints, and coordinates must stay below 2**31
    xs, ys, vs = (np.array(c, dtype=object if max(map(abs, c)) >= 2**63 else np.int64)
                  for c in (xs, ys, vs))
    zs = np.array(zs)
    repeated = np.ones(xs.size, dtype=bool)
    pairs = [(int(x), int(y)) for x, y in zip(xs, ys)]
    repeated[[pairs.index(pair) for pair in dict.fromkeys(pairs)]] = False
    for bad, message in (
        ((xs < 0) | (ys < 0), "negative x,y = {x},{y}"),
        ((xs >= 2**31) | (ys >= 2**31),
         "x,y = {x},{y} lies outside any grid (coordinates stop below 2147483648)"),
        (repeated, "repeats x,y = {x},{y}"),
        ((vs != 0) & (vs != 1), "valid must be 0 or 1, got {v}"),
        ((vs == 1) & ~np.isfinite(zs), "valid cell has non-finite z = {z}"),
    ):
        if bad.any():
            i = np.flatnonzero(bad)[0]
            detail = message.format(x=xs[i], y=ys[i], z=zs[i], v=vs[i])
            raise ValueError(f"{path}: line {lines[i]}: {detail}")
    nx = int(xs.max()) + 1
    ny = int(ys.max()) + 1
    if len(xs) != nx * ny:
        raise ValueError(f"{path}: expected {nx * ny} rows, got {len(xs)}")
    z = np.full((nx, ny), np.nan)
    z[xs, ys] = np.where(vs == 1, zs, np.nan)
    return Surface(z)


# values whose repr is easy to get wrong: signed zeros, NaN, infinities,
# subnormals, the smallest normal, integers past 2**53 and 17-digit fractions
ODD_DEPTHS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5e-310, 2.2250738585072014e-308,
              1e16, 1e16 + 2.0, 2.0**60, 0.1, 1 / 3, 479.99999999999994]


@st.composite
def depth_grids(draw):
    """(nx, ny) float64 grids: 1x1, 1xn, nx1 or square-ish; drawn from a small
    pool (many repeats), all distinct, or any float64."""
    nx, ny = draw(st.one_of(
        st.just((1, 1)),
        st.tuples(st.just(1), st.integers(1, 30)),
        st.tuples(st.integers(1, 30), st.just(1)),
        st.tuples(st.integers(1, 12), st.integers(1, 12)),
    ))
    n = nx * ny
    kind = draw(st.sampled_from(["pool", "distinct", "any"]))
    if kind == "pool":
        pool = ODD_DEPTHS + draw(st.lists(st.floats(0, 480), max_size=4))
        z = [draw(st.sampled_from(pool)) for _ in range(n)]
    elif kind == "distinct":
        z = draw(st.lists(st.floats(0, 480), min_size=n, max_size=n, unique=True))
    else:
        z = draw(st.lists(st.floats(width=64), min_size=n, max_size=n))
    return np.array(z, dtype=np.float64).reshape(nx, ny)


# fields that break the grammar, or that only Python's int and float accept
ODD_FIELDS = ["", " ", "a", "1.5", "1e0", "1_0", "+1", "-1", "007", "１", "1#", "#",
              "0x1", "nan", "-inf", "2", "99999999999999999999", "-99999999999999999999",
              "9223372036854775807", "9223372036854775808", "2147483648", "1 0", '"1', '1"',
              "1\x0b"]
DEPTH_SPELLINGS = [repr, "{:.6e}".format, "{:+.3f}".format, lambda z: f"{z!r}".upper()]


@st.composite
def surface_csv_texts(draw):
    """Surface CSV text: a grid in any row order, with optional CRLF or CR
    line ends, blank lines, quoted or padded fields, no final line break,
    and a few defects (a dropped or repeated row, odd fields)."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cells = [(x, y) for y in range(ny) for x in range(nx)]
    if draw(st.booleans()):
        cells = draw(st.permutations(cells))
    rows = []
    for x, y in cells:
        valid = draw(st.booleans())
        z = draw(st.floats(-1e3, 1e3)) if valid else draw(st.sampled_from(ODD_DEPTHS))
        rows.append([str(x), str(y), draw(st.sampled_from(DEPTH_SPELLINGS))(z), str(int(valid))])
    if draw(st.integers(0, 4)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(st.integers(0, 4)) == 0:
        rows.append(list(draw(st.sampled_from(rows))))
    for _ in range(draw(st.integers(0, 2)) if rows and draw(st.booleans()) else 0):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(ODD_FIELDS))
    quote, pad, blank = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    lines = ["x,y,z,valid"]
    for row in rows:
        if blank and draw(st.booleans()):
            lines.append("")
        fields = []
        for field in row:
            if pad and draw(st.booleans()):
                field = draw(st.sampled_from([" ", "  ", "\t"])) + field + " "
            if quote and draw(st.booleans()):
                field = f'"{field}"'
            fields.append(field)
        lines.append(",".join(fields))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + (newline if draw(st.booleans()) else "")


def load_outcome(load, path):
    """A loaded surface's z bits and validity, or the error it failed with."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            s = load(path)
        except ValueError as e:
            return type(e).__name__, str(e)
    return s.z.tobytes(), s.valid.tolist()


class TestCsvCodecMatchesReference:
    @given(z=depth_grids(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_writers_byte_equal_reference(self, tmp_path_factory, z, data):
        valid = np.array(data.draw(st.lists(st.booleans(), min_size=z.size, max_size=z.size)))
        # a surface holds no infinity: the drawn ones become holes
        s = Surface(np.where(valid.reshape(z.shape) & ~np.isinf(z), z, np.nan))
        d = tmp_path_factory.mktemp("w")
        save_surface(s, d / "new.csv")
        reference_save_surface(s, d / "ref.csv")
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()
        # the file reads back to the same bits, holes as the one NaN
        back = load_surface(d / "new.csv")
        assert back.z.tobytes() == np.where(s.valid, s.z, np.nan).tobytes()
        # thickness columns keep NaN, -0.0 and infinities
        dz = data.draw(st.sampled_from([3.9, 1e-310, 1e300]))
        for tm in (ThicknessMap(px=z), ThicknessMap(px=z, dz_um=dz)):
            with np.errstate(over="ignore"):
                save_thickness_csv(tm, d / "new_t.csv")
                reference_save_thickness_csv(tm, d / "ref_t.csv")
            assert (d / "new_t.csv").read_bytes() == (d / "ref_t.csv").read_bytes()

    @given(text=surface_csv_texts())
    @settings(max_examples=300, deadline=None)
    def test_reader_matches_reference(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("r") / "s.csv"
        p.write_bytes(text.encode())
        assert load_outcome(load_surface, p) == load_outcome(reference_load_surface, p)
