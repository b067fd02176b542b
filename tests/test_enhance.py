"""Depth weighting and the derivative+intensity fusion."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octseg import filters
from octseg.enhance import (
    DegenerateNormalizationWarning,
    DepthWeight,
    enhance,
)
from octseg.surfaces import SearchMask, argmax_per_ascan
from octseg.volume import Volume


class TestDepthWeight:
    def test_favor_deep_endpoints(self):
        w = DepthWeight("favor_deep", 480).weights()
        assert w[0] == 1.0
        assert w[479] == 480.0

    def test_favor_shallow_endpoints(self):
        w = DepthWeight("favor_shallow", 480).weights()
        assert w[0] == 480.0
        assert w[479] == 1.0

    def test_weights_always_positive(self):
        for direction in ("favor_deep", "favor_shallow"):
            w = DepthWeight(direction, 33).weights()
            assert (w > 0).all()
            assert w.shape == (33,)

    def test_out_of_range_index_rejected(self):
        # one weight per depth plane: index nz is past the last one
        w = DepthWeight("favor_deep", 10).weights()
        assert w.shape == (10,)
        with pytest.raises(IndexError):
            w[10]

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            DepthWeight("favor_middle", 10)

    def test_strictly_monotone(self):
        deep = DepthWeight("favor_deep", 64).weights()
        shallow = DepthWeight("favor_shallow", 64).weights()
        assert (np.diff(deep) > 0).all()
        assert (np.diff(shallow) < 0).all()


class TestUnitScale:
    """The min-max rescales inside enhance."""

    def test_maps_to_unit_interval(self):
        d = np.array([3.0, 5.0, 7.0])[None, None, :]
        s = np.array([0.0, 0.0, 1.0])[None, None, :]
        out = enhance(Volume(d), Volume(s), DepthWeight("favor_deep", 3))
        # (d, s) rescale to (0, .5, 1) and (0, 0, 1); weights 1, 2, 3
        assert np.allclose(out.data[0, 0], [0.0, 1.0 / 6.0, 1.0])

    def test_flat_input_flagged(self):
        d = np.full((1, 1, 3), 4.0)
        s = np.array([0.0, 0.5, 1.0])[None, None, :]
        with pytest.warns(DegenerateNormalizationWarning, match="derivative") as rec:
            out = enhance(Volume(d), Volume(s), DepthWeight("favor_deep", 3))
        assert len(rec) == 1  # only the derivative was flat
        assert np.allclose(out.data[0, 0], [0.0, 1.0 / 3.0, 1.0])

    def test_selection_controls_extrema(self):
        d = np.array([100.0, 0.0, 10.0, 1000.0])[None, None, :]
        s = np.array([5.0, 0.0, 1.0, -7.0])[None, None, :]
        mask = SearchMask(k_lo=np.array([[1]]), k_hi=np.array([[3]]), nz=4)
        out = enhance(Volume(d), Volume(s), DepthWeight("favor_deep", 4), mask=mask)
        # extrema over the window only: the 100, 1000, 5 and -7 outside it
        # would otherwise squeeze the window's values towards zero
        assert out.data.shape == (1, 1, 2)
        assert np.array_equal(out.data[0, 0], [0.0, 1.0])


class TestEnhance:
    def _volumes(self, nz=5, d_at=0.2, s_at=0.1, at=2):
        # derivative and smoothed volumes whose normalization is identity:
        # both span [0, 1] exactly via corner pixels away from the probe
        d = np.zeros((2, 2, nz), dtype=np.float64)
        s = np.zeros((2, 2, nz), dtype=np.float64)
        d[0, 0, 0] = 1.0
        s[0, 0, 0] = 1.0
        d[1, 1, at] = d_at
        s[1, 1, at] = s_at
        return Volume(d), Volume(s)

    def test_weighted_sum_value(self):
        d, s = self._volumes(d_at=0.2, s_at=0.1, at=2)
        w = DepthWeight("favor_deep", 5)
        out = enhance(d, s, w)
        # raw score 3 * (0.2 + 0.1) over the raw maximum 1 * (1 + 1) at (0, 0, 0)
        assert np.isclose(out.data[1, 1, 2], 3.0 * 0.3 / 2.0, atol=1e-6)

    def test_plane_zero_not_erased(self):
        d, s = self._volumes()
        w = DepthWeight("favor_deep", 5)
        out = enhance(d, s, w)
        assert out.data[0, 0, 0] == 1.0  # w(0)=1, D+S=2 is the maximum

    def test_equal_peaks_resolved_by_weight(self):
        # two columns with identical fused peaks at different depths: the
        # deep-favoring weight must make the deeper one score higher
        nz = 64
        d = np.zeros((2, 1, nz))
        s = np.zeros((2, 1, nz))
        s[0, 0, 0] = 1e-9  # keep the smoothed field non-flat
        d[0, 0, 10] = 1.0
        d[1, 0, 40] = 1.0
        out_deep = enhance(Volume(d), Volume(s.copy()), DepthWeight("favor_deep", nz))
        assert out_deep.data[1, 0, 40] > out_deep.data[0, 0, 10]
        out_shallow = enhance(Volume(d), Volume(s.copy()), DepthWeight("favor_shallow", nz))
        assert out_shallow.data[0, 0, 10] > out_shallow.data[1, 0, 40]

    def test_output_normalized_range(self):
        rng = np.random.default_rng(0)
        d = Volume(rng.standard_normal((4, 4, 12)))
        s = Volume(rng.random((4, 4, 12)))
        out = enhance(d, s, DepthWeight("favor_deep", 12))
        assert out.data.min() == 0.0
        assert out.data.max() == 1.0
        assert np.isfinite(out.data).all()

    def test_negative_derivative_clamped(self):
        d = np.zeros((1, 1, 4))
        d[0, 0, 1] = -5.0
        d[0, 0, 2] = 1.0
        s = np.zeros((1, 1, 4))
        s[0, 0, 3] = 1.0
        out = enhance(Volume(d), Volume(s), DepthWeight("favor_deep", 4),
                      clamp_negative=True)
        # with clamping the -5 cell contributes nothing
        assert out.data[0, 0, 1] == 0.0
        out2 = enhance(Volume(d), Volume(s), DepthWeight("favor_deep", 4),
                       clamp_negative=False)
        assert out2.data[0, 0, 1] == 0.0  # after min-max it becomes the floor
        # without clamping the zero background sits above the floor and
        # picks up weight; with clamping it stays at exactly zero
        assert out.data[0, 0, 0] == 0.0
        assert out2.data[0, 0, 0] > 0.0

    def test_flat_inputs_warn_and_zero(self):
        d = Volume(np.zeros((2, 2, 3)))
        s = Volume(np.full((2, 2, 3), 0.5))
        with pytest.warns(DegenerateNormalizationWarning):
            out = enhance(d, s, DepthWeight("favor_deep", 3))
        assert np.array_equal(out.data, np.zeros((2, 2, 3)))

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError):
            enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 4))),
                    DepthWeight("favor_deep", 3))

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 3))),
                    DepthWeight("favor_deep", 5))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 3))),
                    DepthWeight("favor_deep", 3), sign=0)

    @given(st.integers(0, 2**31 - 1), st.integers(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_argmax_invariant_to_power_of_two_gain(self, seed, exp):
        # rescaling both inputs by a common power of two is exactly
        # invisible after min-max normalization
        rng = np.random.default_rng(seed)
        gain = float(2.0**exp)
        d = rng.standard_normal((3, 3, 16))
        s = rng.random((3, 3, 16))
        w = DepthWeight("favor_deep", 16)
        a = enhance(Volume(d), Volume(s), w)
        b = enhance(Volume(gain * d), Volume(gain * s), w)
        assert np.array_equal(a.data.argmax(axis=2), b.data.argmax(axis=2))


def reference_score_and_extract(diff, smooth, weights, sign, clamp, k_lo, k_hi):
    """Full-volume enhance + extract: rescale extrema gathered through a
    boolean (nx, ny, nz) window mask, argmax over the masked volume."""
    k = np.arange(diff.shape[2])
    inside = (k >= k_lo[:, :, None]) & (k < k_hi[:, :, None])

    def rescale(v):
        lo, hi = v[inside].min(), v[inside].max()
        if not hi > lo:
            v.fill(0)
            return True
        v -= lo
        v /= hi - lo
        return False

    score = sign * diff
    if clamp:
        np.maximum(score, 0, out=score)
    smoothed = smooth.copy()
    flat = [rescale(score), rescale(smoothed)]
    score += smoothed
    score *= weights[None, None, :]
    flat.append(rescale(score))
    z = np.where(inside, score, -np.inf).argmax(axis=2).astype(np.float64)
    valid = k_lo < k_hi
    z[~valid] = np.nan
    return z, valid, flat, not score.any()


@st.composite
def scoring_cases(draw):
    nx, ny, nz = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field(flat):
        if flat:
            return np.full((nx, ny, nz), rng.integers(-3, 4) / 4, dtype=np.float32)
        # quarter steps make ties, so the shallowest-tie rule is exercised
        return (rng.integers(-8, 9, (nx, ny, nz)) / 4).astype(np.float32)

    diff, smooth = field(draw(st.booleans())), field(draw(st.booleans()))
    a = rng.integers(0, nz + 1, (nx, ny))
    b = rng.integers(0, nz + 1, (nx, ny))
    k_lo, k_hi = np.minimum(a, b), np.maximum(a, b)
    k_hi[rng.random((nx, ny)) < 0.2] = 0  # some empty columns
    c = draw(st.integers(0, nx * ny - 1))  # at least one searched column
    k_lo.flat[c], k_hi.flat[c] = draw(st.integers(0, nz - 1)), nz
    k_hi.flat[c] -= draw(st.integers(0, nz - 1 - k_lo.flat[c]))
    return (diff, smooth, draw(st.sampled_from(["favor_deep", "favor_shallow"])),
            draw(st.sampled_from([1, -1])), draw(st.booleans()), k_lo, k_hi)


class TestBandScoring:
    """enhance + argmax_per_ascan on the window band, in x-slabs."""

    @pytest.mark.parametrize("threads,slab_voxels", [(1, None), (2, None), (1, 1), (2, 1)])
    @given(case=scoring_cases())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_full_volume_reference(self, threads, slab_voxels, case):
        diff, smooth, direction, sign, clamp, k_lo, k_hi = case
        nz = diff.shape[2]
        weight = DepthWeight(direction, nz)
        z_ref, valid_ref, flat_ref, degenerate_ref = reference_score_and_extract(
            diff.copy(), smooth.copy(), weight.weights(), sign, clamp, k_lo, k_hi
        )
        mask = SearchMask(k_lo=k_lo, k_hi=k_hi, nz=nz)
        slab = filters._SLAB_VOXELS if slab_voxels is None else slab_voxels
        with mock.patch.object(filters, "_SLAB_VOXELS", slab), \
                warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            out = enhance(Volume(diff), Volume(smooth), weight, sign, clamp, mask, threads)
            z0, band = mask.to_band()
            surface = argmax_per_ascan(out, band, threads)
        assert out.nz == band.nz
        assert np.array_equal(surface.z + z0, z_ref, equal_nan=True)
        assert np.array_equal(surface.valid, valid_ref)
        flagged = [str(w.message) for w in rec
                   if issubclass(w.category, DegenerateNormalizationWarning)]
        expected = [m for m, f in zip(
            ["derivative", "smoothed", "enhanced"], flat_ref) if f]
        assert [m.split()[0] for m in flagged] == expected
        assert (not out.data.any()) == degenerate_ref

    def test_inputs_left_untouched(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((4, 3, 10)).astype(np.float32)
        s = rng.random((4, 3, 10)).astype(np.float32)
        d0, s0 = d.copy(), s.copy()
        mask = SearchMask(k_lo=np.full((4, 3), 2), k_hi=np.full((4, 3), 7), nz=10)
        enhance(Volume(d), Volume(s), DepthWeight("favor_deep", 10), -1, True, mask, 2)
        assert np.array_equal(d, d0) and np.array_equal(s, s0)

    def test_no_window_rejected(self):
        mask = SearchMask(k_lo=np.zeros((2, 2)), k_hi=np.zeros((2, 2)), nz=3)
        with pytest.raises(ValueError, match="no non-empty window"):
            enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 3))),
                    DepthWeight("favor_deep", 3), mask=mask)

    def test_mask_geometry_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mask geometry"):
            enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 3))),
                    DepthWeight("favor_deep", 3), mask=SearchMask.full(2, 2, 4))

    def test_masked_peak_memory_below_one_volume(self):
        # windows of at most half the depth: the band output and slab
        # scratch together stay under one float volume (a full-volume
        # score with a boolean mask and a masked copy needs about 2.7);
        # the volume spans several slabs, as real volumes do
        nx, ny, nz = 128, 64, 256
        assert nx * ny * nz >= 8 * filters._SLAB_VOXELS
        rng = np.random.default_rng(0)
        diff = Volume(rng.standard_normal((nx, ny, nz), dtype=np.float32))
        smooth = Volume(rng.random((nx, ny, nz), dtype=np.float32))
        k_hi = rng.integers(nz // 4, nz // 2 + 1, (nx, ny))
        mask = SearchMask(k_lo=np.zeros((nx, ny)), k_hi=k_hi, nz=nz)
        weight = DepthWeight("favor_deep", nz)
        tracemalloc.start()
        try:
            out = enhance(diff, smooth, weight, -1, True, mask)
            z0, band = mask.to_band()
            argmax_per_ascan(out, band)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < diff.data.nbytes
