"""Depth weighting and the derivative+intensity fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octseg.enhance import (
    DegenerateNormalizationWarning,
    DepthWeight,
    enhance,
    unit_scale,
)
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
    def test_maps_to_unit_interval(self):
        arr = np.array([3.0, 5.0, 7.0])
        assert not unit_scale(arr)
        assert np.allclose(arr, [0.0, 0.5, 1.0])

    def test_flat_input_flagged(self):
        arr = np.full((2, 2), 4.0)
        assert unit_scale(arr)
        assert np.array_equal(arr, np.zeros((2, 2)))

    def test_selection_controls_extrema(self):
        arr = np.array([0.0, 10.0, 100.0])
        sel = np.array([True, True, False])
        assert not unit_scale(arr, sel)
        assert arr[1] == 1.0  # max over selection, not over everything
        assert arr[2] == 10.0  # outside selection values may exceed 1


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
