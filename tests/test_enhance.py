"""Depth weighting and the derivative+intensity fusion."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octseg import filters
from octseg.enhance import enhance
from octseg.pipeline import BoundaryProfile
from octseg.surfaces import SearchMask
from octseg.volume import Volume


def profile(direction="favor_deep", polarity="bright_above"):
    """A boundary profile that sets only what enhance reads."""
    return BoundaryProfile(name="test", polarity=polarity, weight_direction=direction)


def pick(d, s, direction="favor_deep", mask=None, **rule):
    """Run enhance on plain arrays (None: every column searched at full
    depth); return the picked depths and the names of the flat parts."""
    if mask is None:
        mask = SearchMask.full(*d.shape)
    surface, flat = enhance(Volume(d), Volume(s), profile(direction, **rule), mask)
    return surface.z, flat


def column(*values):
    return np.array(values, dtype=np.float64)[None, None, :]


class TestDepthWeight:
    """The depth weight, k + 1 ("favor_deep") or nz - k ("favor_shallow")
    at depth k of nz, seen through the picks."""

    @staticmethod
    def _end_to_end(direction, ratio):
        # column 0 holds the derivative 1 at the end that the weight
        # favours least and ``ratio`` at the other; column 1 keeps the
        # smoothed field from being flat while it is 0 in column 0
        d = np.zeros((2, 1, 480))
        s = np.zeros((2, 1, 480))
        weak, strong = (0, -1) if direction == "favor_deep" else (-1, 0)
        d[0, 0, weak], d[0, 0, strong] = 1.0, ratio
        s[1, 0, 0] = 1.0
        return pick(d, s, direction)[0][0, 0]

    def test_favor_deep_endpoints(self):
        # w(479) / w(0) = 480 / 1: depth 479 wins just above 1/480 of the peak
        assert self._end_to_end("favor_deep", (1 + 2**-10) / 480) == 479.0
        assert self._end_to_end("favor_deep", (1 - 2**-10) / 480) == 0.0

    def test_favor_shallow_endpoints(self):
        # w(0) / w(479) = 480 / 1
        assert self._end_to_end("favor_shallow", (1 + 2**-10) / 480) == 0.0
        assert self._end_to_end("favor_shallow", (1 - 2**-10) / 480) == 479.0

    def test_weights_always_positive(self):
        # column p < nz peaks at depth p over a faint background, which
        # column nz's zeros keep above the rescaled 0: the peak wins only
        # where its weight is positive (a zero weight scores it 0, below
        # the background's weighted 1e-3)
        nz = 33
        d = np.full((nz + 1, 1, nz), 1e-3)
        d[np.arange(nz), 0, np.arange(nz)] = 1.0
        d[nz] = 0.0
        for direction in ("favor_deep", "favor_shallow"):
            z, _ = pick(d, d, direction)
            assert np.array_equal(z[:nz, 0], np.arange(nz))

    def test_weight_spans_the_mask_depth(self):
        # fields of 4 planes in a volume of 10: "favor_shallow" weighs
        # depths 0 and 3 by 10 and 7, so the 1 at depth 3 beats the .5 at
        # depth 0 (a weight of the fields' depth, 4 and 1, would not)
        d = column(0.5, 0.0, 0.0, 1.0)
        mask = SearchMask(k_hi=np.array([[4]]), nz=10)
        assert pick(d, d, "favor_shallow", mask)[0][0, 0] == 3.0

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError, match="weight_direction"):
            profile("favor_middle")

    def test_strictly_monotone(self):
        # column p holds equal peaks at depths p and p + 1
        nz = 64
        d = np.zeros((nz - 1, 1, nz))
        for p in range(nz - 1):
            d[p, 0, p : p + 2] = 1.0
        deep, _ = pick(d, d, "favor_deep")
        shallow, _ = pick(d, d, "favor_shallow")
        assert np.array_equal(deep[:, 0], np.arange(1, nz))
        assert np.array_equal(shallow[:, 0], np.arange(nz - 1))


class TestUnitScale:
    """The min-max rescales inside enhance, seen through the picks."""

    def test_maps_to_unit_interval(self):
        # rescaled: d (0, 1, .5), s (0, 0, 1); weights 1, 2, 3 score (0, 2, 4.5).
        # Unscaled, the derivative's thousands would drown the smoothed field
        # (pick 1), and an unscaled smoothed field would lose to it (pick 1).
        z, flat = pick(column(0.0, 2000.0, 1000.0), column(0.0, 0.0, 1e-3))
        assert z[0, 0] == 2.0 and flat == []

    def test_flat_input_flagged(self):
        # a flat derivative contributes zero: (1, .4, 0) weighted 1, 2, 3
        # scores (1, .8, 0); a contribution of 1 would make it (2, 2.8, 3)
        d = np.full((1, 1, 3), 4.0)
        z, flat = pick(d, column(1.0, 0.4, 0.0))
        assert z[0, 0] == 0.0 and flat == ["derivative"]

    def test_selection_controls_extrema(self):
        # extrema over the window [0, 2) only: both fields span [0, 1] there,
        # so weights 1, 2 make depth 1 win.  A large value below the window
        # would squeeze the window's smoothed values (first case) or its
        # derivative values (second case) to ~0, and depth 0 would win.
        mask = SearchMask(k_hi=np.array([[2]]), nz=4)
        for d, s in (
            (column(1.0, 0.0, 0.0, 0.0), column(0.0, 1.0, 1000.0, 0.0)),
            (column(0.0, 1.0, 1000.0, 0.0), column(1.0, 0.0, 0.0, 0.0)),
        ):
            z, flat = pick(d, s, mask=mask)
            assert z[0, 0] == 1.0 and flat == []


class TestEnhance:
    def _volumes(self, d_col, s_col):
        # derivative and smoothed volumes whose normalization is identity:
        # both span [0, 1] exactly via a corner column away from the probe
        nz = len(d_col)
        d = np.zeros((2, 2, nz), dtype=np.float64)
        s = np.zeros((2, 2, nz), dtype=np.float64)
        d[0, 0, 0] = 1.0
        s[0, 0, 0] = 1.0
        d[1, 1] = d_col
        s[1, 1] = s_col
        return d, s

    def test_weighted_sum_value(self):
        # depths 1..3 score 2 * .6, 3 * .35 and 4 * (.2 + .15): only the
        # weighted sum picks depth 3 (unweighted: 1, derivative or smoothed
        # alone: 1 or 2)
        d, s = self._volumes([0, 0.6, 0, 0.2, 0], [0, 0, 0.35, 0.15, 0])
        z, flat = pick(d, s)
        assert z[1, 1] == 3.0 and flat == []

    def test_plane_zero_not_erased(self):
        # w(0) = 1: the fused 2 at depth 0 beats 2 * .8 at depth 1
        d, s = self._volumes([1, 0.4, 0], [1, 0.4, 0])
        z, _ = pick(d, s)
        assert z[1, 1] == 0.0

    def test_equal_peaks_resolved_by_weight(self):
        # one column with identical fused peaks at two depths: the weight
        # decides which one wins
        nz = 64
        d = np.zeros((1, 1, nz))
        s = np.zeros((1, 1, nz))
        d[0, 0, [10, 40]] = 1.0
        s[0, 0, [10, 40]] = 1.0
        assert pick(d, s, "favor_deep")[0][0, 0] == 40.0
        assert pick(d, s, "favor_shallow")[0][0, 0] == 10.0

    def test_negative_derivative_clamped(self):
        # the -5 cell only sets the floor at zero, and the joint peak at
        # depth 1 wins; unclamped, the zero background would sit 5/6 above
        # the floor and the growing weights would pick the deepest plane
        d = column(-5.0, 1.0, 0, 0, 0, 0, 0, 0)
        s = column(0.0, 1.0, 0, 0, 0, 0, 0, 0)
        assert pick(d, s)[0][0, 0] == 1.0

    def test_flat_inputs_named_and_zero(self):
        # both fields flat contribute zero: the score is flat, each column
        # picks the top of its window, and all three parts are named
        d = np.zeros((2, 2, 5))
        s = np.full((2, 2, 5), 0.5)
        mask = SearchMask(k_hi=np.array([[1, 2], [4, 5]]), nz=5)
        z, flat = pick(d, s, mask=mask)
        assert flat == ["derivative", "smoothed", "score"]
        assert np.array_equal(z, np.zeros((2, 2)))

    def test_dims_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dims mismatch"):
            enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((3, 2, 3))),
                    profile(), SearchMask.full(2, 2, 3))

    def test_weight_length_mismatch_rejected(self):
        # the weight has one plane per mask plane: fields may stop short of
        # it where no window reads, but may not run deeper
        fields = Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="do not cover the search band"):
            enhance(*fields, profile(), SearchMask.full(2, 2, 5))
        with pytest.raises(ValueError, match="does not hold fields"):
            enhance(*fields, profile(), SearchMask.full(2, 2, 2))

    @given(st.integers(0, 2**31 - 1), st.integers(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_argmax_invariant_to_power_of_two_gain(self, seed, exp):
        # rescaling both inputs by a common power of two is exactly
        # invisible after min-max normalization
        rng = np.random.default_rng(seed)
        gain = float(2.0**exp)
        d = rng.standard_normal((3, 3, 16))
        s = rng.random((3, 3, 16))
        z_a, flat_a = pick(d, s)
        z_b, flat_b = pick(gain * d, gain * s)
        assert np.array_equal(z_a, z_b) and flat_a == flat_b


def reference_score_and_extract(diff, smooth, rule, k_hi):
    """Full-volume enhance + extract by ``rule``'s sign and depth weight,
    the signed derivative clamped at zero: rescale extrema gathered through
    a boolean (nx, ny, nz) mask of the windows [0, k_hi), argmax over the
    masked volume."""
    nz = diff.shape[2]
    inside = np.arange(nz) < k_hi[:, :, None]
    planes = np.arange(nz, dtype=np.float32)
    if rule.weight_direction == "favor_deep":
        weights = planes + 1
    else:
        weights = np.float32(nz) - planes
    sign = 1 if rule.polarity == "bright_above" else -1

    def is_flat(v):
        return not v[inside].max() > v[inside].min()

    def rescale(v):
        lo, hi = v[inside].min(), v[inside].max()
        if not hi > lo:
            v.fill(0)
            return
        v -= lo
        v /= hi - lo

    score = np.maximum(sign * diff, 0)
    smoothed = smooth.copy()
    flat = [is_flat(score), is_flat(smoothed)]
    rescale(score)
    rescale(smoothed)
    score += smoothed
    score *= weights[None, None, :]
    flat.append(is_flat(score))
    z = np.where(inside, score, -np.inf).argmax(axis=2).astype(np.float64)
    valid = k_hi > 0
    z[~valid] = np.nan
    return z, valid, flat


@st.composite
def scoring_cases(draw):
    """Fields as float32 values or as the filters store the fields of a u8
    volume: integer sums with a scale, here one that rounds the quotients."""
    nx, ny, nz = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def field(flat, scale):
        if scale is None:
            if flat:
                return Volume(np.full((nx, ny, nz), rng.integers(-3, 4) / 4, dtype=np.float32))
            # quarter steps make ties, so the shallowest-tie rule is exercised
            return Volume((rng.integers(-8, 9, (nx, ny, nz)) / 4).astype(np.float32))
        # a narrow range of sums makes ties too
        dtype = draw(st.sampled_from([np.int16, np.int32]))
        lo = int(rng.integers(-40, 40))
        hi = lo + (0 if flat else int(rng.integers(1, 30)))
        return Volume(rng.integers(lo, hi + 1, (nx, ny, nz)).astype(dtype), scale=scale)

    scales = st.sampled_from([None, 255 / 45, 255 / 343, 255 / 405])
    diff = field(draw(st.booleans()), draw(scales))
    smooth = field(draw(st.booleans()), draw(scales))
    end = draw(st.integers(1, nz))  # at least one searched column ends here
    if draw(st.booleans()):
        # the cascade's windows: ends a few planes apart, so most planes
        # are core and a few ragged (none when every end is equal)
        k_hi = np.clip(end - rng.integers(0, 3, (nx, ny)), 0, nz)
    else:
        k_hi = rng.integers(0, nz + 1, (nx, ny))
    k_hi[rng.random((nx, ny)) < 0.2] = 0  # some empty columns
    k_hi.flat[draw(st.integers(0, nx * ny - 1))] = end
    rule = profile(draw(st.sampled_from(["favor_deep", "favor_shallow"])),
                   draw(st.sampled_from(["bright_above", "bright_below"])))
    return diff, smooth, rule, k_hi


class TestBandScoring:
    """enhance scores and picks the window band in x-slabs."""

    @pytest.mark.parametrize("threads,slab_voxels", [(1, None), (2, None), (1, 1), (2, 1)])
    @given(case=scoring_cases())
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_full_volume_reference(self, threads, slab_voxels, case):
        # scaled integer fields score as their float32 values do
        diff, smooth, rule, k_hi = case
        z_ref, valid_ref, flat_ref = reference_score_and_extract(
            diff.values().copy(), smooth.values().copy(), rule, k_hi
        )
        mask = SearchMask(k_hi=k_hi, nz=diff.nz)
        slab = filters._SLAB_VOXELS if slab_voxels is None else slab_voxels
        with mock.patch.object(filters, "_SLAB_VOXELS", slab):
            surface, flat = enhance(diff, smooth, rule, mask, threads)
        assert np.array_equal(surface.z, z_ref, equal_nan=True)
        assert np.array_equal(surface.valid, valid_ref)
        assert flat == [n for n, f in zip(["derivative", "smoothed", "score"], flat_ref) if f]

    def test_inputs_left_untouched(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal((4, 3, 10)).astype(np.float32)
        s = rng.random((4, 3, 10)).astype(np.float32)
        d0, s0 = d.copy(), s.copy()
        mask = SearchMask(k_hi=np.full((4, 3), 7), nz=10)
        enhance(Volume(d), Volume(s), profile(polarity="bright_below"), mask, 2)
        assert np.array_equal(d, d0) and np.array_equal(s, s0)

    def test_no_window_rejected(self):
        mask = SearchMask(k_hi=np.zeros((2, 2)), nz=3)
        with pytest.raises(ValueError, match="no non-empty window"):
            enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 3))), profile(), mask)

    def test_mask_geometry_mismatch_rejected(self):
        # another grid, or fewer planes than the fields
        for dims in ((3, 2, 3), (2, 3, 3), (2, 2, 2)):
            with pytest.raises(ValueError, match="mask geometry"):
                enhance(Volume(np.zeros((2, 2, 3))), Volume(np.zeros((2, 2, 3))), profile(),
                        SearchMask.full(*dims))

    def test_masked_peak_memory_below_one_volume(self):
        # windows of at most half the depth, on a volume of at least 8
        # slabs: scoring and picking hold about 1.9 slabs of scratch at a
        # time (the score, a block of the rescaled smoothed field added to
        # it, and the maps of the ragged planes outside the windows, kept
        # for every slab from the extrema sweep to the score sweep), where
        # a slab-sized smoothed field and maps made per sweep took 2.3 and
        # a band-sized score array alone half a volume, 4 slabs here
        nx, ny, nz = 128, 64, 256
        assert nx * ny * nz >= 8 * filters._SLAB_VOXELS
        rng = np.random.default_rng(0)
        diff = Volume(rng.standard_normal((nx, ny, nz), dtype=np.float32))
        smooth = Volume(rng.random((nx, ny, nz), dtype=np.float32))
        k_hi = rng.integers(nz // 4, nz // 2 + 1, (nx, ny))
        mask = SearchMask(k_hi=k_hi, nz=nz)
        tracemalloc.start()
        try:
            enhance(diff, smooth, profile(polarity="bright_below"), mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * filters._SLAB_VOXELS * diff.data.itemsize
