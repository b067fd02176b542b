"""Filtering: separable fast path against the dense reference, kernel taps,
border behavior, the boundary detector's step response, and the one-axis
correlation against scipy's."""

import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octseg import filters
from octseg.enhance import DepthWeight, enhance
from octseg.filters import (
    FilterBank,
    Kernel3D,
    SeparableKernel,
    convolve_direct,
    convolve_separable,
    make_derivative_kernel,
    make_smoothing_kernel,
)
from octseg.volume import Volume, u8_values


def random_volume(rng, dims, dtype=np.float64):
    """Random float values, or random u8 samples kept as u8."""
    if dtype == np.uint8:
        return Volume(rng.integers(0, 256, dims, dtype=np.uint8), u8=True)
    return Volume(rng.random(dims).astype(dtype))


def random_odd(rng, lo, hi):
    return int(rng.integers(lo // 2, hi // 2 + 1)) * 2 + 1


class TestKernels:
    def test_derivative_taps_m1(self):
        k = make_derivative_kernel(1, lateral=1)
        assert np.array_equal(k.kz, [1.0, 0.0, -1.0])
        assert np.array_equal(k.kx, [1.0])

    def test_derivative_taps_m2_bright_below(self):
        # a bright-below boundary uses the same bright-above taps; its sign
        # is applied to the response, not to the kernel
        k = make_derivative_kernel(2, lateral=3)
        assert np.array_equal(k.kz, [0.5, 0.5, 0.0, -0.5, -0.5])
        assert np.allclose(k.kx, [1 / 3, 1 / 3, 1 / 3])

    def test_derivative_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_derivative_kernel(0)
        with pytest.raises(ValueError):
            make_derivative_kernel(2, lateral=4)
        with pytest.raises(ValueError):
            make_derivative_kernel(2, lateral=0)

    def test_smoothing_taps(self):
        k = make_smoothing_kernel(1)
        assert np.allclose(k.kz, [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(k.kz.sum(), 1.0)

    def test_dense_outer_product(self):
        k = SeparableKernel(kx=[1.0, 2.0, 1.0], ky=[1.0, 1.0, 1.0], kz=[0.0, 1.0, 0.0])
        dense = k.to_dense()
        assert dense.coeffs.shape == (3, 3, 3)
        assert dense.coeffs[1, 1, 1] == 2.0
        assert dense.coeffs[0, 0, 0] == 0.0

    def test_even_length_taps_rejected(self):
        with pytest.raises(ValueError):
            SeparableKernel(kx=[1.0, 1.0], ky=[1.0], kz=[1.0])


class TestSeparable:
    def test_identity_kernel_is_bitwise_noop(self):
        rng = np.random.default_rng(0)
        v = random_volume(rng, (4, 5, 6), np.float32)
        out = convolve_separable(v, SeparableKernel([1.0], [1.0], [1.0]))
        assert np.array_equal(out.data, v.data)
        assert out.data.dtype == np.float32

    def test_zero_sum_depth_taps_on_constant(self):
        v = Volume(np.full((6, 6, 12), 0.7, dtype=np.float32))
        for m in (1, 3):
            k = make_derivative_kernel(m, lateral=3)
            out = convolve_separable(v, k)
            assert np.abs(out.data).max() <= 1e-6

    def test_smoothing_constant_is_identity(self):
        v = Volume(np.full((5, 5, 9), 0.31, dtype=np.float64))
        out = convolve_separable(v, make_smoothing_kernel(2))
        assert np.allclose(out.data, 0.31, atol=1e-12)

    def test_smoothing_leaves_deep_constant_interior_alone(self):
        # a constant block larger than the kernel support: its center must
        # come back unchanged while the mean over everything is preserved
        rng = np.random.default_rng(3)
        data = rng.random((11, 11, 11))
        data[2:9, 2:9, 2:9] = 0.5
        out = convolve_separable(Volume(data), make_smoothing_kernel(1))
        assert np.allclose(out.data[4:7, 4:7, 4:7], 0.5, atol=1e-12)

    def test_kernel_longer_than_axis_rejected(self):
        v = Volume(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            convolve_separable(v, make_smoothing_kernel(2))  # extent 5 > 3

    def test_replicated_border_no_fade(self):
        # smoothing a constant must stay constant right up to the faces
        v = Volume(np.full((4, 4, 8), 1.0))
        out = convolve_separable(v, make_smoothing_kernel(1))
        assert np.allclose(out.data, 1.0, atol=1e-12)

    @given(st.integers(0, 2**31 - 1), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed, pa, pb):
        rng = np.random.default_rng(seed)
        a, b = float(2.0**pa), float(2.0**pb)
        u = rng.random((4, 5, 7))
        w = rng.random((4, 5, 7))
        k = make_derivative_kernel(2, lateral=3)
        lhs = convolve_separable(Volume(a * u + b * w), k).data
        rhs = a * convolve_separable(Volume(u), k).data + b * convolve_separable(Volume(w), k).data
        assert np.allclose(lhs, rhs, atol=1e-6 * max(a + b, 1.0))

    def test_threaded_matches_serial_bitwise(self):
        rng = np.random.default_rng(4)
        v = random_volume(rng, (32, 7, 20), np.float32)
        for kernel in (make_smoothing_kernel(2), make_derivative_kernel(3)):
            ref = convolve_separable(v, kernel, threads=1)
            for threads in (2, 3, 8):
                out = convolve_separable(v, kernel, threads=threads)
                assert np.array_equal(out.data, ref.data), f"threads={threads}"


class TestDirectReference:
    def test_identity_1x1x1(self):
        rng = np.random.default_rng(5)
        v = random_volume(rng, (3, 4, 5), np.float32)
        out = convolve_direct(v, Kernel3D(np.ones((1, 1, 1))))
        assert np.array_equal(out.data, v.data)

    def test_impulse_spreads_kernel(self):
        data = np.zeros((5, 5, 5))
        data[2, 2, 2] = 1.0
        out = convolve_direct(Volume(data), Kernel3D(np.ones((3, 3, 3))))
        assert np.allclose(out.data[1:4, 1:4, 1:4], 1.0)
        assert np.allclose(out.data[0, :, :], 0.0)

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve_direct(Volume(np.zeros((3, 3, 3))), Kernel3D(np.ones((5, 1, 1))))


class TestSeparableAgainstDirect:
    """The two routes are implemented independently; on outer-product
    kernels they must agree to float32 precision."""

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_volumes_and_kernels_agree(self, seed):
        rng = np.random.default_rng(seed)
        dims = tuple(int(rng.integers(5, 13)) for _ in range(3))
        v = random_volume(rng, dims)
        taps = []
        for dim in dims:
            n = random_odd(rng, 1, min(5, dim))
            taps.append(rng.uniform(-1.0, 1.0, size=n))
        kernel = SeparableKernel(kx=taps[0], ky=taps[1], kz=taps[2])
        fast = convolve_separable(v, kernel)
        ref = convolve_direct(v, kernel.to_dense())
        assert np.abs(fast.data - ref.data).max() <= 1e-5

    def test_detector_kernels_agree(self):
        rng = np.random.default_rng(6)
        for v in (random_volume(rng, (10, 9, 16)), random_volume(rng, (10, 9, 16), np.uint8)):
            for kernel in (
                make_derivative_kernel(3, lateral=3),
                make_derivative_kernel(2, lateral=5),
                make_smoothing_kernel(2),
            ):
                fast = convolve_separable(v, kernel)
                ref = convolve_direct(v, kernel.to_dense())
                assert fast.data.dtype == ref.data.dtype == v.dtype
                assert np.abs(fast.data - ref.data).max() <= 1e-5


class TestStepResponse:
    def _step_volume(self, edge=50, nz=100, hi=1.0, lo=0.0):
        data = np.full((4, 3, nz), lo, dtype=np.float64)
        data[:, :, :edge] = hi
        return Volume(data)

    def test_bright_above_peaks_at_step(self):
        # intensity 1 for k<50, 0 from k=50 on; the detector's response must
        # attain its maximum at the first dark voxel (tied with k=49, where
        # the same windows apply)
        v = self._step_volume()
        k = make_derivative_kernel(5, lateral=3)
        r = convolve_separable(v, k).data[2, 1]
        assert r[50] == r.max()
        assert r[49] == r[50]
        assert set(np.flatnonzero(r == r.max())) <= {49, 50}

    def test_bright_below_is_negated(self):
        # enhancing with sign -1 is enhancing the negated derivative
        rng = np.random.default_rng(7)
        v = Volume(rng.random((6, 5, 40)).astype(np.float32))
        bank = FilterBank(v)
        deriv, smooth = bank.derivative(4, 3), bank.smoothing(2)
        w = DepthWeight("favor_shallow", 40)
        negated = Volume(-deriv.data)
        below, flat = enhance(deriv, smooth, w, sign=-1)
        expected, expected_flat = enhance(negated, smooth, w)
        assert np.array_equal(below.z, expected.z) and flat == expected_flat
        assert not np.array_equal(below.z, enhance(deriv, smooth, w)[0].z)
        with pytest.raises(ValueError):
            deriv.data[0, 0, 0] = 0.0  # shared fields are read-only

    def test_rising_step_drives_bright_below(self):
        data = np.zeros((3, 3, 60))
        data[:, :, 30:] = 1.0  # dark above, bright below
        k = make_derivative_kernel(5, lateral=3)
        r = convolve_separable(Volume(data), k).data[1, 1]
        # the bright-above taps respond negatively; sign -1 makes it a peak
        assert r[30] == r.min()
        assert r.min() < 0


def whole_axis_reference(volume, kernel, depth=None):
    """``_correlate1d`` over whole axes in z, x, y order, cut to ``depth``."""
    out = volume.values()
    for axis, taps in ((2, kernel.kz), (0, kernel.kx), (1, kernel.ky)):
        out = filters._correlate1d(out, taps, axis)
    return out[:, :, :depth]


class TestFilterBank:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([np.float32, np.float64, np.uint8]),
           st.sampled_from([1, None]))
    @settings(max_examples=40, deadline=None)
    def test_fields_bitwise_equal_convolve_separable(self, seed, dtype, slab_voxels):
        # the fused slab pass against whole-axis passes: threads 1 and 2,
        # 1-plane slabs (slab_voxels=1) and the default, full and cut depths;
        # u8 samples are filtered as the float32 values they stand for
        rng = np.random.default_rng(seed)
        dims = (int(rng.integers(4, 12)), int(rng.integers(3, 8)), int(rng.integers(5, 20)))
        v = random_volume(rng, dims, dtype)
        radius = int(rng.integers(0, (min(dims) - 1) // 2 + 1))
        half_width = int(rng.integers(1, (dims[2] - 1) // 2 + 1))
        laterals = [2 * int(rng.integers(0, (min(dims[:2]) + 1) // 2)) + 1 for _ in range(2)]
        depth = int(rng.integers(1, dims[2] + 1))
        slab = filters._FILTER_SLAB_VOXELS if slab_voxels is None else slab_voxels
        with mock.patch.object(filters, "_FILTER_SLAB_VOXELS", slab):
            for threads in (1, 2):
                kernel = make_smoothing_kernel(radius)
                ref = whole_axis_reference(v, kernel)
                assert convolve_separable(v, kernel, threads).data.tobytes() == ref.tobytes()
                bank = FilterBank(v, threads)
                assert bank.smoothing(radius).data.tobytes() == ref.tobytes()
                for lateral in laterals:
                    kernel = make_derivative_kernel(half_width, lateral)
                    ref = whole_axis_reference(v, kernel, depth)
                    cut = convolve_separable(v, kernel, threads, depth).data
                    assert cut.dtype == v.dtype and cut.tobytes() == ref.tobytes()
                    full = bank.derivative(half_width, lateral).data
                    assert full[:, :, :depth].tobytes() == ref.tobytes()

    def test_each_field_computed_once(self):
        v = random_volume(np.random.default_rng(8), (8, 6, 24), np.float32)
        bank = FilterBank(v)
        assert bank.smoothing(2) is bank.smoothing(2)
        assert bank.derivative(3, 3) is bank.derivative(3, 3)
        assert bank.derivative(3, 3) is not bank.derivative(3, 5)

    def test_plan_drops_each_field_after_its_last_reader(self):
        v = random_volume(np.random.default_rng(9), (8, 6, 24), np.float32)
        # two readers of derivative(3, 3), one of derivative(3, 5), three of smoothing(1)
        bank = FilterBank(v, plan=[(3, 3, 1), (3, 5, 1), (3, 3, 1)])
        first = bank.derivative(3, 3, 10)
        assert first.nz == 10  # read again, but no later request may read deeper
        only = bank.derivative(3, 5, 10)
        ref = whole_axis_reference(v, make_derivative_kernel(3, 5), 10)
        assert only.nz == 10 and only.data.tobytes() == ref.tobytes()
        assert bank.derivative(3, 3, 7) is first and first.nz == 10  # handed back as it is
        smooth = bank.smoothing(1, 7)
        assert smooth.nz == 7
        assert bank.smoothing(1, 7) is smooth and bank.smoothing(1, 5) is smooth
        fields = [weakref.ref(f) for f in (first, only, smooth)]
        del first, only, smooth
        assert [f() for f in fields] == [None, None, None]

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_crop_cuts_kept_fields_to_their_prefix(self, dtype):
        v = random_volume(np.random.default_rng(11), (9, 7, 30), dtype)
        # derivative(3, 3) read twice, smoothing(1) three times, derivative(3, 5) once
        bank = FilterBank(v, plan=[(3, 3, 1), (3, 5, 1), (3, 3, 1)])
        full = [whole_axis_reference(v, k) for k in (make_derivative_kernel(3, 3),
                                                      make_smoothing_kernel(1))]
        kept = bank.derivative(3, 3, 20), bank.smoothing(1, 20)
        assert [f.nz for f in kept] == [20, 20]

        def assert_prefix(depth):
            for field, ref in zip(kept, full):
                assert field.nz == depth and not field.data.flags.writeable
                assert field.data.tobytes() == np.ascontiguousarray(ref[:, :, :depth]).tobytes()

        # a new field 12 deep first cuts the kept ones, which shrink in the
        # hands of their earlier reader too
        assert bank.derivative(3, 5, 12).nz == 12
        assert_prefix(12)
        assert bank.smoothing(1, 5) is kept[1]  # a kept field is handed back uncut
        assert_prefix(12)
        with pytest.raises(ValueError, match=r"planes z < 13 requested from a filter bank limited to z < 5"):
            bank.derivative(3, 5, 13)
        with pytest.raises(ValueError, match="limited to z < 5"):
            bank.smoothing(1)  # the whole depth
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            bank.smoothing(1, 0)
        assert bank.smoothing(2, 4).nz == 4  # another new field: the kept ones go to 4
        assert_prefix(4)
        assert bank.derivative(3, 3, 4) is kept[0] and bank.smoothing(1, 3) is kept[1]

    def test_crop_frees_the_cut_planes_in_place(self):
        v = random_volume(np.random.default_rng(12), (64, 64, 128), np.uint8)
        bank = FilterBank(v, plan=[(3, 3, 1), (3, 3, 1)])
        crop, convolve = filters._crop_depth, filters.convolve_separable
        seen = {}

        def cut(arr, depth):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            crop(arr, depth)
            seen["cut_peak"] = tracemalloc.get_traced_memory()[1] - start

        def computed(*args):
            seen["computed_from"] = tracemalloc.get_traced_memory()[0]
            return convolve(*args)

        tracemalloc.start()
        try:
            field = bank.smoothing(1, 128)  # kept for its second reader
            with mock.patch.object(filters, "_crop_depth", cut), \
                    mock.patch.object(filters, "convolve_separable", computed):
                before = tracemalloc.get_traced_memory()[0]
                bank.derivative(3, 3, 32)
        finally:
            tracemalloc.stop()
        assert field.nz == 32  # the handed-out field shrank in place
        # the cut planes were freed before the new field was computed
        assert before - seen["computed_from"] >= 0.99 * 64 * 64 * (128 - 32) * 4
        # no second copy: only one block of A-scans is buffered at a time
        assert seen["cut_peak"] <= 4 * filters._BLOCK_SAMPLES

    def test_crop_refuses_a_field_still_in_use(self):
        v = random_volume(np.random.default_rng(13), (8, 6, 24), np.float32)
        bank = FilterBank(v, plan=[(3, 3, 1), (3, 3, 1)])
        view = bank.smoothing(1).data[:, :, 4:]
        with pytest.raises(ValueError, match="still in use"):
            bank.derivative(3, 3, 10)
        ref = whole_axis_reference(v, make_smoothing_kernel(1))
        assert view.tobytes() == np.ascontiguousarray(ref[:, :, 4:]).tobytes()

    def test_u8_values_match_a_float32_cast_divided_by_255(self):
        u = np.arange(256, dtype=np.uint8)
        expected = u.astype(np.float32) / np.float32(255)
        assert u8_values(u).tobytes() == expected.tobytes()
        out = np.empty(256, np.float32)
        assert u8_values(u, out=out) is out and out.tobytes() == expected.tobytes()

    def test_depth_out_of_range_rejected(self):
        v = random_volume(np.random.default_rng(10), (4, 4, 8), np.float32)
        for depth in (0, 9):
            with pytest.raises(ValueError, match="depth"):
                convolve_separable(v, make_smoothing_kernel(1), depth=depth)


@st.composite
def correlation_cases(draw):
    """An array, an axis and odd-length taps, some longer than the axis."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3).map(tuple))
    values = st.floats(-1e3, 1e3, width=32 if dtype == np.float32 else 64)
    arr = draw(hnp.arrays(dtype, shape, elements=values))
    axis = draw(st.integers(0, len(shape) - 1))
    h = draw(st.integers(0, shape[axis] + 2))
    kind = draw(st.sampled_from(["box", "derivative", "random", "identity",
                                 "near_symmetric", "near_antisymmetric"]))
    if kind == "box":
        taps = np.full(2 * h + 1, 1.0 / (2 * h + 1))
    elif kind == "derivative":
        taps = filters.make_derivative_kernel(max(h, 1), lateral=1).kz
    elif kind == "identity":
        taps = np.array([1.0])
    else:
        taps = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * h + 1,
                                      max_size=2 * h + 1)))
        if kind != "random":
            # mirrored, then nudged by less than DBL_EPSILON: scipy still
            # takes the paired summation, weighted by the left half
            sign = 1.0 if kind == "near_symmetric" else -1.0
            taps = taps * 1e-3
            taps[h + 1 :] = sign * taps[:h][::-1] + 1e-17
    return arr, axis, taps


class TestCorrelate1d:
    @given(correlation_cases(), st.sampled_from([1, 5, 64, filters._BLOCK_SAMPLES]))
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_scipy(self, case, block):
        ndimage = pytest.importorskip("scipy.ndimage")
        arr, axis, taps = case
        ref = ndimage.correlate1d(arr, taps, axis=axis, mode="nearest")
        with mock.patch.object(filters, "_BLOCK_SAMPLES", block):
            out = filters._correlate1d(arr, taps, axis)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == ref.tobytes()
