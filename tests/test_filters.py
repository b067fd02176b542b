"""Filtering: separable fast path against the dense reference, kernel taps,
border behavior, the boundary detector's step response, and the one-axis
correlation against a float64 reference that is checked against scipy's."""

import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from octseg import filters
from octseg.enhance import enhance
from octseg.filters import (
    FilterBank,
    SeparableKernel,
    convolve_separable,
    make_derivative_kernel,
    make_smoothing_kernel,
)
from octseg.pipeline import BoundaryProfile
from octseg.surfaces import SearchMask
from octseg.volume import Volume, VolumeMeta, open_volume
from reference import convolve_direct, outer_product, read_volume


def random_volume(rng, dims, dtype=np.float64):
    """Random float values, or random u8 samples kept as u8 (scale 255)."""
    if dtype == np.uint8:
        return Volume(rng.integers(0, 256, dims, dtype=np.uint8), scale=255)
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
        dense = outer_product(k)
        assert dense.shape == (3, 3, 3)
        assert dense[1, 1, 1] == 2.0
        assert dense[0, 0, 0] == 0.0

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
        out = convolve_direct(v, np.ones((1, 1, 1)))
        assert np.array_equal(out.data, v.data)

    def test_impulse_spreads_kernel(self):
        data = np.zeros((5, 5, 5))
        data[2, 2, 2] = 1.0
        out = convolve_direct(Volume(data), np.ones((3, 3, 3)))
        assert np.allclose(out.data[1:4, 1:4, 1:4], 1.0)
        assert np.allclose(out.data[0, :, :], 0.0)

    def test_oversized_kernel_rejected(self):
        with pytest.raises(ValueError):
            convolve_direct(Volume(np.zeros((3, 3, 3))), np.ones((5, 1, 1)))

    @pytest.mark.parametrize("shape", [(3, 3), (3, 2, 1)])
    def test_kernel_without_odd_3d_extents_rejected(self, shape):
        with pytest.raises(ValueError, match="dense kernel must be 3D with odd extents"):
            convolve_direct(Volume(np.zeros((3, 3, 3))), np.ones(shape))


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
        ref = convolve_direct(v, outer_product(kernel))
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
                ref = convolve_direct(v, outer_product(kernel))
                assert fast.dtype == ref.dtype == v.dtype
                assert np.abs(fast.values() - ref.data).max() <= 1e-5


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
        deriv, smooth = FilterBank(v, 1, [(4, 3, 2)]).fields((4, 3, 2), 40)
        above = BoundaryProfile(name="test", polarity="bright_above",
                                weight_direction="favor_shallow")
        mask = SearchMask.full(6, 5, 40)
        negated = Volume(-deriv.data)
        below, flat = enhance(deriv, smooth, replace(above, polarity="bright_below"), mask)
        expected, expected_flat = enhance(negated, smooth, above, mask)
        assert np.array_equal(below.z, expected.z) and flat == expected_flat
        assert not np.array_equal(below.z, enhance(deriv, smooth, above, mask)[0].z)
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


def exact_u8_reference(volume, kernel, depth=None):
    """The field of u8 samples under box, odd-box or identity taps of
    ``±1/n``, computed apart from the code under test: int64 sums over
    whole axes of the edge-padded samples, each counted by its tap's sign,
    divided once, ``f32(S) / f32(255 * n_z * n_x * n_y)`` (n is a box's
    length or an odd box's half-width), cut to ``depth``."""
    s, divisor = volume.data.astype(np.int64), 255
    for axis, taps in ((2, kernel.kz), (0, kernel.kx), (1, kernel.ky)):
        h = taps.size // 2
        counts = np.sign(taps).astype(np.int64)
        n = taps.size if counts[-1] == 1 else max(h, 1)
        assert np.array_equal(taps, counts / n), "not a box, odd-box or identity kernel"
        pad = np.pad(s, [(h, h) if a == axis else (0, 0) for a in range(3)], mode="edge")
        length = s.shape[axis]
        s = sum(int(c) * np.take(pad, np.arange(j, j + length), axis=axis)
                for j, c in enumerate(counts) if c)
        divisor *= n
    assert np.abs(s).max() < 2**24  # float32 holds every sum exactly
    return (s.astype(np.float32) / np.float32(divisor))[:, :, :depth]


def whole_axis_reference(volume, kernel, depth=None):
    """The values of the field the fused slab pass must equal, cut to
    ``depth``: for u8 samples the exact one, for float values
    ``_correlate1d`` over whole axes in z, x, y order."""
    if volume.scale is not None:
        return exact_u8_reference(volume, kernel, depth)
    out = volume.values()
    for axis, taps in ((2, kernel.kz), (0, kernel.kx), (1, kernel.ky)):
        out = filters._correlate1d(out, taps, axis)
    return out[:, :, :depth]


class TestFilterBank:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([np.float32, np.float64, np.uint8]),
           st.sampled_from([1, None]))
    @settings(max_examples=40, deadline=None)
    def test_fields_bitwise_equal_convolve_separable(self, seed, dtype, slab_bytes):
        # the fused slab pass against whole-axis passes: threads 1 and 2,
        # 1-plane slabs (slab_bytes=1) and the default, full and cut depths;
        # u8 samples give their exact integer sums rounded once
        rng = np.random.default_rng(seed)
        dims = (int(rng.integers(4, 12)), int(rng.integers(3, 8)), int(rng.integers(5, 20)))
        v = random_volume(rng, dims, dtype)
        radius = int(rng.integers(0, (min(dims) - 1) // 2 + 1))
        half_width = int(rng.integers(1, (dims[2] - 1) // 2 + 1))
        laterals = [2 * int(rng.integers(0, (min(dims[:2]) + 1) // 2)) + 1 for _ in range(2)]
        depth = int(rng.integers(1, dims[2] + 1))
        slab = filters._FILTER_SLAB_BYTES if slab_bytes is None else slab_bytes
        with mock.patch.object(filters, "_FILTER_SLAB_BYTES", slab):
            for threads in (1, 2):
                kernel = make_smoothing_kernel(radius)
                ref = whole_axis_reference(v, kernel)
                assert convolve_separable(v, kernel, threads).values().tobytes() == ref.tobytes()
                readers = [(half_width, lateral, radius) for lateral in laterals]
                bank = FilterBank(v, threads, readers)
                for reader in readers:
                    deriv, smooth = bank.fields(reader, dims[2])
                    assert smooth.values().tobytes() == ref.tobytes()
                    kernel = make_derivative_kernel(*reader[:2])
                    cut_ref = whole_axis_reference(v, kernel, depth)
                    cut = convolve_separable(v, kernel, threads, depth)
                    assert cut.dtype == v.dtype and cut.values().tobytes() == cut_ref.tobytes()
                    assert deriv.values()[:, :, :depth].tobytes() == cut_ref.tobytes()

    def test_each_field_computed_once(self):
        v = random_volume(np.random.default_rng(8), (8, 6, 24), np.float32)
        plan = [(3, 3, 2), (3, 3, 2), (3, 5, 2)]
        bank = FilterBank(v, 1, plan)
        first, again, other = (bank.fields(reader, 24) for reader in plan)
        assert again[0] is first[0] and again[1] is first[1]
        assert other[0] is not first[0] and other[1] is first[1]

    def test_plan_drops_each_field_after_its_last_reader(self):
        v = random_volume(np.random.default_rng(9), (8, 6, 24), np.float32)
        # two readers of derivative(3, 3), one of derivative(3, 5), three of smoothing(1)
        bank = FilterBank(v, 1, [(3, 3, 1), (3, 5, 1), (3, 3, 1)])
        first, smooth = bank.fields((3, 3, 1), 10)
        # computed together, and read again, but no later request may read deeper
        ref = whole_axis_reference(v, make_smoothing_kernel(1), 10)
        assert first.nz == smooth.nz == 10 and smooth.values().tobytes() == ref.tobytes()
        only, again = bank.fields((3, 5, 1), 10)
        ref = whole_axis_reference(v, make_derivative_kernel(3, 5), 10)
        assert only.nz == 10 and only.values().tobytes() == ref.tobytes()
        assert again is smooth
        dropped = weakref.ref(only)
        del only
        assert dropped() is None  # its one reader has taken it
        last = bank.fields((3, 3, 1), 7)
        assert last[0] is first and last[1] is smooth and first.nz == 10  # handed back as it is
        fields = [weakref.ref(f) for f in (first, smooth)]
        del first, smooth, again, last
        assert [f() for f in fields] == [None, None]

    def test_reads_outside_the_plan_rejected(self):
        # a field asked for beyond the plan would be kept for the bank's
        # whole life, since no planned reader is left to drop it after
        v = random_volume(np.random.default_rng(15), (8, 6, 24), np.float32)
        bank = FilterBank(v, 1, [(3, 3, 1)])
        with pytest.raises(ValueError, match=r"no planned read of the fields \(3, 5, 1\) is left"):
            bank.fields((3, 5, 1), 24)
        deriv, smooth = bank.fields((3, 3, 1), 24)
        with pytest.raises(ValueError, match=r"no planned read of the fields \(3, 3, 1\) is left"):
            bank.fields((3, 3, 1), 24)
        fields = [weakref.ref(f) for f in (deriv, smooth)]
        del deriv, smooth
        assert [f() for f in fields] == [None, None]

    @pytest.mark.parametrize("dtype", [np.float32, np.uint8])
    def test_crop_cuts_kept_fields_to_their_prefix(self, dtype):
        v = random_volume(np.random.default_rng(11), (9, 7, 30), dtype)
        # derivative(3, 3) read four times, smoothing(1) four times,
        # derivative(3, 5) and smoothing(2) once each
        bank = FilterBank(v, 1, [(3, 3, 1), (3, 5, 1), (3, 3, 1), (3, 3, 2), (3, 3, 1)])
        full = [whole_axis_reference(v, k) for k in (make_derivative_kernel(3, 3),
                                                      make_smoothing_kernel(1))]
        kept = bank.fields((3, 3, 1), 20)
        assert [f.nz for f in kept] == [20, 20]

        def assert_prefix(depth):
            for field, ref in zip(kept, full):
                assert field.nz == depth and not field.data.flags.writeable
                assert field.values().tobytes() == np.ascontiguousarray(ref[:, :, :depth]).tobytes()

        # a new field 12 deep first cuts the kept ones, which shrink in the
        # hands of their earlier reader too
        deriv, smooth = bank.fields((3, 5, 1), 12)
        assert deriv.nz == 12 and smooth is kept[1]
        assert_prefix(12)
        again = bank.fields((3, 3, 1), 5)  # kept fields are handed back uncut
        assert again[0] is kept[0] and again[1] is kept[1]
        assert_prefix(12)
        with pytest.raises(ValueError, match=r"planes z < 13 requested from a filter bank limited to z < 5"):
            bank.fields((3, 3, 2), 13)
        with pytest.raises(ValueError, match="limited to z < 5"):
            bank.fields((3, 3, 2), 30)  # the whole depth
        with pytest.raises(ValueError, match="depth must be >= 1, got 0"):
            bank.fields((3, 3, 2), 0)
        # another new field: the kept ones go to 4
        deriv, smooth = bank.fields((3, 3, 2), 4)
        assert deriv is kept[0] and smooth.nz == 4
        assert_prefix(4)
        last = bank.fields((3, 3, 1), 3)
        assert last[0] is kept[0] and last[1] is kept[1]
        assert_prefix(4)

    def test_crop_frees_the_cut_planes_in_place(self):
        v = random_volume(np.random.default_rng(12), (64, 64, 128), np.uint8)
        # both fields of the first reader are kept for the third
        bank = FilterBank(v, 1, [(3, 3, 1), (3, 5, 1), (3, 3, 1)])
        crop, convolve = filters._crop_depth, filters.convolve_separable
        seen = {"cut_peak": 0}

        def cut(arr, depth):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            crop(arr, depth)
            seen["cut_peak"] = max(seen["cut_peak"], tracemalloc.get_traced_memory()[1] - start)

        def computed(*args):
            seen["computed_from"] = tracemalloc.get_traced_memory()[0]
            return convolve(*args)

        tracemalloc.start()
        try:
            _, field = bank.fields((3, 3, 1), 128)
            with mock.patch.object(filters, "_crop_depth", cut), \
                    mock.patch.object(filters, "convolve_separable", computed):
                before = tracemalloc.get_traced_memory()[0]
                bank.fields((3, 5, 1), 32)  # its one new field is computed alone
        finally:
            tracemalloc.stop()
        assert field.nz == 32  # the handed-out field shrank in place
        # the cut planes of both kept fields were freed before the new field
        # was computed
        assert before - seen["computed_from"] >= 0.99 * 2 * 64 * 64 * (128 - 32) * field.data.itemsize
        # no second copy: only one block of A-scans is buffered at a time
        assert seen["cut_peak"] <= 4 * filters._BLOCK_SAMPLES

    def test_crop_refuses_a_field_still_in_use(self):
        v = random_volume(np.random.default_rng(13), (8, 6, 24), np.float32)
        bank = FilterBank(v, 1, [(3, 3, 1), (3, 5, 1)])
        view = bank.fields((3, 3, 1), 24)[1].data[:, :, 4:]
        with pytest.raises(ValueError, match="still in use"):
            bank.fields((3, 5, 1), 10)
        ref = whole_axis_reference(v, make_smoothing_kernel(1))
        assert view.tobytes() == np.ascontiguousarray(ref[:, :, 4:]).tobytes()

    def test_non_finite_check_reads_only_float_values_in_memory(self, tmp_path):
        # an opened file was checked when it was opened, and scaled integer
        # samples are finite, so neither takes another pass over the input
        raw = tmp_path / "v.raw"
        np.ones((4, 4, 8), "<f4").tofile(raw)
        with open_volume(raw, VolumeMeta(dims=(4, 4, 8), dtype="f32")) as opened:
            scaled = random_volume(np.random.default_rng(14), (4, 4, 8), np.uint8)
            with mock.patch.object(np, "isfinite", side_effect=AssertionError("checked")):
                FilterBank(opened, 1, []), FilterBank(scaled, 1, [])
                with pytest.raises(AssertionError, match="checked"):
                    FilterBank(Volume(np.ones((4, 4, 8), np.float32)), 1, [])

    def test_u8_values_match_a_float32_cast_divided_by_255(self):
        u = Volume(np.arange(256, dtype=np.uint8).reshape(4, 8, 8), scale=255)
        expected = u.data.astype(np.float32) / np.float32(255)
        assert u.dtype == np.float32 and u.values().tobytes() == expected.tobytes()
        out = np.empty((8, 8), np.float32)
        assert u.values(1, out=out) is out and out.tobytes() == expected[1].tobytes()

    def test_depth_out_of_range_rejected(self):
        v = random_volume(np.random.default_rng(10), (4, 4, 8), np.float32)
        for depth in (0, 9):
            with pytest.raises(ValueError, match="depth"):
                convolve_separable(v, make_smoothing_kernel(1), depth=depth)


class TestFusedPass:
    """``convolve_fields`` runs several kernels in one pass over x-slabs."""

    # an odd box and a box of other halos, a smoothing whose u8 y sums
    # widen to int32 (its x pass needs scratch), and identity x and y taps
    KERNELS = (make_derivative_kernel(2, 3), make_smoothing_kernel(3),
               make_derivative_kernel(1, 1))

    @pytest.mark.parametrize("slab_bytes", [1, 12000, None], ids=["one-plane", "few-planes", "default"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fmt", ["u8-xyz", "f32-zxy"])
    @pytest.mark.parametrize("source", ["volume", "opened"])
    def test_bitwise_equal_to_one_kernel_passes(self, tmp_path, source, fmt, threads, slab_bytes):
        rng = np.random.default_rng(21)
        dims = (13, 9, 30)
        dtype, order = fmt.split("-")
        if dtype == "u8":
            samples = rng.integers(0, 256, dims, dtype=np.uint8)
        else:
            samples = (rng.random(dims, dtype=np.float32) * 3 - 1).astype("<f4")
        perm = tuple("xyz".index(ax) for ax in order)
        raw = tmp_path / "v.raw"
        np.ascontiguousarray(samples.transpose(perm)).tofile(raw)
        meta = VolumeMeta(dims=tuple(dims[p] for p in perm), dtype=dtype, order=order)
        volume = read_volume(raw, meta) if source == "volume" else open_volume(raw, meta)
        slab = filters._FILTER_SLAB_BYTES if slab_bytes is None else slab_bytes
        try:
            with mock.patch.object(filters, "_FILTER_SLAB_BYTES", slab):
                for depth in (30, 19):
                    fused = filters.convolve_fields(volume, self.KERNELS, threads, depth)
                    for kernel, field in zip(self.KERNELS, fused):
                        alone = convolve_separable(volume, kernel, threads, depth)
                        assert field.data.dtype == alone.data.dtype
                        assert field.scale == alone.scale and field.nz == depth
                        assert field.data.tobytes() == alone.data.tobytes()
        finally:
            if source == "opened":
                volume.close()

    def test_a_readers_planned_fields_come_from_one_pass(self):
        v = random_volume(np.random.default_rng(22), (9, 7, 30), np.uint8)
        # RPE and ILM read derivative(3, 3), IS/OS derivative(3, 5), all smoothing(1)
        bank = FilterBank(v, 1, [(3, 3, 1), (3, 5, 1), (3, 3, 1)])
        passes = []
        fused = filters.convolve_fields

        def counted(volume, kernels, threads=1, depth=None):
            passes.append([(k.kx.size, k.kz.size) for k in kernels])
            return fused(volume, kernels, threads, depth)

        with mock.patch.object(filters, "convolve_fields", counted):
            deriv, smooth = bank.fields((3, 3, 1), 20)
            assert passes == [[(3, 7), (3, 3)]]
            bank.fields((3, 5, 1), 12)
            assert passes[1:] == [[(5, 7)]]  # its smoothing is kept
            bank.fields((3, 3, 1), 12)
            assert len(passes) == 2  # both of its fields are kept
        for kernel, field in ((make_derivative_kernel(3, 3), deriv),
                              (make_smoothing_kernel(1), smooth)):
            ref = exact_u8_reference(v, kernel, 12)
            assert field.values().tobytes() == np.ascontiguousarray(ref).tobytes()


def stored_dtype(kernel):
    """The narrowest dtype that holds the sums of u8 samples under a
    pipeline kernel: 255 times each axis's count of samples (a box's
    length, an odd box's half-width), in int16 or int32; identity taps
    keep the samples' uint8."""
    counts = [t.size if t[-1] > 0 else t.size // 2 for t in (kernel.kz, kernel.kx, kernel.ky)
              if t.size > 1]
    if not counts:
        return np.dtype(np.uint8)
    bound = 255 * int(np.prod(counts))
    assert bound < 2**24  # float32 holds every sum exactly
    return np.dtype(np.int16 if bound < 2**15 else np.int32)


class TestExactSums:
    """u8 samples under box, odd-box or identity taps are summed as integer
    tap counts and kept as those sums with their scale (``TestFilterBank``
    holds their values to the exact reference at any thread count, slab
    size and depth); other taps keep the float32 values path."""

    @given(dims=st.tuples(st.integers(3, 9), st.integers(3, 7), st.integers(5, 24)),
           seed=st.integers(0, 2**32 - 1), order=st.sampled_from(["xyz", "zxy", "yzx"]),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_bank_fields_are_sums_in_the_narrowest_dtype(self, tmp_path_factory, dims, seed,
                                                         order, data):
        # a u8 file of any order loads as its samples, scale 255; every
        # field of the bank is the exact sums in int16 where they fit, else
        # int32, and its values are the exact reference's
        rng = np.random.default_rng(seed)
        samples = rng.integers(0, 256, dims, dtype=np.uint8)
        perm = tuple("xyz".index(ax) for ax in order)
        raw = tmp_path_factory.mktemp("u8") / "v.raw"
        np.ascontiguousarray(samples.transpose(perm)).tofile(raw)
        v = read_volume(raw, VolumeMeta(dims=tuple(dims[p] for p in perm), order=order))
        assert v.scale == 255 and v.data.tobytes() == samples.tobytes()
        radius = data.draw(st.integers(0, (min(dims) - 1) // 2), label="radius")
        half_width = data.draw(st.integers(1, (dims[2] - 1) // 2), label="half_width")
        lateral = data.draw(st.sampled_from(range(1, min(dims[:2]) + 1, 2)), label="lateral")
        depth = data.draw(st.integers(1, dims[2]), label="depth")
        for threads in (1, 2):
            reader = (half_width, lateral, radius)
            fields = FilterBank(v, threads, [reader]).fields(reader, depth)
            for kernel, field in zip((make_derivative_kernel(half_width, lateral),
                                      make_smoothing_kernel(radius)), fields):
                ref = exact_u8_reference(v, kernel, depth)
                assert field.data.dtype == stored_dtype(kernel)
                assert field.values().tobytes() == np.ascontiguousarray(ref).tobytes()

    @pytest.mark.parametrize("case", ["smoothing", "two_odd_axes"])
    def test_sums_beyond_int16_are_exact(self, case):
        # radius-4 smoothing of saturated samples sums up to 9**3 * 255 in
        # its last pass; odd boxes of half-width 9 along z and then x sum
        # differences of differences, up to 2 * 9 * 9 * 255 in the x pass
        if case == "smoothing":
            kernel, divisor = make_smoothing_kernel(4), 9**3 * 255
            data = np.zeros((12, 11, 20), np.uint8)
            data[:, :, ::3] = 255
            data[1::2] = 255
        else:
            odd = make_derivative_kernel(9, lateral=1).kz
            kernel, divisor = SeparableKernel(kx=odd, ky=[1.0], kz=odd), 9 * 9 * 255
            x, z = np.meshgrid(np.arange(24), np.arange(24), indexing="ij")
            data = np.repeat(((x < 12) == (z < 12))[:, None, :] * np.uint8(255), 3, axis=1)
        v = Volume(data, scale=255)
        ref = exact_u8_reference(v, kernel)
        assert np.abs(ref).max() * divisor > 2**15  # some sums pass int16
        for threads in (1, 2):
            out = convolve_separable(v, kernel, threads)
            assert out.data.dtype == np.int32 and out.values().tobytes() == ref.tobytes()

    def test_identity_taps_give_the_values(self):
        # a copy of the samples, with their scale
        v = random_volume(np.random.default_rng(14), (5, 6, 7), np.uint8)
        out = convolve_separable(v, SeparableKernel([1.0], [1.0], [1.0]))
        assert out.data.dtype == np.uint8 and out.scale == 255
        assert out.data.tobytes() == v.data.tobytes() and out.data is not v.data

    @pytest.mark.parametrize("kernel", [
        SeparableKernel(kx=[0.25, 0.5, 0.25], ky=[1.0], kz=[0.2, 0.2, 0.2, 0.2, 0.2]),
        SeparableKernel(kx=[1 / 3] * 3, ky=[1 / 3] * 3, kz=[0.5, 0.0, 0.5]),
        make_smoothing_kernel(20),  # 41**3 * 255 >= 2**24: float32 cannot hold the sums
    ], ids=["general", "symmetric", "too_wide"])
    def test_other_taps_filter_the_float32_values(self, kernel):
        rng = np.random.default_rng(15)
        v = random_volume(rng, (kernel.kx.size, kernel.ky.size + 2, kernel.kz.size + 3), np.uint8)
        values = Volume(v.values())
        for threads in (1, 2):
            out = convolve_separable(v, kernel, threads).data
            assert out.tobytes() == convolve_separable(values, kernel, threads).data.tobytes()

    def test_integer_sums_need_box_taps(self):
        arr = np.zeros((4, 6), np.uint8)
        with pytest.raises(ValueError, match="box or odd-box"):
            filters._correlate1d(arr, np.array([0.25, 0.5, 0.25]), 1, sums=np.int16)
        with pytest.raises(ValueError, match="uint8 samples need integer sums"):
            filters._correlate1d(arr, np.full(3, 1 / 3), 1)


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


def reference_correlate1d(arr, taps, axis):
    """``scipy.ndimage.correlate1d(arr, taps, axis, mode="nearest")`` in
    numpy, bit for bit: edge-replicated, summed in float64 in scipy's order,
    cast back to the input's dtype.

    Taps symmetric or antisymmetric within DBL_EPSILON start from the
    centre term and add each mirrored pair, summed or differenced before it
    is weighted, from the outermost pair inwards; other taps start from the
    last term and add the rest in order.
    """
    w = np.asarray(taps, dtype=np.float64)
    h = w.size // 2
    right, left = w[h + 1 :], w[:h][::-1]
    eps = np.finfo(np.float64).eps
    # written as "not > eps" so that NaN taps test as scipy's do
    if not np.any(np.abs(right - left) > eps):
        pair = np.add
    elif not np.any(np.abs(right + left) > eps):
        pair = np.subtract
    else:
        pair = None
    pad = np.moveaxis(np.asarray(arr, dtype=np.float64), axis, -1)
    pad = np.pad(pad, [(0, 0)] * (pad.ndim - 1) + [(h, h)], mode="edge")
    n = arr.shape[axis]

    def x(j):  # the samples j places from each output sample
        return pad[..., h + j : h + j + n]

    if pair is not None:
        acc = x(0) * w[h]
        for j in range(h, 0, -1):
            acc = acc + pair(x(-j), x(j)) * w[h - j]
    else:
        acc = x(h) * w[2 * h]
        for j in range(-h, h):
            acc = acc + x(j) * w[h + j]
    return np.moveaxis(acc, -1, axis).astype(arr.dtype)


class TestCorrelate1d:
    @given(correlation_cases())
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_scipy(self, case):
        # the reference that _correlate1d's bound is stated against
        ndimage = pytest.importorskip("scipy.ndimage")
        arr, axis, taps = case
        ref = ndimage.correlate1d(arr, taps, axis=axis, mode="nearest")
        out = reference_correlate1d(arr, taps, axis)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == ref.tobytes()

    @given(correlation_cases(), st.sampled_from([1, 5, 64, filters._BLOCK_SAMPLES]))
    # a tap that rounds into float32's subnormal range, times |x| = 7
    @example(case=(np.array([7.0], np.float32), 0, np.array([1.17549435e-41])), block=1)
    @settings(max_examples=300, deadline=None)
    def test_within_bound_of_reference(self, case, block):
        # sums in the input's dtype, against float64 sums in scipy's order.
        # Besides (taps.size + 1) * eps * sum|w| * max|x|, the bound allows
        # for the reference's own error, up to h * DBL_EPSILON * max|x|, as
        # its pairing rule weights both samples of a pair whose taps differ
        # by up to DBL_EPSILON with one of them; for a subnormal step per
        # tap, the absolute error of results that underflow; and for the
        # taps' cast into the dtype, which rounds a tap in its subnormal
        # range by up to half a subnormal step, an error that each of the
        # taps.size terms multiplies by its |x|.  Blocks of any size give
        # the same bits
        arr, axis, taps = case
        with mock.patch.object(filters, "_BLOCK_SAMPLES", block):
            out = filters._correlate1d(arr, taps, axis)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert out.tobytes() == filters._correlate1d(arr, taps, axis).tobytes()
        ref = reference_correlate1d(arr, taps, axis).astype(np.float64)
        info, pairing = np.finfo(arr.dtype), taps.size // 2 * np.finfo(np.float64).eps
        top, step = float(np.abs(arr).max()), float(info.smallest_subnormal)  # in float64
        bound = ((taps.size + 1) * (info.eps * np.abs(taps).sum() * top + step)
                 + pairing * top + taps.size * step / 2 * top)
        assert np.abs(out - ref).max() <= bound

    @given(correlation_cases(), st.sampled_from([1, 5, 64, filters._BLOCK_SAMPLES]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_output_range_is_the_whole_axis_slice(self, case, block, data):
        # outputs [lo, hi) written into out= are bitwise the whole-axis
        # call's; u8 samples under box or odd-box taps summed exactly
        arr, axis, taps = case
        sums = None
        if filters._tap_form(taps) and data.draw(st.booleans(), label="u8"):
            arr, sums = np.mod(np.rint(arr), 256).astype(np.uint8), np.dtype(np.int32)
        whole = filters._correlate1d(arr, taps, axis, sums=sums)
        n = arr.shape[axis]
        lo = data.draw(st.integers(0, n - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, n), label="hi")
        want = np.ascontiguousarray(whole[(slice(None),) * axis + (slice(lo, hi),)])
        out = np.full_like(want, np.nan if sums is None else -1)
        with mock.patch.object(filters, "_BLOCK_SAMPLES", block):
            assert filters._correlate1d(arr, taps, axis, lo, hi, out=out, sums=sums) is out
            made = filters._correlate1d(arr, taps, axis, lo, hi, sums=sums)
        assert out.tobytes() == want.tobytes() and made.tobytes() == want.tobytes()

    def test_out_must_fit_the_range(self):
        arr, taps = np.zeros((4, 6), np.float32), np.full(3, 1 / 3)
        for out in (np.empty((4, 3), np.float32), np.empty((4, 2), np.float64),
                    np.empty((2, 4), np.float32).T):
            with pytest.raises(ValueError, match="out must be"):
                filters._correlate1d(arr, taps, 1, 2, 4, out=out)
        # integer sums may be written into a wider integer dtype, and only there
        samples = np.arange(24, dtype=np.uint8).reshape(4, 6)
        narrow = filters._correlate1d(samples, taps, 1, sums=np.int16)
        wide = np.empty((4, 6), np.int32)
        assert filters._correlate1d(samples, taps, 1, out=wide, sums=np.int16) is wide
        assert np.array_equal(wide, narrow)
        for out in (np.empty((4, 6), np.int8), np.empty((4, 6), np.float32)):
            with pytest.raises(ValueError, match="or of a wider integer dtype"):
                filters._correlate1d(samples, taps, 1, out=out, sums=np.int16)
