"""Volume I/O: sidecar parsing, axis canonicalization, normalization."""

import itertools
import json
import os
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octseg import volume
from octseg.volume import (
    SizeMismatchError,
    Volume,
    VolumeMeta,
    load_bscan,
    open_volume,
    save_volume,
)
from reference import read_volume


def normalize(arr):
    """The reader's normalization of a float32 array by its own range."""
    return volume._normalize(arr, float(arr.min()), float(arr.max()))


def write_raw(path, arr):
    arr.tofile(path)
    return path


class TestMeta:
    def test_roundtrip_json(self, tmp_path):
        meta = VolumeMeta(dims=(4, 5, 6), dtype="f32", endian="le", order="zxy",
                          spacing_um=(7.0, 11.5, 11.5))
        p = tmp_path / "m.json"
        meta.save(p)
        assert VolumeMeta.from_json(p) == meta

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            VolumeMeta(dims=(2, 2, 2), order="xxy")

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            VolumeMeta(dims=(2, 2, 2), dtype="u16")

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            VolumeMeta(dims=(2, 0, 2))

    @pytest.mark.parametrize("key, value", [
        ("dims", 5), ("dims", [8.7, 8, 16]), ("dims", [8, 8]), ("dims", [8, False, 16]),
        ("spacing_um", 3), ("spacing_um", [1.0, "2", 3.0]), ("spacing_um", [1.0, float("nan"), 3.0]),
        ("order", 5), ("order", ["x", "y", "z"]),
    ])
    def test_rejects_mistyped_sidecar_value(self, key, value):
        d = {"dims": [8, 8, 16], key: value}
        with pytest.raises(ValueError, match=f"^{key} must be"):
            VolumeMeta.from_dict(d)

    def test_sidecar_lists_become_tuples(self):
        meta = VolumeMeta.from_dict({"dims": [8, 8, 16], "spacing_um": [1, 2.5, 3]})
        assert meta.dims == (8, 8, 16)
        assert meta.spacing_um == (1.0, 2.5, 3.0)

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            VolumeMeta.from_dict({"dims": [2, 2, 2], "flavor": "salted"})

    def test_nbytes(self):
        assert VolumeMeta(dims=(480, 300, 99), dtype="u8").nbytes == 480 * 300 * 99
        assert VolumeMeta(dims=(2, 3, 4), dtype="f32").nbytes == 96


class TestLoad:
    def test_u8_endpoint_scaling(self, tmp_path):
        arr = np.array([0, 255, 128, 51], dtype=np.uint8).reshape(1, 2, 2)
        p = write_raw(tmp_path / "v.raw", arr)
        meta = VolumeMeta(dims=(1, 2, 2), order="xyz")
        v = read_volume(p, meta)
        assert v.data.dtype == np.uint8 and v.scale == 255 and v.values().dtype == np.float32
        assert v.values()[0, 0, 0] == 0.0
        assert v.values()[0, 0, 1] == 1.0
        assert v.values()[0, 1, 0] == np.float32(128 / 255)
        assert v.values()[0, 1, 1] == np.float32(51 / 255)

    def test_size_mismatch_reports_both_sizes(self, tmp_path):
        p = tmp_path / "v.raw"
        p.write_bytes(b"\x00" * 7)
        meta = VolumeMeta(dims=(2, 2, 2), order="xyz")
        with pytest.raises(SizeMismatchError) as exc:
            open_volume(p, meta)
        assert exc.value.expected == 8
        assert exc.value.actual == 7
        assert str(exc.value) == f"{p}: declared dims need 8 bytes, file has 7"

    def test_missing_file_raises_oserror(self, tmp_path):
        meta = VolumeMeta(dims=(2, 2, 2), order="xyz")
        with pytest.raises(OSError, match="absent.raw"):
            open_volume(tmp_path / "absent.raw", meta)

    def test_non_finite_samples_rejected(self, tmp_path):
        arr = np.zeros((5, 3, 4), dtype="<f4")  # file order zxy: (nz, nx, ny)
        arr[4, 2, 1] = np.inf
        arr[2, 1, 3] = np.nan
        arr[3, 1, 3] = -np.inf
        arr[0, 2, 0] = np.nan
        p = write_raw(tmp_path / "v.raw", arr)
        meta = VolumeMeta(dims=(5, 3, 4), dtype="f32", order="zxy")
        # the first bad voxel in (x, y, z) order is x=1, y=3, z=2, though
        # the file holds (x, y, z) = (2, 0, 0) first; reads of two samples
        # find them in different reads
        message = (rf"^{re.escape(str(p))}: 4 non-finite voxel\(s\), "
                   r"first at \(x, y, z\) = \(1, 3, 2\)$")
        for range_bytes in (8, volume._RANGE_BYTES):
            with mock.patch.object(volume, "_RANGE_BYTES", range_bytes):
                with pytest.raises(ValueError, match=message):
                    open_volume(p, meta)

    def test_axis_permutation_zxy(self, tmp_path):
        # file stores depth slowest; loader must land values at [x, y, z]
        rng = np.random.default_rng(0)
        file_arr = rng.integers(0, 256, size=(5, 3, 2), dtype=np.uint8)  # (z, x, y)
        p = write_raw(tmp_path / "v.raw", file_arr)
        meta = VolumeMeta(dims=(5, 3, 2), order="zxy")
        v = read_volume(p, meta)
        assert v.dims == (3, 2, 5)
        for z in range(5):
            for x in range(3):
                for y in range(2):
                    assert v.values()[x, y, z] == np.float32(file_arr[z, x, y] / 255)

    def test_permutation_preserves_value_multiset(self, tmp_path):
        rng = np.random.default_rng(1)
        file_arr = rng.integers(0, 256, size=(4, 6, 5), dtype=np.uint8)
        p = write_raw(tmp_path / "v.raw", file_arr)
        for order, dims in [("zxy", (4, 6, 5)), ("yzx", (4, 6, 5)), ("xyz", (4, 6, 5))]:
            v = read_volume(p, VolumeMeta(dims=dims, order=order))
            assert np.array_equal(
                np.sort(v.values(), axis=None),
                np.sort(file_arr.astype(np.float32).ravel() / 255),
            )

    def test_spacing_follows_axes(self, tmp_path):
        arr = np.zeros((5, 3, 2), dtype=np.uint8)
        p = write_raw(tmp_path / "v.raw", arr)
        meta = VolumeMeta(dims=(5, 3, 2), order="zxy", spacing_um=(7.0, 11.0, 13.0))
        v = read_volume(p, meta)
        # file axes are (z, x, y): dz=7, dx=11, dy=13
        assert v.spacing == (11.0, 13.0, 7.0)

    def test_ascan_scale_shape(self, tmp_path):
        # depth-major file at clinical scale lands depth on the last axis
        arr = np.zeros((480, 30, 9), dtype=np.uint8)
        p = write_raw(tmp_path / "v.raw", arr)
        v = read_volume(p, VolumeMeta(dims=(480, 30, 9), order="zxy"))
        assert v.dims == (30, 9, 480)
        assert v.data[0, 0].flags["C_CONTIGUOUS"]


    @pytest.mark.parametrize("order", ["".join(p) for p in itertools.permutations("xyz")])
    @pytest.mark.parametrize("dtype, endian", [("u8", "le"), ("f32", "le"), ("f32", "be")])
    def test_values_bitwise_equal_to_a_float32_load(self, tmp_path, order, dtype, endian):
        # the loader once converted the whole file: astype(float32), scaled
        # u8 by 1/255 or normalized f32, then made it contiguous
        rng = np.random.default_rng(3)
        code = {"u8": "u1", "f32": "<f4" if endian == "le" else ">f4"}[dtype]
        if dtype == "u8":
            file_arr = rng.integers(0, 256, size=(5, 4, 3)).astype(code)
        else:
            file_arr = (rng.standard_normal((5, 4, 3)) * 3).astype(code)
        p = write_raw(tmp_path / "v.raw", file_arr)
        v = read_volume(p, VolumeMeta(dims=(5, 4, 3), dtype=dtype, endian=endian, order=order))
        arr = file_arr.transpose(tuple(order.index(ax) for ax in "xyz")).astype(np.float32)
        ref = arr / np.float32(255.0) if dtype == "u8" else normalize(arr)
        assert v.data.dtype == (np.uint8 if dtype == "u8" else np.float32)
        assert v.data.flags["C_CONTIGUOUS"] and v.dtype == np.float32
        assert v.values().tobytes() == np.ascontiguousarray(ref).tobytes()


ORDERS = ["".join(p) for p in itertools.permutations("xyz")]


def random_file(path, dims, dtype, endian="le", wide=False, seed=6):
    """Random samples of file dims ``dims`` written to ``path``: u8, or f32
    inside [0, 1) or, ``wide``, outside it."""
    rng = np.random.default_rng(seed)
    if dtype == "u8":
        arr = rng.integers(0, 256, size=dims).astype("u1")
    else:
        arr = (rng.standard_normal(dims) * 3 if wide else rng.random(dims))
        arr = arr.astype("<f4" if endian == "le" else ">f4")
    return write_raw(path, arr)


class TestOpenVolume:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("dtype, endian, wide", [
        ("u8", "le", False), ("f32", "le", False), ("f32", "be", False), ("f32", "le", True),
        ("f32", "be", True),
    ])
    @pytest.mark.parametrize("read_bytes", [1, 40, 1 << 16])
    def test_slabs_bitwise_equal_to_the_loaded_volume(self, tmp_path, order, dtype, endian,
                                                      wide, read_bytes):
        # reads of one run, of a few runs with the gaps between them, and of all
        dims = (5, 6, 7)
        p = random_file(tmp_path / "v.raw", dims, dtype, endian, wide)
        meta = VolumeMeta(dims=dims, dtype=dtype, endian=endian, order=order,
                          spacing_um=(1.0, 2.0, 3.0))
        loaded = read_volume(p, meta)
        nx, _, nz = loaded.dims
        with mock.patch.object(volume, "_READ_BYTES", read_bytes), open_volume(p, meta) as raw:
            assert (raw.dims, raw.spacing, raw.scale, raw.dtype) == (
                loaded.dims, loaded.spacing, loaded.scale, loaded.dtype)
            assert (raw.data.shape, raw.data.dtype, raw.data.size, raw.data.nbytes) == (
                loaded.data.shape, loaded.data.dtype, loaded.data.size, loaded.data.nbytes)
            for x0, x1 in [(0, nx), (0, 1), (1, 3), (nx - 1, nx)]:
                for index in (np.s_[x0:x1], np.s_[x0:x1, :, :1], np.s_[x0:x1, :, : nz - 2]):
                    got = raw.data[index]
                    assert got.dtype == loaded.data.dtype
                    assert got.tobytes() == loaded.data[index].tobytes()
                    assert raw.values(index).tobytes() == loaded.values(index).tobytes()

    def test_reads_that_return_less_are_continued(self, tmp_path, monkeypatch):
        # a read may return fewer bytes than asked (a signal, or more than
        # the kernel moves in one call) without the file having shrunk
        dims = (5, 6, 7)
        p = random_file(tmp_path / "v.raw", dims, "f32", wide=True)
        meta = VolumeMeta(dims=dims, dtype="f32", order="zxy")
        loaded = read_volume(p, meta)
        preadv = os.preadv
        monkeypatch.setattr(volume.os, "preadv",
                            lambda fd, bufs, offset: preadv(fd, [bufs[0][:3]], offset))
        with open_volume(p, meta) as raw:
            assert raw.data[1:4, :, :5].tobytes() == loaded.data[1:4, :, :5].tobytes()
            assert load_bscan(p, meta, 2).tobytes() == loaded.values(np.s_[:, 2]).tobytes()

    def test_each_read_refills_the_threads_buffer(self, tmp_path):
        dims = (4, 5, 6)
        p = random_file(tmp_path / "v.raw", dims, "u8")
        with open_volume(p, VolumeMeta(dims=dims, order="zxy")) as raw:
            first = raw.data[0:2]
            copy = first.copy()
            second = raw.data[2:4]
            assert np.shares_memory(first, second)
            assert not np.array_equal(first, copy)

    @pytest.mark.parametrize("size_change", [-1, 1])
    def test_a_file_that_changes_size_after_opening_raises_naming_it(self, tmp_path,
                                                                     size_change):
        dims = (4, 5, 6)
        p = random_file(tmp_path / "v.raw", dims, "f32")
        meta = VolumeMeta(dims=dims, dtype="f32", order="xyz")
        with open_volume(p, meta) as raw:
            raw.data[0:4]
            with open(p, "r+b") as f:
                f.truncate(meta.nbytes + size_change)
            # a read that ends before the change, and one that reaches it
            for index in (np.s_[0:1], np.s_[3:4]):
                with pytest.raises(OSError, match=f"^{re.escape(str(p))}: the file changed"):
                    raw.data[index]

    def test_reads_take_non_empty_unit_step_slices(self, tmp_path):
        dims = (4, 5, 6)
        p = random_file(tmp_path / "v.raw", dims, "u8")
        with open_volume(p, VolumeMeta(dims=dims, order="xyz")) as raw:
            for index in (0, np.s_[::2], np.s_[2:1], np.s_[0:1, 0], np.s_[:, :, :, :], [0, 1]):
                with pytest.raises(IndexError, match="reads take non-empty unit-step slices"):
                    raw.data[index]

    def test_closes_the_file(self, tmp_path):
        dims = (4, 5, 6)
        p = random_file(tmp_path / "v.raw", dims, "u8")
        with open_volume(p, VolumeMeta(dims=dims, order="xyz")) as raw:
            raw.data[0:1]
        with pytest.raises(ValueError, match="closed file"):
            raw.data[0:1]


class TestLoadBscan:
    @pytest.mark.parametrize("order", ["".join(p) for p in itertools.permutations("xyz")])
    @pytest.mark.parametrize("dtype", ["u8", "f32"])
    @pytest.mark.parametrize("read_bytes", [1, 7, 40, 1 << 16])
    def test_bitwise_equal_to_the_loaded_volume(self, tmp_path, order, dtype, read_bytes):
        # any file order, reads of one run (1 byte), of a few runs and of all
        rng = np.random.default_rng(4)
        dims = (5, 4, 6)
        if dtype == "u8":
            file_arr = rng.integers(0, 256, size=dims).astype("u1")
        else:
            file_arr = (rng.standard_normal(dims) * 3).astype("<f4")
        p = write_raw(tmp_path / "v.raw", file_arr)
        meta = VolumeMeta(dims=dims, dtype=dtype, order=order)
        full = read_volume(p, meta)
        with mock.patch.object(volume, "_READ_BYTES", read_bytes):
            for y in range(full.ny):
                bscan = load_bscan(p, meta, y)
                assert bscan.shape == (full.nx, full.nz) and bscan.dtype == np.float32
                assert bscan.tobytes() == full.values(np.s_[:, y, :]).tobytes()

    @pytest.mark.parametrize("dtype, order", [
        *(pytest.param("u8", order, id=order) for order in ("xyz", "zxy", "yzx")),
        *(pytest.param("f32", order, id=f"f32-{order}") for order in ("xyz", "zxy", "yzx")),
    ])
    def test_u8_file_read_without_the_rest_of_the_volume(self, tmp_path, dtype, order):
        # 512 KiB of u8 samples, a B-scan of 8 KiB, 32 KiB as float32, reads
        # of at most 64 KiB; an f32 file holds 2 MiB, and its range pass
        # reads 256 KiB at a time
        dims = (64, 64, 128)
        p = random_file(tmp_path / "v.raw", dims, dtype, wide=True, seed=5)
        file_arr = np.fromfile(p, dtype="u1")
        meta = VolumeMeta(dims=dims, dtype=dtype, order=order)
        tracemalloc.start()
        try:
            load_bscan(p, meta, 17)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < file_arr.nbytes / 2

    def test_size_and_slice_checked(self, tmp_path):
        p = tmp_path / "v.raw"
        p.write_bytes(b"\x00" * 7)
        with pytest.raises(SizeMismatchError):
            load_bscan(p, VolumeMeta(dims=(2, 2, 2), order="xyz"), 0)
        for y in (-1, 3):
            with pytest.raises(ValueError, match=rf"slice index {y} outside \[0, 3\)"):
                load_bscan(p, VolumeMeta(dims=(2, 3, 2), order="zyx"), y)


class TestNormalization:
    def test_in_range_untouched(self):
        arr = np.array([0.0, 0.25, 1.0], dtype=np.float32)
        out = normalize(arr)
        assert out is arr or np.array_equal(out, arr)

    def test_out_of_range_rescaled_to_unit(self):
        arr = np.array([-2.0, 0.0, 6.0], dtype=np.float32)
        out = normalize(arr)
        assert out.min() == 0.0
        assert out.max() == 1.0
        assert np.allclose(out, [0.0, 0.25, 1.0])

    def test_constant_out_of_range_collapses_to_zero(self):
        out = normalize(np.full(5, 7.0, dtype=np.float32))
        assert np.array_equal(out, np.zeros(5, dtype=np.float32))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        arr = (rng.standard_normal((3, 4, 5)) * rng.uniform(0.1, 50)).astype(np.float32)
        once = normalize(arr)
        twice = normalize(once)
        assert np.array_equal(once, twice)


class TestSave:
    def test_float_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.random((4, 3, 5)).astype(np.float32)
        data.flat[0] = 0.0
        data.flat[1] = 1.0
        v = Volume(data, spacing=(10.0, 10.0, 7.0))
        meta = save_volume(v, tmp_path / "v.raw")
        assert meta.dims == (4, 3, 5)
        back = read_volume(tmp_path / "v.raw", VolumeMeta.from_json(tmp_path / "v.raw.json"))
        assert np.array_equal(back.data, data)
        assert back.spacing == (10.0, 10.0, 7.0)

    def test_u8_roundtrip_on_quantized_values(self, tmp_path):
        data = (np.arange(24, dtype=np.float32) % 256 / 255).reshape(2, 3, 4)
        v = Volume(data)
        save_volume(v, tmp_path / "v.raw", dtype="u8")
        back = read_volume(tmp_path / "v.raw", VolumeMeta.from_json(tmp_path / "v.raw.json"))
        assert np.array_equal(back.values(), data)

    def test_u8_volume_saves_its_samples_and_values(self, tmp_path):
        samples = np.arange(256, dtype=np.uint8).reshape(4, 8, 8)
        v = Volume(samples, spacing=(1.0, 2.0, 3.0), scale=255)
        save_volume(v, tmp_path / "u.raw", dtype="u8")
        assert (tmp_path / "u.raw").read_bytes() == samples.tobytes()
        save_volume(v, tmp_path / "f.raw")
        back = read_volume(tmp_path / "f.raw", VolumeMeta.from_json(tmp_path / "f.raw.json"))
        assert back.data.tobytes() == (samples.astype(np.float32) / np.float32(255)).tobytes()
        assert back.spacing == (1.0, 2.0, 3.0)
        # the float route quantizes every u8 value back to itself
        save_volume(back, tmp_path / "q.raw", dtype="u8")
        assert (tmp_path / "q.raw").read_bytes() == samples.tobytes()

    def test_rejects_unknown_dtype(self, tmp_path):
        with pytest.raises(ValueError):
            save_volume(Volume(np.zeros((1, 1, 1))), tmp_path / "v.raw", dtype="f64")


class TestVolumeType:
    def test_rejects_non_3d(self):
        with pytest.raises(ValueError):
            Volume(np.zeros((2, 2)))

    def test_casts_ints_to_float32(self):
        v = Volume(np.arange(8, dtype=np.int64).reshape(2, 2, 2))
        assert v.data.dtype == np.float32

    def test_u8_samples_stay_u8_only_when_asked(self):
        # integer samples with a scale stand for f32(samples) / f32(scale)
        samples = np.arange(8, dtype=np.uint8).reshape(2, 2, 2)
        v = Volume(samples, scale=255)
        assert v.data.dtype == np.uint8 and v.dtype == np.float32
        assert v.values(np.s_[1]).tobytes() == (samples[1].astype(np.float32)
                                                / np.float32(255)).tobytes()
        sums = Volume(samples.astype(np.int16) - 4, scale=255 / 27)
        assert sums.values().tobytes() == ((samples.astype(np.float32) - 4)
                                           / np.float32(255 / 27)).tobytes()
        assert Volume(samples).data.dtype == np.float32  # a plain cast, as for any int
        with pytest.raises(ValueError, match="scaled volume data must be integers"):
            Volume(samples.astype(np.float32), scale=255)
        for scale in (0, -255, 1e-40, 1e40, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="scale must be a positive normal float32"):
                Volume(samples, scale=scale)

    def test_keeps_float64(self):
        v = Volume(np.zeros((2, 2, 2), dtype=np.float64))
        assert v.data.dtype == np.float64
