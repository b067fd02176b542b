"""Single-boundary extraction, the cascade, ordering, and run reports."""

import dataclasses
import itertools
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octseg import filters, pipeline
from octseg.enhance import DegenerateNormalizationWarning
from octseg.filters import FilterBank
from octseg.phantom import PhantomSpec, generate_phantom, surface_error
from octseg.pipeline import (
    BoundaryProfile,
    PipelineConfig,
    PipelineError,
    enforce_ordering,
    segment_boundary,
    segment_retina,
)
from octseg.surfaces import SearchMask, Surface
from octseg.volume import Volume, VolumeMeta, open_volume
from reference import read_volume


def two_layer_volume(nx=48, ny=12, nz=128, hi=0.8, lo=0.2):
    """Bright above a gently tilted interface, dark below."""
    xx, yy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    z_true = 60.0 + 0.15 * xx - 0.1 * yy
    k = np.arange(nz)[None, None, :]
    data = np.where(k < z_true[:, :, None], hi, lo).astype(np.float32)
    return Volume(data), z_true


BRIGHT_ABOVE = BoundaryProfile(
    name="step", polarity="bright_above", weight_direction="favor_deep"
)


class TestSegmentBoundary:
    def test_recovers_step_interface(self):
        vol, z_true = two_layer_volume()
        res = segment_boundary(vol, BRIGHT_ABOVE)
        rms = float(np.sqrt(np.mean((res.surface.z - z_true) ** 2)))
        assert rms <= 1.0
        assert res.surface.valid.all()

    def test_report_counters_single_pass(self):
        vol, _ = two_layer_volume()
        res = segment_boundary(vol, BRIGHT_ABOVE)
        assert res.report.enhance_passes == 1
        assert res.report.argmax_passes == 1
        assert not res.report.degenerate
        assert res.report.wall_s > 0
        assert list(res.report.stage_s) == ["filters", "enhance", "outlier_reject", "regularize"]
        assert res.report.columns_total == 48 * 12
        assert res.report.columns_searched == 48 * 12

    def test_constant_volume_flagged_degenerate(self):
        vol = Volume(np.full((24, 12, 40), 0.5, dtype=np.float32))
        with pytest.warns(DegenerateNormalizationWarning):
            res = segment_boundary(vol, BRIGHT_ABOVE)
        assert res.report.degenerate
        assert res.surface.valid.all()  # still a total surface, not a crash

    def test_empty_mask_everywhere_is_pipeline_error(self):
        vol, _ = two_layer_volume(nx=16, ny=8, nz=64)
        mask = SearchMask(k_hi=np.zeros((16, 8), dtype=np.int32), nz=64)
        with pytest.raises(PipelineError) as exc:
            segment_boundary(vol, BRIGHT_ABOVE, mask)
        assert "step" in str(exc.value)  # boundary name
        assert "stage" in str(exc.value)

    def test_mask_restricts_result(self):
        vol, z_true = two_layer_volume()
        nx, ny, nz = vol.dims
        # windows [0, 90) hold the step at depths 59-67 and windows [0, 50)
        # in the deeper half of x end above it; the last y columns are not
        # searched, and the cleanup fills them from the picks
        half = nx // 2
        k_hi = np.full((nx, ny), 90, dtype=np.int32)
        k_hi[half:] = 50
        k_hi[:, -4:] = 0
        res = segment_boundary(vol, BRIGHT_ABOVE, SearchMask(k_hi=k_hi, nz=nz))
        assert res.report.columns_searched == nx * (ny - 4)
        assert res.surface.valid.all()
        z = res.surface.z
        assert np.abs(z - z_true)[: half - 3].max() <= 1.5
        assert (z[half + 3 :] <= 49.0).all()  # smoothing mixes only x within 2

    def test_determinism_repeat_call(self):
        vol, _ = two_layer_volume()
        a = segment_boundary(vol, BRIGHT_ABOVE).surface.z
        b = segment_boundary(vol, BRIGHT_ABOVE).surface.z
        assert np.array_equal(a, b)

    def test_shared_bank_matches_one_off_bank(self):
        vol, _ = two_layer_volume()
        nx, ny, nz = vol.dims
        below = dataclasses.replace(BRIGHT_ABOVE, polarity="bright_below")
        sizes = pipeline._filter_sizes(BRIGHT_ABOVE)
        bank = FilterBank(vol, 1, [sizes, sizes])
        shared = segment_boundary(vol, BRIGHT_ABOVE, bank=bank).surface.z
        assert np.array_equal(shared, segment_boundary(vol, BRIGHT_ABOVE).surface.z)
        # the step is bright above, so the clamped bright-below derivative is flat
        with pytest.warns(DegenerateNormalizationWarning, match="derivative"):
            shared = segment_boundary(vol, below, bank=bank).surface.z
            assert np.array_equal(shared, segment_boundary(vol, below).surface.z)

        def band(end):  # windows [0, end) in every column
            return SearchMask(k_hi=np.full((nx, ny), end, dtype=np.int32), nz=nz)

        # bands that end no deeper than the one before: the wider derivative
        # is a new field and cuts the kept ones to 90, which are then read
        # again at 80 as they are
        wide = dataclasses.replace(BRIGHT_ABOVE, lateral_width=5)
        bank = FilterBank(vol, 1, [sizes, pipeline._filter_sizes(wide), sizes])
        for profile, end in ((BRIGHT_ABOVE, 110), (wide, 90), (BRIGHT_ABOVE, 80)):
            shared = segment_boundary(vol, profile, band(end), bank=bank).surface.z
            assert np.array_equal(shared, segment_boundary(vol, profile, band(end)).surface.z)
        bank = FilterBank(vol, 1, [sizes, sizes])
        segment_boundary(vol, BRIGHT_ABOVE, band(90), bank=bank)
        with pytest.raises(PipelineError, match="step: stage 'filters': planes z < 110"):
            segment_boundary(vol, BRIGHT_ABOVE, band(110), bank=bank)

    def test_filter_failure_names_boundary_and_stage(self):
        vol, _ = two_layer_volume(nx=8, ny=6, nz=64)
        wide = dataclasses.replace(BRIGHT_ABOVE, smoothing_radius=4)  # 9 > nx
        with pytest.raises(PipelineError, match="step: stage 'filters': kernel extent 9 exceeds "
                                                "volume size 8 along x"):
            segment_boundary(vol, wide)

    def test_lone_boundary_compares_kernel_sizes_before_building_any(self, monkeypatch):
        # the one-off bank of a lone boundary must not build taps that long
        def unbuilt(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(filters, "make_derivative_kernel", unbuilt)
        monkeypatch.setattr(filters, "make_smoothing_kernel", unbuilt)
        vol, _ = two_layer_volume(nx=16, ny=8, nz=64)
        huge = dataclasses.replace(BRIGHT_ABOVE, derivative_half_width=10**6)
        with pytest.raises(PipelineError, match="^step: stage 'filters': kernel extent 2000001 "
                                                "exceeds volume size 64 along z$"):
            segment_boundary(vol, huge)


class TestCascade:
    def test_noiseless_phantom_all_boundaries(self):
        spec = PhantomSpec.default(dims=(64, 16, 128))
        vol, truth = generate_phantom(spec)
        res = segment_retina(vol)
        for key in ("ilm", "isos", "rpe"):
            err = surface_error(res.surfaces[key], getattr(truth, key))
            assert err.rms <= 1.0, f"{key}: rms={err.rms}"

    def test_speckled_phantom_reasonable(self):
        spec = PhantomSpec.default(dims=(64, 16, 128), seed=0, speckle_looks=4)
        vol, truth = generate_phantom(spec)
        res = segment_retina(vol)
        for key in ("ilm", "isos", "rpe"):
            err = surface_error(res.surfaces[key], getattr(truth, key))
            assert err.rms <= 2.0, f"{key}: rms={err.rms}"

    def test_pass_counters_count_the_sweeps_that_ran(self, monkeypatch):
        # enhance called twice runs two score-and-pick sweeps
        once = pipeline.enhance

        def twice(*args):
            once(*args)
            return once(*args)

        monkeypatch.setattr(pipeline, "enhance", twice)
        res = segment_boundary(two_layer_volume()[0], BRIGHT_ABOVE)
        assert res.report.enhance_passes == res.report.argmax_passes == 2

    def test_ordering_always_holds(self):
        spec = PhantomSpec.default(dims=(64, 16, 128), seed=1, speckle_looks=1)
        vol, _ = generate_phantom(spec)
        res = segment_retina(vol)
        s = res.surfaces
        assert (s["ilm"].z <= s["isos"].z).all()
        assert (s["isos"].z <= s["rpe"].z).all()

    def test_execution_order_rpe_first(self):
        vol, _ = generate_phantom(PhantomSpec.default(dims=(48, 12, 96)))
        res = segment_retina(vol)
        assert [r.name for r in res.reports] == ["RPE", "IS/OS", "ILM"]

    def test_later_boundaries_search_fewer_columns_planes(self):
        vol, _ = generate_phantom(PhantomSpec.default(dims=(48, 12, 96)))
        res = segment_retina(vol)
        # the cascade truncates: IS/OS and ILM run on masked volumes, which
        # shows up as single enhance/argmax passes (no refinement), never more
        for r in res.reports:
            assert r.enhance_passes == 1
            assert r.argmax_passes == 1

    def test_threads_bitwise_identical(self):
        spec = PhantomSpec.default(dims=(48, 12, 96), seed=2, speckle_looks=4)
        vol, _ = generate_phantom(spec)
        a = segment_retina(vol, threads=1)
        b = segment_retina(vol, threads=4)
        for key in ("ilm", "isos", "rpe"):
            assert np.array_equal(a.surfaces[key].z, b.surfaces[key].z)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_default_config_computes_each_field_once(self, monkeypatch, threads):
        # derivative(5, 3) for RPE and ILM, smoothing(3) for all three, and
        # derivative(5, 9) for IS/OS alone, down to the end of its band; the
        # two fields kept after RPE are cut once, to that band end
        fields, reads, cuts = [], [], []
        kernels = {}  # id of each field's array -> its kernel's x and z sizes
        convolve, score, crop = filters.convolve_fields, pipeline.enhance, filters._crop_depth

        def counted(volume, kernel_list, threads=1, depth=None):
            out = convolve(volume, kernel_list, threads, depth)
            for kernel, field in zip(kernel_list, out):
                fields.append((kernel.kx.size, kernel.kz.size, field.nz))
                kernels[id(field.data)] = (kernel.kx.size, kernel.kz.size)
            return out

        def cut(arr, depth):
            cuts.append((kernels[id(arr)], arr.shape[2], depth))
            crop(arr, depth)

        def banded(diff, smooth, profile, mask, *rest):
            reads.append((diff.nz, mask.depth, len(cuts)))
            return score(diff, smooth, profile, mask, *rest)

        # every field, alone or with others, is computed by convolve_fields
        monkeypatch.setattr(filters, "convolve_fields", counted)
        monkeypatch.setattr(filters, "_crop_depth", cut)
        monkeypatch.setattr(pipeline, "enhance", banded)
        vol, _ = generate_phantom(PhantomSpec.default(dims=(48, 12, 96)))
        res = segment_retina(vol, threads=threads)
        assert len(reads) == 3  # one enhance pass, which also picks, per boundary
        isos_depth, isos_band_end, _ = reads[1]  # the cascade runs RPE, IS/OS, ILM
        assert isos_depth == isos_band_end < 96
        assert sorted(fields) == [(3, 11, 96), (7, 7, 96), (9, 11, isos_depth)]
        assert sorted(cuts) == [((3, 11), 96, isos_depth), ((7, 7), 96, isos_depth)]
        assert [cut_so_far for _, _, cut_so_far in reads] == [0, 2, 2]  # none for ILM
        for r in res.reports:
            assert r.enhance_passes == r.argmax_passes == 1

    def test_volume_smaller_than_a_kernel_rejected_before_any_stage(self, monkeypatch):
        passes = []
        monkeypatch.setattr(filters, "_correlate1d", lambda *a: passes.append(a))
        vol = Volume(np.random.default_rng(0).random((4, 4, 6), dtype=np.float32))
        with pytest.raises(ValueError, match="RPE: kernel extent 11 exceeds volume size 6 along z"):
            segment_retina(vol)
        assert passes == []
        # IS/OS has the widest lateral box (9) of the default profiles
        with pytest.raises(ValueError, match="IS/OS: kernel extent 9 exceeds volume size 8 along x"):
            segment_retina(Volume(np.zeros((8, 12, 40), dtype=np.float32)))

    @pytest.mark.parametrize("role, override, message", [
        ("rpe", {"derivative_half_width": 2**40}, f"RPE: kernel extent {2**41 + 1} exceeds "
                                                  "volume size 96 along z"),
        ("isos", {"lateral_width": 2**40 + 1}, f"IS/OS: kernel extent {2**40 + 1} exceeds "
                                               "volume size 48 along x"),
        ("ilm", {"smoothing_radius": 2**40}, f"ILM: kernel extent {2**41 + 1} exceeds "
                                             "volume size 48 along x"),
    ], ids=["half-width", "lateral", "radius"])
    def test_kernel_sizes_rejected_before_any_kernel_is_built(self, monkeypatch, role,
                                                              override, message):
        # taps that long would not fit in memory, so only their sizes are compared
        def unbuilt(*args):
            raise AssertionError("a kernel was built")

        monkeypatch.setattr(filters, "make_derivative_kernel", unbuilt)
        monkeypatch.setattr(filters, "make_smoothing_kernel", unbuilt)
        profile = dataclasses.replace(getattr(PipelineConfig(), role), **override)
        config = dataclasses.replace(PipelineConfig(), **{role: profile})
        vol, _ = generate_phantom(PhantomSpec.default(dims=(48, 12, 96)))
        with pytest.raises(ValueError, match=f"^{message}$"):
            segment_retina(vol, config)

    @pytest.mark.parametrize("threads", [0, -1, 1.5, True])
    def test_bad_thread_count_rejected_before_any_stage(self, monkeypatch, threads):
        passes = []
        monkeypatch.setattr(filters, "_correlate1d", lambda *a: passes.append(a))
        vol, _ = two_layer_volume(nx=16, ny=8, nz=64)
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            segment_retina(vol, threads=threads)
        with pytest.raises(ValueError, match="threads must be an integer >= 1"):
            segment_boundary(vol, BRIGHT_ABOVE, threads=threads)
        assert passes == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_voxel_rejected_before_any_stage(self, monkeypatch, bad):
        # such a voxel once gave a flat derivative: a degenerate run with
        # every surface at z=0, blamed on the derivative
        passes = []
        monkeypatch.setattr(filters, "_correlate1d", lambda *a: passes.append(a))
        vol, _ = generate_phantom(PhantomSpec.default(dims=(48, 12, 96)))
        data = vol.data.copy()
        data[40, 2, 10] = data[30, 7, 50] = bad
        vol = Volume(data)
        message = re.escape("2 non-finite voxel(s), first at (x, y, z) = (30, 7, 50)")
        with pytest.raises(ValueError, match=message):
            segment_retina(vol)
        with pytest.raises(ValueError, match=message):
            segment_boundary(vol, BRIGHT_ABOVE)
        assert passes == []

    @staticmethod
    def traced_peak(vol, config=None):
        tracemalloc.start()
        try:
            segment_retina(vol, config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("config", [
        None,
        {"rpe": {"lateral_width": 5, "smoothing_radius": 2}},
        {"ilm": {"lateral_width": 5, "smoothing_radius": 2}},
    ], ids=["default", "rpe-own-fields", "ilm-own-fields"])
    def test_peak_memory_at_most_2_3_volumes_above_input(self, config):
        # fields live only while a reader needs them and only as deep as
        # they are read: the peak is RPE's, with its derivative and the
        # smoothing at full depth plus scratch (2.10 volumes measured, 2.14
        # with a pass per field and larger median blocks; keeping every
        # field at full depth peaked at 5.04, and the two kept fields at
        # full depth through IS/OS at 2.69).  When RPE or ILM reads fields
        # of its own, some fields are read by RPE alone, and the reader plan
        # frees them after RPE (2.08 and 2.10 measured; 2.35 and 2.24 with
        # every field kept)
        vol, _ = generate_phantom(PhantomSpec.default(dims=(300, 99, 480), seed=0,
                                                      speckle_looks=4))
        cfg = None if config is None else PipelineConfig.from_dict(config)
        assert self.traced_peak(vol, cfg) <= 2.3 * vol.data.nbytes

    def test_peak_memory_at_most_1_7_float_volumes_above_u8_input(self):
        # the fields of u8 samples are their exact integer sums: the peak
        # is RPE's, with its int16 derivative and int32 smoothing at full
        # depth (1.58 float volumes measured, 1.64 with a pass per field and
        # larger median blocks; 2.18 with float32 fields, and a float copy
        # of the input adds one)
        vol, _ = generate_phantom(PhantomSpec.default(dims=(300, 99, 480), seed=0,
                                                      speckle_looks=4))
        u8 = Volume(np.clip(np.rint(vol.data * 255.0), 0, 255).astype(np.uint8), scale=255)
        assert self.traced_peak(u8) <= 1.7 * vol.data.nbytes

    def test_an_opened_f32_file_is_never_held_whole(self, tmp_path):
        # segment_retina reads an opened file an x-slab at a time, so its
        # peak is one input volume below that of read_volume followed by
        # segment_retina, but for the buffer of its widest read: one
        # x-plane with IS/OS's lateral halo of 4 on either side
        vol, _ = generate_phantom(PhantomSpec.default(dims=(96, 24, 128), seed=0,
                                                      speckle_looks=4))
        raw = tmp_path / "v.raw"
        np.ascontiguousarray(vol.data.transpose(2, 0, 1), dtype="<f4").tofile(raw)
        meta = VolumeMeta(dims=(128, 96, 24), dtype="f32", order="zxy")
        with mock.patch.object(filters, "_FILTER_SLAB_BYTES", 1):
            tracemalloc.start()
            try:
                segment_retina(read_volume(raw, meta))
                loaded = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                with open_volume(raw, meta) as opened:
                    segment_retina(opened)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= loaded - vol.data.nbytes + 9 * vol.data[0].nbytes

    def test_degenerate_cascade_returns_flagged_result(self):
        vol = Volume(np.full((24, 12, 40), 0.25, dtype=np.float32))
        with pytest.warns(DegenerateNormalizationWarning):
            res = segment_retina(vol)
        assert res.degenerate
        assert all(r.degenerate for r in res.reports)

    def test_report_dict_shape(self):
        vol, _ = generate_phantom(PhantomSpec.default(dims=(48, 12, 96)))
        res = segment_retina(vol, threads=2)
        d = res.report_dict(dims=vol.dims)
        assert d["threads"] == 2
        assert d["dims"] == [48, 12, 96]
        assert d["total_wall_s"] > 0
        assert len(d["boundaries"]) == 3
        assert d["config"]["rpe"]["polarity"] == "bright_above"
        assert list(d["config"]) == ["rpe", "isos", "ilm", "isos_clearance", "ilm_clearance"]
        for b in d["boundaries"]:
            assert list(b) == [
                "name", "wall_s", "stage_s", "rejected_points", "enhance_passes",
                "argmax_passes", "degenerate", "columns_total", "columns_searched",
            ]
            assert b["enhance_passes"] == 1
            assert b["argmax_passes"] == 1
            assert b["wall_s"] >= 0
            assert b["rejected_points"] >= 0


@st.composite
def cascade_cases(draw):
    """A small default phantom as u8 samples or f32 values, and a config
    that overrides a few fields of each profile and the clearances.  IS/OS's
    and ILM's clearances may come near the depth of the surface found before
    them, where their window ends reach the top of some columns, or of all
    of them."""
    dims = draw(st.integers(10, 20)), draw(st.integers(9, 12)), draw(st.integers(80, 112))
    spec = PhantomSpec.default(dims=dims, seed=draw(st.integers(0, 2**16)),
                               speckle_looks=draw(st.sampled_from([None, 1, 4])),
                               with_lesion=draw(st.booleans()))
    vol, _ = generate_phantom(spec)
    if draw(st.booleans()):
        vol = Volume(np.clip(np.rint(vol.data * 255.0), 0, 255).astype(np.uint8), scale=255)
    truth = spec.truth_surfaces()
    defaults = PipelineConfig()
    config = {}
    for role in ("rpe", "isos", "ilm"):
        overrides = st.fixed_dictionaries({}, optional={
            "lateral_width": st.sampled_from([1, 3, 5, 9]),
            "median_window": st.sampled_from([3, 5, 7]),
            "outlier_tau": st.sampled_from([0.5, 4.0, 15.0]),
            "derivative_half_width": st.integers(1, 8),
            "weight_direction": st.sampled_from(["favor_deep", "favor_shallow"]),
        })
        config[role] = dataclasses.replace(getattr(defaults, role), **draw(overrides))
    for clearance, above in (("isos_clearance", truth.rpe.z), ("ilm_clearance", truth.isos.z)):
        clearances = (st.integers(0, dims[2] // 2)
                      | st.integers(int(above.min()) - 1, int(above.max()) + 1))
        if draw(st.booleans()):
            config[clearance] = draw(clearances)
    return vol, PipelineConfig(**config)


class TestCascadeInvariants:
    @given(case=cascade_cases())
    @settings(max_examples=60, deadline=None)
    def test_total_ordered_thread_identical_single_pass_or_raises(self, case):
        vol, config = case
        runs = []
        for threads in (1, 2):
            # a flat score is a degenerate result, not a failure
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always", DegenerateNormalizationWarning)
                try:
                    res = segment_retina(vol, config, threads=threads)
                except (ValueError, PipelineError) as e:
                    runs.append(f"{type(e).__name__}: {e}")
                    continue
            flat_scores = [w for w in rec if str(w.message).startswith("enhanced")]
            assert len(flat_scores) == sum(r.degenerate for r in res.reports)
            runs.append(res)
        if isinstance(runs[0], str):
            assert runs[1] == runs[0]
            return
        a, b = runs
        z = [a.surfaces[k].z for k in ("ilm", "isos", "rpe")]
        for key, depth in zip(("ilm", "isos", "rpe"), z):
            assert a.surfaces[key].valid.all() and np.isfinite(depth).all()
            assert depth.shape == vol.dims[:2]
            assert a.surfaces[key].z.tobytes() == b.surfaces[key].z.tobytes()
        assert (z[0] <= z[1]).all() and (z[1] <= z[2]).all()
        assert a.ordering_fixed_columns == b.ordering_fixed_columns
        for ra, rb in zip(a.reports, b.reports):
            assert ra.enhance_passes == ra.argmax_passes == 1
            for counter in ("rejected_points", "degenerate", "columns_searched"):
                assert getattr(ra, counter) == getattr(rb, counter)


FILE_ORDERS =["".join(order) for order in itertools.permutations("xyz")]


def phantom_file(tmp_path, dims, seed, order, dtype="u8", endian="le"):
    """A speckled phantom written in ``order`` as a raw file, its sidecar and
    its canonical samples: quantised to u8, or f32 values spread outside
    [0, 1], so that reading them normalizes."""
    vol, _ = generate_phantom(PhantomSpec.default(dims=dims, seed=seed, speckle_looks=4))
    if dtype == "u8":
        samples = np.clip(np.rint(vol.data * 255.0), 0, 255).astype(np.uint8)
    else:
        samples = (vol.data * 2 - 0.5).astype("<f4" if endian == "le" else ">f4")
    perm = tuple("xyz".index(ax) for ax in order)
    raw = tmp_path / f"{order}-{dtype}-{endian}.raw"
    np.ascontiguousarray(samples.transpose(perm)).tofile(raw)
    meta = VolumeMeta(dims=tuple(dims[p] for p in perm), dtype=dtype, endian=endian, order=order)
    return raw, meta, samples


def u8_phantom_file(tmp_path, dims, seed, order):
    """A speckled phantom quantised to u8 samples, written in ``order`` and
    loaded back; the loaded volume keeps the samples u8."""
    raw, meta, samples = phantom_file(tmp_path, dims, seed, order)
    loaded = read_volume(raw, meta)
    assert loaded.data.dtype == np.uint8 and np.array_equal(loaded.data, samples)
    return loaded


class TestU8Input:
    @given(dims=st.tuples(st.integers(9, 20), st.integers(9, 11), st.integers(64, 96)),
           seed=st.integers(0, 2**16), order=st.sampled_from(FILE_ORDERS),
           slab_bytes=st.sampled_from([1, None]),
           dtype=st.sampled_from(["u8", "f32"]), endian=st.sampled_from(["le", "be"]))
    @settings(max_examples=16, deadline=None)
    def test_surfaces_bitwise_equal_across_file_orders_threads_and_slabs(
            self, tmp_path_factory, dims, seed, order, slab_bytes, dtype, endian):
        # a u8 or f32 file of any order and byte order, loaded and opened,
        # against the same samples loaded from a little-endian xyz file:
        # threads 1 and 2, 1-voxel and default slabs
        tmp = tmp_path_factory.mktemp("in")
        ref = segment_retina(read_volume(*phantom_file(tmp, dims, seed, "xyz", dtype)[:2]))
        path, meta, _ = phantom_file(tmp, dims, seed, order, dtype, endian)
        loaded = read_volume(path, meta)
        assert loaded.data.dtype == (np.uint8 if dtype == "u8" else np.float32)
        slab = filters._FILTER_SLAB_BYTES if slab_bytes is None else slab_bytes
        with mock.patch.object(filters, "_FILTER_SLAB_BYTES", slab), \
                open_volume(path, meta) as opened:
            for volume in (loaded, opened):
                for threads in (1, 2):
                    got = segment_retina(volume, threads=threads)
                    for key in ("ilm", "isos", "rpe"):
                        assert got.surfaces[key].z.tobytes() == ref.surfaces[key].z.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fields_within_the_float_bound_of_the_float32_values(self, tmp_path, seed):
        # u8 fields are the exact sums rounded once; the fields of the
        # float32 values they stand for carry the float32 sums' error, at
        # most (taps.size + 1) * eps * sum|taps| * max|input| per pass
        loaded = u8_phantom_file(tmp_path, (24, 11, 96), seed, "zxy")
        values = Volume(loaded.values())
        config = PipelineConfig()
        plan = [pipeline._filter_sizes(p) for p in (config.rpe, config.isos, config.ilm)]
        exact, approx = FilterBank(loaded, 1, plan), FilterBank(values, 1, plan)
        eps = np.finfo(np.float32).eps
        for half_width, lateral, radius in plan:
            pairs = zip(*(b.fields((half_width, lateral, radius), 96) for b in (exact, approx)))
            for kernel, fields in zip((filters.make_derivative_kernel(half_width, lateral),
                                       filters.make_smoothing_kernel(radius)), pairs):
                taps = (kernel.kz, kernel.kx, kernel.ky)
                gain = np.prod([np.abs(t).sum() for t in taps])
                bound = eps * gain * values.data.max() * (2 + sum(t.size + 1 for t in taps))
                got, want = (f.values().astype(np.float64) for f in fields)
                assert fields[0].scale is not None and fields[1].data.dtype == np.float32
                assert np.abs(got - want).max() <= bound


class TestEnforceOrdering:
    def test_clean_surfaces_untouched(self):
        z = np.random.default_rng(13).random((6, 5)) * 10
        ilm = Surface.full(z)
        isos = Surface.full(z + 5.0)
        rpe = Surface.full(z + 9.0)
        a, b, c, fixed = enforce_ordering(ilm, isos, rpe)
        assert fixed == 0
        assert np.array_equal(a.z, ilm.z)
        assert np.array_equal(b.z, isos.z)
        assert np.array_equal(c.z, rpe.z)

    def test_single_violation_fixed_and_counted(self):
        base = np.full((7, 7), 20.0)
        ilm = Surface.full(base.copy())
        isos = Surface.full(base + 10.0)
        rpe = Surface.full(base + 20.0)
        isos.z[3, 3] = 55.0  # dives below the RPE
        a, b, c, fixed = enforce_ordering(ilm, isos, rpe)
        assert fixed == 1
        assert (a.z <= b.z).all()
        assert (b.z <= c.z).all()
        # untouched columns keep their values exactly
        assert b.z[0, 0] == 30.0
        assert b.z[3, 3] != 55.0

    def test_all_columns_violating_sorted(self):
        ilm = Surface.full(np.full((3, 3), 30.0))
        isos = Surface.full(np.full((3, 3), 20.0))
        rpe = Surface.full(np.full((3, 3), 10.0))
        a, b, c, fixed = enforce_ordering(ilm, isos, rpe)
        assert fixed == 9
        assert (a.z == 10.0).all()
        assert (b.z == 20.0).all()
        assert (c.z == 30.0).all()

    @given(st.integers(1, 7), st.integers(1, 7), st.floats(0.0, 1.0),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_one_refill_orders_and_keeps_ordered_columns(self, nx, ny, share, whole, seed):
        # a share of the columns misordered (each its own permutation of a
        # sorted triple), on integer or fractional depths that make ties
        # and rounding; one refill round must leave every column ordered
        rng = np.random.default_rng(seed)
        z = np.sort(rng.uniform(0, 50, (3, nx, ny)), axis=0)
        if whole:
            z = np.rint(z)
        shuffled = rng.random((nx, ny)) < share
        z[:, shuffled] = rng.permuted(z[:, shuffled], axis=0)
        in_order = (z[0] <= z[1]) & (z[1] <= z[2])
        *out, fixed = enforce_ordering(*(Surface.full(zi) for zi in z))
        assert fixed == int((~in_order).sum())
        assert all(s.valid.all() and np.isfinite(s.z).all() for s in out)
        assert (out[0].z <= out[1].z).all() and (out[1].z <= out[2].z).all()
        for s, zi in zip(out, z):
            assert np.array_equal(s.z[in_order], zi[in_order])

    def test_partial_surface_rejected(self):
        z = np.zeros((3, 3))
        z[0, 0] = np.nan
        s = Surface(z)
        with pytest.raises(ValueError):
            enforce_ordering(s, Surface.full(np.ones((3, 3))), Surface.full(np.ones((3, 3))))


class TestConfig:
    def test_default_roundtrip(self):
        cfg = PipelineConfig()
        back = PipelineConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_partial_override(self):
        cfg = PipelineConfig.from_dict({"rpe": {"outlier_tau": 7.5}})
        assert cfg.rpe.outlier_tau == 7.5
        assert cfg.rpe.polarity == "bright_above"  # untouched defaults remain
        assert cfg.ilm == PipelineConfig().ilm

    def test_unknown_boundary_key_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"gcl": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"rpe": {"sharpness": 3}})

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({"ilm": {"median_window": 4}})

    def test_json_roundtrip(self, tmp_path):
        cfg = PipelineConfig.from_dict({"isos": {"median_window": 7}, "isos_clearance": 12})
        p = tmp_path / "cfg.json"
        import json

        p.write_text(json.dumps(cfg.to_dict()))
        assert PipelineConfig.from_json(p) == cfg

    @pytest.mark.parametrize("field, value, message", [
        ("derivative_half_width", 2.5, "derivative_half_width must be an integer, got 2.5"),
        ("lateral_width", 2.5, "lateral_width must be an integer, got 2.5"),
        ("median_window", True, "median_window must be an integer, got True"),
        ("outlier_tau", "15", "outlier_tau must be a number, got '15'"),
        ("outlier_tau", True, "outlier_tau must be a number, got True"),
        ("outlier_tau", float("nan"), "outlier_tau must be positive"),
        ("polarity", None, "polarity must be a string, got None"),
    ])
    def test_field_types_checked(self, field, value, message):
        with pytest.raises(ValueError, match=f"^bad config entry for 'rpe': {message}$"):
            PipelineConfig.from_dict({"rpe": {field: value}})

    @pytest.mark.parametrize("field, value, message", [
        ("isos_clearance", 3.7, "isos_clearance must be an integer, got 3.7"),
        ("ilm_clearance", True, "ilm_clearance must be an integer, got True"),
        ("isos_clearance", -1, "isos_clearance must be >= 0"),
        ("ilm_clearance", -3, "ilm_clearance must be >= 0"),
    ])
    def test_clearances_checked(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_dict({field: value})

    def test_integral_and_real_values_accepted(self):
        cfg = PipelineConfig.from_dict({"rpe": {"outlier_tau": 9, "smoothing_radius": np.int64(2)}})
        assert cfg.rpe.outlier_tau == 9 and cfg.rpe.smoothing_radius == 2

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            BoundaryProfile(name="x", polarity="both", weight_direction="favor_deep")
        with pytest.raises(ValueError):
            BoundaryProfile(name="x", polarity="bright_above",
                            weight_direction="favor_deep", lateral_width=2)
        with pytest.raises(ValueError):
            BoundaryProfile(name="x", polarity="bright_above",
                            weight_direction="favor_deep", outlier_tau=-1.0)
