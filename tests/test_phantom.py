"""Phantom construction: layer geometry, speckle statistics, error metrics."""

import numpy as np
import pytest

from octseg.phantom import (
    LayerIntensities,
    LesionSpec,
    PhantomSpec,
    SurfaceSpec,
    add_speckle,
    generate_phantom,
    surface_error,
)
from octseg.surfaces import Surface
from octseg.volume import Volume


def flat_spec(nz=480, ilm=100.0, isos=180.0, rpe=200.0, **kw):
    return PhantomSpec(
        dims=(8, 4, nz),
        ilm=SurfaceSpec(base_depth=ilm),
        isos=SurfaceSpec(base_depth=isos),
        rpe=SurfaceSpec(base_depth=rpe),
        isos_band_thickness=4.0,
        rpe_band_thickness=4.0,
        **kw,
    )


class TestGeometry:
    def test_layer_profile_at_exact_depths(self):
        vol, truth = generate_phantom(flat_spec())
        lay = LayerIntensities()
        a = vol.data[3, 2]  # one A-scan
        assert a[99] == np.float32(lay.vitreous)
        assert a[100] == np.float32(lay.inner_retina)  # first voxel at ILM depth
        assert a[179] == np.float32(lay.inner_retina)
        assert a[180] == np.float32(lay.isos_band)
        assert a[183] == np.float32(lay.isos_band)
        assert a[184] == np.float32(lay.inner_retina)  # gap between the bands
        assert a[195] == np.float32(lay.inner_retina)
        assert a[196] == np.float32(lay.rpe_band)
        assert a[199] == np.float32(lay.rpe_band)
        assert a[200] == np.float32(lay.choroid)

    def test_truth_matches_spec(self):
        _, truth = generate_phantom(flat_spec())
        assert (truth.ilm.z == 100.0).all()
        assert (truth.isos.z == 180.0).all()
        assert (truth.rpe.z == 200.0).all()
        assert truth.ilm.valid.all()

    def test_foveal_dip_deepens_center(self):
        spec = PhantomSpec.default(dims=(64, 16, 128))
        _, truth = generate_phantom(spec)
        center = truth.ilm.z[32, 8]
        edge = truth.ilm.z[0, 8]
        assert center > edge + 3.0  # dip pushes the ILM deeper at the middle

    def test_deterministic_same_seed(self):
        spec = PhantomSpec.default(dims=(32, 8, 64), seed=3, speckle_looks=1)
        v1, t1 = generate_phantom(spec)
        v2, t2 = generate_phantom(spec)
        assert np.array_equal(v1.data, v2.data)
        assert np.array_equal(t1.rpe.z, t2.rpe.z)

    def test_different_seed_differs(self):
        a, _ = generate_phantom(PhantomSpec.default(dims=(32, 8, 64), seed=0, speckle_looks=1))
        b, _ = generate_phantom(PhantomSpec.default(dims=(32, 8, 64), seed=1, speckle_looks=1))
        assert not np.array_equal(a.data, b.data)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError):
            generate_phantom(flat_spec(ilm=200.0, isos=180.0, rpe=220.0))

    def test_out_of_range_surface_rejected(self):
        with pytest.raises(ValueError):
            generate_phantom(flat_spec(nz=128, ilm=60.0, isos=100.0, rpe=130.0))

    def test_band_overlap_rejected(self):
        with pytest.raises(ValueError):
            generate_phantom(flat_spec(isos=180.0, rpe=185.0))


class TestLesion:
    def test_compact_support(self):
        dims = (96, 24, 256)
        plain = PhantomSpec.default(dims=dims, seed=5, speckle_looks=4)
        lesioned = PhantomSpec.default(dims=dims, seed=5, speckle_looks=4, with_lesion=True)
        va, _ = generate_phantom(plain)
        vb, tb = generate_phantom(lesioned)
        assert not np.array_equal(va.data, vb.data)
        les = lesioned.lesion
        xx, yy = np.meshgrid(np.arange(dims[0]), np.arange(dims[1]), indexing="ij")
        outside = (xx - les.center_x) ** 2 + (yy - les.center_y) ** 2 > (2 * les.radius) ** 2
        assert np.array_equal(va.data[outside], vb.data[outside])

    def test_shifts_outer_surfaces_only(self):
        dims = (96, 24, 256)
        plain, _ = PhantomSpec.default(dims=dims), None
        t_plain = PhantomSpec.default(dims=dims).truth_surfaces()
        t_les = PhantomSpec.default(dims=dims, with_lesion=True).truth_surfaces()
        assert np.array_equal(t_plain.ilm.z, t_les.ilm.z)
        assert (t_les.isos.z <= t_plain.isos.z).all()  # lifted toward the ILM
        assert (t_les.isos.z < t_plain.isos.z).any()

    def test_truth_ordering_holds_with_lesion(self):
        t = PhantomSpec.default(dims=(96, 24, 256), with_lesion=True).truth_surfaces()
        assert (t.ilm.z < t.isos.z).all()
        assert (t.isos.z < t.rpe.z).all()


class TestSpeckle:
    def test_unit_mean(self):
        v = Volume(np.full((50, 50, 40), 0.5, dtype=np.float32))
        out = add_speckle(v, looks=4, seed=0)
        assert abs(float(out.data.mean()) - 0.5) <= 0.01

    def test_many_looks_is_nearly_noiseless(self):
        v = Volume(np.full((40, 40, 40), 0.5, dtype=np.float32))
        out = add_speckle(v, looks=10000, seed=1)
        rel = np.abs(out.data / 0.5 - 1.0)
        assert (rel <= 0.05).mean() >= 0.9999

    def test_zero_stays_zero(self):
        v = Volume(np.zeros((8, 8, 8), dtype=np.float32))
        out = add_speckle(v, looks=1, seed=2)
        assert np.array_equal(out.data, v.data)

    def test_fewer_looks_means_rougher(self):
        v = Volume(np.full((32, 32, 32), 0.5, dtype=np.float32))
        rough = add_speckle(v, looks=1, seed=3).data.std()
        mild = add_speckle(v, looks=16, seed=3).data.std()
        assert rough > 2.0 * mild

    def test_clipped_to_unit_range(self):
        v = Volume(np.full((16, 16, 16), 0.9, dtype=np.float32))
        out = add_speckle(v, looks=1, seed=4)
        assert out.data.max() <= 1.0
        assert out.data.min() >= 0.0

    def test_looks_below_one_rejected(self):
        with pytest.raises(ValueError):
            add_speckle(Volume(np.zeros((4, 4, 4))), looks=0.5)


class TestSpecJson:
    def test_roundtrip(self):
        spec = PhantomSpec.default(dims=(64, 16, 128), seed=7, speckle_looks=4,
                                   with_lesion=True)
        back = PhantomSpec.from_dict(spec.to_dict())
        assert back == spec

    def test_unknown_key_rejected(self):
        d = PhantomSpec.default(dims=(32, 8, 64)).to_dict()
        d["sprinkles"] = True
        with pytest.raises(ValueError):
            PhantomSpec.from_dict(d)

    def test_missing_required_key_rejected(self):
        d = PhantomSpec.default(dims=(32, 8, 64)).to_dict()
        del d["rpe"]
        with pytest.raises(ValueError):
            PhantomSpec.from_dict(d)

    def test_intensity_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            LayerIntensities(vitreous=-0.1)


class TestSurfaceError:
    def test_identical_surfaces_zero(self):
        s = Surface.full(np.random.default_rng(11).random((6, 5)) * 100)
        err = surface_error(s, Surface(s.z))
        assert err.rms == err.mean == 0.0
        assert err.max_abs == 0.0
        assert err.frac_within(0.0) == 1.0

    def test_constant_offset(self):
        z = np.full((4, 4), 50.0)
        err = surface_error(Surface.full(z + 1.0), Surface.full(z))
        assert err.rms == 1.0
        assert err.mean == err.mean_abs == 1.0
        assert surface_error(Surface.full(z - 1.0), Surface.full(z)).mean == -1.0
        assert err.frac_within(0.5) == 0.0
        assert err.frac_within(1.0) == 1.0

    def test_unit_noise_rms_near_one(self):
        rng = np.random.default_rng(12)
        z = np.full((100, 100), 80.0)
        noisy = z + rng.standard_normal((100, 100))
        err = surface_error(Surface.full(noisy), Surface.full(z))
        assert abs(err.rms - 1.0) <= 0.05

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            surface_error(Surface.full(np.zeros((2, 2))), Surface.full(np.zeros((3, 2))))

    def test_partial_surface_rejected(self):
        good = Surface.full(np.zeros((2, 2)))
        bad = Surface(np.array([[0.0, np.nan], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            surface_error(bad, good)
