"""The checked records behind the sidecar, the config and the phantom spec."""

import json
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from octseg import records
from octseg.phantom import LayerIntensities, PhantomSpec, SurfaceSpec
from octseg.pipeline import PipelineConfig
from octseg.volume import VolumeMeta

SIDECAR = {"dims": [8, 8, 16], "dtype": "u8", "endian": "le", "order": "zxy",
           "spacing_um": [7.0, 11.5, 11.5]}
RECORDS = {
    "sidecar": (VolumeMeta, SIDECAR),
    "config": (PipelineConfig, PipelineConfig().to_dict()),
    "phantom spec": (PhantomSpec, PhantomSpec.default(dims=(32, 8, 64), speckle_looks=2,
                                                      with_lesion=True).to_dict()),
}

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 10**6),
                     st.floats(), st.text(max_size=4))
JSON_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=4),
                        st.dictionaries(st.text(max_size=4), _SCALARS, max_size=3))


def json_type(value) -> str:
    if value is None or isinstance(value, (bool, str, list, dict)):
        return type(value).__name__
    return "number"


def paths(node, prefix=()):
    """Every path from the root to a value below it, as key/index tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


class TestFromDict:
    @given(st.sampled_from(sorted(RECORDS)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_retyped_value_builds_or_names_its_key(self, which, data):
        cls, valid = RECORDS[which]
        doc = json.loads(json.dumps(valid))
        path = data.draw(st.sampled_from(list(paths(doc))))
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        old = parent[path[-1]]
        parent[path[-1]] = data.draw(JSON_VALUES.filter(lambda v: json_type(v) != json_type(old)))
        try:
            cls.from_dict(doc)
        except ValueError as e:
            key = [step for step in path if isinstance(step, str)][-1]
            assert key in str(e)

    def test_nested_unknown_key_names_entry_and_key(self):
        d = dict(RECORDS["phantom spec"][1])
        d["lesion"] = dict(d["lesion"], bogus=1)
        with pytest.raises(ValueError) as e:
            PhantomSpec.from_dict(d)
        assert str(e.value) == "bad phantom spec entry for 'lesion': unknown lesion keys: ['bogus']"

    def test_nested_missing_key_names_entry_and_key(self):
        d = dict(RECORDS["phantom spec"][1])
        d["lesion"] = {k: v for k, v in d["lesion"].items() if k != "radius"}
        with pytest.raises(ValueError, match="^bad phantom spec entry for 'lesion': "
                                             "lesion is missing required key 'radius'$"):
            PhantomSpec.from_dict(d)

    def test_null_nested_record_means_its_default(self):
        d = RECORDS["phantom spec"][1] | {"intensities": None, "lesion": None}
        spec = PhantomSpec.from_dict(d)
        assert spec.intensities == LayerIntensities() and spec.lesion is None
        assert PipelineConfig.from_dict({"rpe": None}) == PipelineConfig()


class TestFieldCheck:
    @pytest.mark.parametrize("kwargs, message", [
        ({"base_depth": "a"}, "base_depth must be a number, got 'a'"),
        ({"base_depth": True}, "base_depth must be a number, got True"),
        ({"base_depth": math.inf}, "base_depth must be finite, got inf"),
        ({"base_depth": 3.0, "dip_sigma": math.nan}, "dip_sigma must be finite, got nan"),
    ])
    def test_direct_construction_is_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SurfaceSpec(**kwargs)

    def test_nested_record_type_checked(self):
        with pytest.raises(ValueError, match="^rpe must be a BoundaryProfile, got 5$"):
            PipelineConfig(rpe=5)


class TestFromJson:
    @pytest.mark.parametrize("text, message", [
        pytest.param('{"dims": ', "sidecar is not valid JSON: ", id="truncated"),
        pytest.param("[" * 100_000, "sidecar is not valid JSON: ", id="nested-too-deep"),
        pytest.param("[8, 8, 16]", "sidecar must be a JSON object, got list", id="array"),
        pytest.param('{"dims": [8, 8, 0]}', "dims must be three positive ints", id="bad-dims"),
    ])
    def test_errors_name_the_file(self, tmp_path, text, message):
        p = tmp_path / "v.json"
        p.write_text(text)
        with pytest.raises(ValueError) as e:
            VolumeMeta.from_json(p)
        assert str(e.value).startswith(message)
        assert str(e.value).endswith(f"(in {p})")

    def test_lesion_radius_must_be_positive(self, tmp_path):
        # checked by the record, so the error names the file it came from
        d = RECORDS["phantom spec"][1]
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(d | {"lesion": d["lesion"] | {"radius": 0}}))
        with pytest.raises(ValueError) as e:
            PhantomSpec.from_json(p)
        assert str(e.value) == ("bad phantom spec entry for 'lesion': "
                                f"radius must be positive, got 0 (in {p})")

    def test_undecodable_bytes_name_the_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ValueError, match="^config is not valid JSON: .*utf-8"):
            PipelineConfig.from_json(p)


class TestTypeHintsResolvedOncePerClass:
    def test_repeated_construction_resolves_hints_once(self, monkeypatch):
        calls = []

        def counted(cls):
            calls.append(cls)
            return get_type_hints(cls)

        get_type_hints = typing.get_type_hints
        monkeypatch.setattr(typing, "get_type_hints", counted)
        records._hints.cache_clear()
        try:
            built = [VolumeMeta(dims=(1, 2, 3)) for _ in range(5)]
            built += [VolumeMeta.from_dict({"dims": [1, 2, 3]}) for _ in range(5)]
            configs = [PipelineConfig.from_dict({"ilm": {"truncation_margin": 4}})
                       for _ in range(3)]
            errors = []
            for _ in range(3):
                with pytest.raises(ValueError) as e:
                    VolumeMeta(dims=(1, 2, 3), dtype=8)
                errors.append(str(e.value))
        finally:
            records._hints.cache_clear()  # later tests resolve with the real function
        assert sorted(c.__name__ for c in calls) == [
            "BoundaryProfile", "PipelineConfig", "VolumeMeta"]
        assert all(b == VolumeMeta(dims=(1, 2, 3)) for b in built)
        assert all(c == configs[0] and c.ilm.truncation_margin == 4 for c in configs)
        assert errors == ["dtype must be a string, got 8"] * 3
