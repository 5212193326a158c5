import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity.cli import main
from rigidity.sets import (
    DescriptorError,
    FinitePoints,
    PowerSequence,
    SampledCloud,
    descriptor_from_json,
    descriptor_to_json_dict,
    diameter,
    load_descriptor,
)

finite_values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=30,
)


class TestFinitePoints:
    def test_sorts_and_dedups(self):
        s = FinitePoints([3.0, 1.0, 2.0, 1.0])
        assert s.points.shape == (3, 1)
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])

    def test_scalar_input_becomes_column(self):
        s = FinitePoints(np.array([0.5, -0.5]))
        assert s.points.shape == (2, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FinitePoints([])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            FinitePoints([0.0, float("nan")])

    def test_values_requires_scalar_sets(self):
        # vectors belong in a cloud
        with pytest.raises(DescriptorError, match="cloud"):
            FinitePoints([[0.0, 1.0], [1.0, 0.0]])

    def test_points_are_readonly(self):
        s = FinitePoints([1.0, 2.0])
        with pytest.raises(ValueError):
            s.points[0, 0] = 99.0

    @given(finite_values)
    def test_dedup_matches_numpy_unique(self, vals):
        s = FinitePoints(vals)
        assert np.array_equal(s.values, np.unique(np.asarray(vals)))


class TestPowerSequence:
    def test_basic(self):
        s = PowerSequence(-1.0)
        assert s.alpha == -1.0

    @pytest.mark.parametrize("alpha", [
        0.0, 0.5, float("nan"), float("inf"), pytest.param("x", id="str"),
        pytest.param("-1", id="numeric-str"), pytest.param(-10**400, id="-1e400"),
        pytest.param(None, id="None")])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(DescriptorError, match="^alpha must be a finite negative number$"):
            PowerSequence(alpha)

    def test_alpha_is_stored_as_a_float(self):
        s = PowerSequence(-2)
        assert type(s.alpha) is float and s == PowerSequence(-2.0)


class TestSampledCloud:
    def test_preserves_order(self):
        c = SampledCloud([[3.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        assert c.points.tolist() == [[3.0, 0.0], [1.0, 0.0], [3.0, 0.0]]

    def test_two_dimensional(self):
        c = SampledCloud([[0.0, 1.0], [1.0, 0.0]])
        assert c.points.shape == (2, 2)
        assert not hasattr(c, "values")

    @pytest.mark.parametrize("pts", [[3.0, 1.0, 2.0], [[3.0], [1.0]], 0.5],
                             ids=["flat", "one-column", "scalar"])
    def test_scalars_refused(self, pts):
        # scalars belong in a finite set
        with pytest.raises(DescriptorError, match="FinitePoints"):
            SampledCloud(pts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SampledCloud(np.empty((0, 2)))


class TestGeometry:
    def test_diameter(self):
        assert diameter(FinitePoints([0.0, 2.0, 5.0])) == pytest.approx(5.0)

    def test_diameter_single_point_is_zero(self):
        assert diameter(FinitePoints([0.7])) == 0.0


class TestJson:
    def test_finite_roundtrip(self):
        s = FinitePoints([0.1, 0.2, 0.30000000000000004])
        back = descriptor_from_json(descriptor_to_json_dict(s))
        assert isinstance(back, FinitePoints)
        assert np.array_equal(back.values, s.values)

    def test_power_roundtrip(self):
        s = PowerSequence(-1.5)
        assert descriptor_to_json_dict(s) == {"type": "power", "alpha": -1.5}
        assert descriptor_from_json(descriptor_to_json_dict(s)) == s

    def test_power_count_optional_on_load(self):
        back = descriptor_from_json({"type": "power", "alpha": -1.0})
        assert isinstance(back, PowerSequence)

    def test_power_count_key_is_ignored(self, tmp_path, monkeypatch):
        # "count" is an unknown key, ignored like any other
        back = descriptor_from_json({"type": "power", "alpha": -1.0, "count": 50})
        assert back == PowerSequence(-1.0)
        monkeypatch.chdir(tmp_path)
        power = ["--power", "-1"]
        counted = ["--set", '{"type": "power", "alpha": -1, "count": 50}']
        for name, source in (("power.json", power), ("counted.json", counted)):
            argv = ["bound", *source, "--d", "3", "--eps", "1e-4:0.5:10", "--out", name]
            assert main(argv) == 0
        assert (tmp_path / "power.json").read_bytes() == (tmp_path / "counted.json").read_bytes()

    def test_cloud_roundtrip(self):
        s = SampledCloud([[0.0, 1.0], [2.0, 3.0]])
        back = descriptor_from_json(descriptor_to_json_dict(s))
        assert isinstance(back, SampledCloud)
        assert np.array_equal(back.points, s.points)

    @pytest.mark.parametrize("pts", [[0.5, -1.0, 0.5], [[0.5], [-1.0], [0.5]]],
                             ids=["flat", "one-column"])
    def test_scalar_cloud_loads_as_finite_set(self, pts):
        back = descriptor_from_json({"type": "cloud", "points": pts})
        assert isinstance(back, FinitePoints)
        assert back.values.tolist() == [-1.0, 0.5]

    def test_cloud_provenance_key_is_ignored(self):
        back = descriptor_from_json(
            {"type": "cloud", "points": [[0.0, 1.0]], "provenance": "extracted"})
        assert isinstance(back, SampledCloud)
        assert back.points.tolist() == [[0.0, 1.0]]

    def test_unknown_type_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor_from_json({"type": "mystery", "points": [1]})

    def test_missing_key_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor_from_json({"type": "finite"})

    def test_malformed_values_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor_from_json({"type": "finite", "points": ["a", "b"]})

    def test_non_object_rejected(self):
        with pytest.raises(DescriptorError):
            descriptor_from_json([1, 2, 3])

    # numpy reads bools and strings as numbers and overflows on integers past
    # the float range; a descriptor takes finite real numbers only
    @pytest.mark.parametrize("obj", [
        {"type": "finite", "points": [True, False, 0.5]},
        {"type": "finite", "points": ["0.1", "0.4", "0.9"]},
        {"type": "finite", "points": [0.5, 10**400]},
        {"type": "cloud", "points": [[0.1, True], [0.2, 0.3]]},
        {"type": "cloud", "points": [[10**400, 0.0], [0.2, 0.3]]},
        {"type": "power", "alpha": "-1"},
        {"type": "power", "alpha": -10**400},
    ], ids=["bools", "strings", "huge-int", "cloud-bool", "cloud-huge-int",
            "alpha-string", "alpha-huge-int"])
    def test_entries_that_are_not_real_numbers_are_refused(self, obj):
        with pytest.raises(DescriptorError):
            load_descriptor(json.dumps(obj))

    def test_json_integers_stay_valid(self):
        assert load_descriptor('{"type": "finite", "points": [0, 1]}').values.tolist() == [0, 1]
        assert load_descriptor('{"type": "cloud", "points": [[0, 1], [2, 3]]}').points.tolist() \
            == [[0.0, 1.0], [2.0, 3.0]]
        assert load_descriptor('{"type": "power", "alpha": -2}') == PowerSequence(-2.0)

    @settings(max_examples=50)
    @given(finite_values)
    def test_finite_roundtrip_property(self, vals):
        s = FinitePoints(vals)
        text = json.dumps(descriptor_to_json_dict(s))
        back = load_descriptor(text)
        assert np.array_equal(back.values, s.values)


class TestLoadDescriptor:
    def test_inline_json(self):
        s = load_descriptor('{"type": "power", "alpha": -2.0}')
        assert isinstance(s, PowerSequence)

    def test_from_file(self, tmp_path):
        p = tmp_path / "set.json"
        p.write_text('{"type": "finite", "points": [0.0, 1.0]}')
        s = load_descriptor(p)
        assert np.array_equal(s.values, [0.0, 1.0])

    def test_invalid_json_raises_descriptor_error(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DescriptorError):
            load_descriptor(p)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_descriptor(tmp_path / "absent.json")

    def test_file_over_byte_budget_is_refused_unread(self, tmp_path, monkeypatch):
        text = '{"type": "finite", "points": [0.0, 1.0]}'
        p = tmp_path / "set.json"
        p.write_text(text)
        monkeypatch.setattr("rigidity.sets.MAX_DESCRIPTOR_BYTES", len(text))
        assert load_descriptor(p).values.size == 2
        monkeypatch.setattr("rigidity.sets.MAX_DESCRIPTOR_BYTES", len(text) - 1)
        with pytest.raises(ValueError, match="budget") as info:
            load_descriptor(p)
        assert not isinstance(info.value, DescriptorError)
        assert load_descriptor(text).values.size == 2  # inline JSON is not a file
