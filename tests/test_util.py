"""The bulk JSON writer against the standard library's encoder,
``sorted_distinct`` against ``np.unique``, ``log_grid`` against
``np.geomspace`` and ``atomic_write``'s errors.

``dump_json`` must write exactly what ``json.dump(obj, fh, indent=2,
sort_keys=True)`` writes, on the float lists and tables it formats in bulk
and on everything it hands back to ``json.dumps``.  ``sorted_distinct``
must return the bits ``np.unique`` returns, and ``log_grid`` the bits
``np.geomspace`` returns.
"""

import io
import json
import math
import os
import stat
import struct
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity import util
from rigidity.util import dump_json

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1e-310, 1.7976931348623157e308, 0.1, 1e16, 1e-7]


def written(obj) -> str:
    fh = io.StringIO()
    dump_json(obj, fh)
    return fh.getvalue()


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def nan_with_payload(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


# a small pool per example, so lists repeat values the way grid samples do
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_subnormal=True))
float_lists = st.lists(floats, max_size=12).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=30) if pool
    else st.just([]))
float_tables = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(floats, min_size=width, max_size=width),
                           min_size=1, max_size=12))
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), floats,
    st.text(alphabet=st.characters(codec="utf-8"), max_size=6),
    float_lists, float_tables,
)
keys = st.text(alphabet=st.sampled_from('ab"\\\né☃'), max_size=4)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
        st.dictionaries(st.booleans(), children, max_size=2),
    ),
    max_leaves=12,
)


class TestDumpJson:
    @settings(max_examples=300, deadline=None)
    @given(obj=payloads, block=st.sampled_from([1, 2, 5, util._ROW_BLOCK]))
    def test_matches_json_dumps(self, obj, block):
        with mock.patch.object(util, "_ROW_BLOCK", block):
            assert written(obj) == reference(obj)

    @settings(max_examples=100, deadline=None)
    @given(table=float_tables, key=keys)
    def test_float_tables_under_a_key(self, table, key):
        obj = {key: table, "z": {"rows": table, "flat": [row[0] for row in table]}}
        with mock.patch.object(util, "_ROW_BLOCK", 2):
            assert written(obj) == reference(obj)

    @pytest.mark.parametrize("width", [0, 1, 2, 3])
    def test_more_rows_than_one_block(self, width):
        rng = np.random.default_rng(width)
        pool = np.array(SPECIAL + rng.standard_normal(500).tolist())
        rows = util._ROW_BLOCK * 2 + 37
        values = pool[rng.integers(0, pool.size, rows * max(width, 1))]
        obj = values.tolist() if width == 0 else values.reshape(rows, width).tolist()
        obj = {"type": "cloud", "points": obj}
        assert written(obj) == reference(obj)

    def test_signed_zero_and_nan_payloads_stay_apart(self):
        obj = [0.0, -0.0, nan_with_payload(1), math.nan, nan_with_payload(7), -0.0]
        assert written(obj) == reference(obj)
        assert written(obj).split("\n")[1:3] == ["  0.0,", "  -0.0,"]

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [[], []], [[1.0], [2.0, 3.0]], [1.0, 2], [1.0, True],
        [np.float64(1.0)], (1.0, 2.0), [(1.0, 2.0)], [[1.0, 2.0], (3.0, 4.0)],
        {"1": [2.0], "a": {2: [0.5]}},
        "text\n\"quoted\"", None, 3, 1.5,
    ])
    def test_edge_shapes(self, obj):
        assert written(obj) == reference(obj)

    def test_unsortable_keys_raise_as_json_does(self):
        obj = {"a": {1: [1.0], "1": [2.0]}}
        with pytest.raises(TypeError):
            reference(obj)
        with pytest.raises(TypeError):
            written(obj)

    @pytest.mark.parametrize("obj, bulk", [
        ([1.0, -0.0], True),
        ([[1.0, 2.0], [3.0, 4.0]], True),
        ([], False),
        ([[]], False),
        ([[1.0], [2.0, 3.0]], False),
        ([1.0, 2], False),
        ([np.float64(1.0)], False),
        ([(1.0, 2.0)], False),
        ([[1.0, "a"]], False),
        (np.array([[1.0, 2.0], [3.0, 4.0]]), True),
        (np.array([[1.0, 2.0]], dtype=np.float32), False),
        (np.array([1.0, 2.0]), False),
        (np.zeros((2, 2, 2)), False),
        (np.empty((0, 2)), False),
        (np.empty((2, 0)), False),
        (np.array([[1.0, 2.0]], dtype=object), False),
        (np.array([[1.0, 2.0], [3.0, 4.0]]).T, False),
        (np.array([[1.0, 2.0]], dtype=">f8"), False),
    ])
    def test_bulk_path_takes_only_exact_float_lists_and_tables(self, obj, bulk):
        assert (util._float_table(obj) is not None) == bulk


float_arrays = float_tables.map(np.array)


class TestDumpJsonArrays:
    """A 2-d float64 array is written as ``json.dumps`` writes its ``tolist()``."""

    @settings(max_examples=200, deadline=None)
    @given(arr=float_arrays, read_only=st.booleans(),
           block=st.sampled_from([1, 2, 5, util._ROW_BLOCK]))
    def test_matches_json_dumps_of_tolist(self, arr, read_only, block):
        arr.setflags(write=not read_only)
        with mock.patch.object(util, "_ROW_BLOCK", block):
            assert written(arr) == reference(arr.tolist())
            obj = {"type": "cloud", "points": arr}
            assert written(obj) == reference({"type": "cloud", "points": arr.tolist()})

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_special_values_over_two_blocks(self, width):
        rng = np.random.default_rng(width)
        pool = np.array(SPECIAL + [-0.0, nan_with_payload(3)])
        rows = util._ROW_BLOCK * 2 + 11
        arr = pool[rng.integers(0, pool.size, (rows, width))]
        arr.setflags(write=False)
        assert written(arr) == reference(arr.tolist())

    def test_arrays_off_the_bulk_path_fail_as_json_does(self):
        for arr in (np.zeros(3), np.zeros((2, 2), dtype=np.float32), np.empty((0, 2))):
            with pytest.raises(TypeError):
                reference(arr)
            with pytest.raises(TypeError):
                written(arr)


def unique(values):
    return np.unique(values, return_inverse=True)[0]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# a pool per example, drawn from with repeats: duplicates, signed zeros
# (one sign or both), subnormals, huge magnitudes, NaN payloads
distinct_pools = st.lists(
    st.one_of(st.sampled_from(SPECIAL + [nan_with_payload(3)]),
              st.floats(allow_subnormal=True)),
    max_size=8)
flat_inputs = distinct_pools.flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40) if pool else st.just([]))


class TestSortedDistinct:
    @settings(max_examples=400, deadline=None)
    @given(values=flat_inputs)
    def test_matches_np_unique_bit_for_bit(self, values):
        arr = np.array(values, dtype=float)
        assert_same_bits(util.sorted_distinct(arr), unique(arr))
        assert_same_bits(util.sorted_distinct(values), unique(values))

    @pytest.mark.parametrize("values", [
        [],
        [0.0, 0.0, -1.0],
        [-0.0, 2.0, -0.0],
        [1e308, -1e308, 5e-324, -5e-324, 5e-324],
        [3, 1, 1, 2],
        np.float64(2.5),
        [[2.0, 1.0], [1.0, 2.0]],
        # numpy's SIMD sort can return the zeros of this list all positive
        [0.0, 0.0, 0.0, -0.0, 0.0, -math.inf, -math.inf, -math.inf, -math.inf],
    ], ids=["empty", "zeros", "negative-zeros", "extremes", "ints", "scalar", "2-d",
            "zero-signs-the-sort-drops"])
    def test_edge_inputs(self, values):
        assert_same_bits(util.sorted_distinct(values), unique(values))

    def test_both_zero_signs_and_nans_take_np_unique(self):
        rng = np.random.default_rng(5)
        for size in (2, 17, 300):
            arr = rng.choice([0.0, -0.0, 1.0, math.nan], size)
            with mock.patch.object(util.np, "unique", wraps=np.unique) as spy:
                got = util.sorted_distinct(arr)
            assert spy.called == (np.isnan(arr).any() or np.signbit(arr[arr == 0]).ptp() > 0)
            assert_same_bits(got, unique(arr))

    @pytest.mark.parametrize("values, mixed", [
        ([0.0, -0.0, 1.0], True),
        ([-0.0, 0.0], True),
        ([-1.0, 0.0, -0.0], True),
        ([0.0, 0.0, 2.0], False),
        ([2.0, 1.0, 2.0, math.inf], False),
    ], ids=["zero-first", "zeros-only", "negative-first", "one-zero-sign", "positive"])
    def test_only_zeros_of_both_signs_take_np_unique(self, values, mixed):
        arr = np.array(values)
        with mock.patch.object(util.np, "unique", wraps=np.unique) as spy:
            got = util.sorted_distinct(arr)
        assert spy.called == mixed
        assert_same_bits(got, unique(arr))


def geomspace_grid(eps_min, eps_max, size):
    with np.errstate(over="ignore"):  # geomspace's power warns at the largest float
        return np.geomspace(eps_max, eps_min, size)


class TestLogGrid:
    """``log_grid`` makes ``np.geomspace``'s arithmetic itself, so its bits
    must be geomspace's, with both ends the radii given."""

    def test_bits_of_geomspace_on_seeded_grids(self):
        rng = np.random.default_rng(7029)
        top = sys.float_info.max
        for i in range(3000):
            lo, hi = np.sort(10.0 ** rng.uniform(-300.0, 300.0, 2)).tolist()
            if i % 5 == 0:
                hi = top
            elif i % 5 == 1:
                lo = 5e-324
            ppd = int(rng.integers(1, 60))
            grid = util.log_grid(lo, hi, ppd)
            assert_same_bits(grid, geomspace_grid(lo, hi, grid.size))
            assert (grid[0], grid[-1]) == (hi, lo)

    @pytest.mark.parametrize("lo, hi, ppd", [
        (1e-6, 2.0, 200),
        (5e-324, sys.float_info.max, 3),
        (1e-300, sys.float_info.max, 200),
        (1.0, math.nextafter(1.0, 2.0), 200),
        (1e300, math.nextafter(1e300, math.inf), 1),
        (math.nextafter(sys.float_info.max, 0.0), sys.float_info.max, 7),
    ], ids=["default", "whole-range", "largest-float", "adjacent", "adjacent-large",
            "adjacent-top"])
    def test_edge_ranges(self, lo, hi, ppd):
        grid = util.log_grid(lo, hi, ppd)
        assert_same_bits(grid, geomspace_grid(lo, hi, grid.size))
        assert np.all(np.diff(grid) < 0) and grid.dtype == np.float64

    @pytest.mark.parametrize("ppd", [10**9, 10**400], ids=["1e9", "1e400"])
    def test_points_per_decade_over_the_budget_is_refused(self, ppd):
        # 1e400 overflows a float: the refusal comes before any float product
        with pytest.raises(ValueError, match="budget"):
            util.log_grid(1e-3, 1.0, ppd)

    def test_grid_over_the_budget_is_refused(self):
        # 600 decades at 10**4 per decade: 6e6 points, 48 MB never allocated
        with pytest.raises(ValueError, match="budget of 1000000"):
            util.log_grid(1e-300, 1e300, 10**4)
        assert util.log_grid(1e-6, 1.0, util.GRID_POINT_BUDGET // 6).size <= util.GRID_POINT_BUDGET


class TestAtomicWrite:
    def test_error_names_the_path_asked_for(self, tmp_path):
        target = tmp_path / "nodir" / "out.json"
        with pytest.raises(FileNotFoundError) as info:
            with util.atomic_write(target) as fh:
                fh.write("x")
        assert info.value.filename == str(target)
        assert ".tmp" not in str(info.value)
        assert not (tmp_path / "nodir").exists()

    def test_failed_rename_names_the_path_and_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.json"
        target.mkdir()
        with pytest.raises(IsADirectoryError) as info:
            with util.atomic_write(target) as fh:
                fh.write("x")
        assert info.value.filename == str(target) and info.value.filename2 is None
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert list(target.iterdir()) == []

    def test_fifo_is_written_into_not_replaced(self, tmp_path):
        # a rename would leave a regular file where the FIFO was
        target = tmp_path / "pipe"
        os.mkfifo(target)
        got = []
        reader = threading.Thread(target=lambda: got.append(target.read_text()), daemon=True)
        reader.start()
        with util.atomic_write(target) as fh:
            fh.write("report\n")
        reader.join(timeout=10)
        assert not reader.is_alive() and got == ["report\n"]
        assert stat.S_ISFIFO(target.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_regular_file_is_replaced_whole(self, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old and longer")
        with util.atomic_write(target) as fh:
            fh.write("new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_symlink_is_written_through_to_its_target(self, tmp_path):
        real = tmp_path / "real.json"
        real.write_text("target")
        link = tmp_path / "link.json"
        link.symlink_to(real.name)
        with util.atomic_write(link) as fh:
            fh.write("new")
        assert link.is_symlink() and os.readlink(link) == real.name
        assert real.read_text() == "new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]

    def test_new_file_mode_follows_the_umask_and_a_replaced_file_keeps_its_own(self, tmp_path):
        old = os.umask(0o022)
        try:
            with util.atomic_write(tmp_path / "new.json") as fh:
                fh.write("x")
            kept = tmp_path / "kept.json"
            kept.write_text("old")
            kept.chmod(0o640)
            with util.atomic_write(kept) as fh:
                fh.write("x")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o644
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640

    def test_error_mid_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with util.atomic_write(target) as fh:
                fh.write("x")
                raise RuntimeError("stop")
        assert list(tmp_path.iterdir()) == []
