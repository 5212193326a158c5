"""Tests for near-critical extraction from sampled maps.

Semi-axes are checked against linear maps (where central differences are
exact) and against known gradients; extraction against hand-derived
near-critical regions; the empirical forward check against polynomial
maps whose behavior is known in closed form.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity import critical
from rigidity.bounds import LambdaProfile, ProblemParams, rhs_polynomial
from rigidity.critical import (
    GRID_CSV_BYTES_PER_NODE,
    MAX_GRID_NODES,
    SampledMap,
    empirical_forward_check,
    measured_derivative_scale,
    near_critical_set,
    semi_axis_field,
)
from rigidity.maps import builtin_map
from rigidity.sets import DescriptorError, FinitePoints, SampledCloud

from oracles import grid_csv_text, reference_semi_axis_field


def sampled(name, divisions=None):
    entry = builtin_map(name)
    return SampledMap.from_callable(entry.func, entry.n, entry.m, 1.0, divisions)


def semi_axes_at(sm, point):
    """Row of ``semi_axis_field`` at the grid node nearest ``point``."""
    node = [sm.axis[np.argmin(np.abs(sm.axis - x))] for x in point]
    pts, sig = semi_axis_field(sm)
    (row,) = np.flatnonzero(np.all(pts == node, axis=1))
    return sig[row]


class TestSampledMap:
    def test_from_callable_shapes(self):
        sm = sampled("parabola1d")
        assert sm.n == 1 and sm.m == 1
        assert sm.axis.size == 513
        assert sm.values.shape == (513, 1)
        assert sm.grid_step == pytest.approx(1.0 / 256.0, rel=1e-12)

    def test_two_dimensional_map(self):
        sm = sampled("stretch2d", divisions=16)
        assert sm.n == 2 and sm.m == 2
        assert sm.values.shape == (33, 33, 2)
        # node values follow the ij meshgrid convention
        assert sm.values[0, 16] == pytest.approx([-2.0, 0.0], abs=1e-12)
        assert sm.values[16, 0] == pytest.approx([0.0, -0.5], abs=1e-12)

    def test_axis_must_be_symmetric_and_uniform(self):
        vals = np.zeros((11, 1))
        with pytest.raises(ValueError):
            SampledMap(np.linspace(0.0, 1.0, 11), vals, 1.0)
        skewed = np.array([-1.0, -0.5, 0.0, 0.25, 1.0])
        with pytest.raises(ValueError):
            SampledMap(skewed, np.zeros((5, 1)), 1.0)

    def test_needs_enough_nodes(self):
        with pytest.raises(ValueError):
            SampledMap(np.linspace(-1, 1, 3), np.zeros((3, 1)), 1.0)

    def test_grid_budget(self):
        def never(pts):
            raise AssertionError("an over-budget grid must not be sampled")

        # the largest grid in use is the default n = 3 one, 129^3 nodes
        assert 129**3 * 10 <= MAX_GRID_NODES < 401**3
        with pytest.raises(ValueError, match="exceed the budget"):
            SampledMap.from_callable(never, 3, 1, divisions=200)

    def test_dimension_limits(self):
        with pytest.raises(ValueError):
            SampledMap.from_callable(lambda p: p[:, 0], 4, 1)
        axis = np.linspace(-1, 1, 9)
        with pytest.raises(ValueError):
            SampledMap(axis, np.zeros((9, 2)), 1.0)  # m = 2 > n = 1

    def test_values_must_be_finite(self):
        axis = np.linspace(-1, 1, 9)
        bad = np.zeros((9, 1))
        bad[4] = np.nan
        with pytest.raises(ValueError):
            SampledMap(axis, bad, 1.0)

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
    def test_radius_refused_before_sampling(self, radius):
        def never(pts):
            raise AssertionError("a bad radius must not be sampled")

        with pytest.raises(ValueError, match="radius must be positive and finite"):
            SampledMap.from_callable(never, 1, 1, radius)

    def test_overflowing_samples_are_refused_quietly(self):
        entry = builtin_map("bowl2d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sampled values must be finite"):
                SampledMap.from_callable(entry.func, 2, 1, 1e300, 8)

    def test_axis_past_half_the_float_range(self):
        # the span 2r overflows: the nodes are spaced at half scale and doubled
        entry = builtin_map("tilt2d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sm = SampledMap.from_callable(entry.func, 2, 1, 1e308, 5)
        half = 1e308 / 2.0
        assert np.array_equal(sm.axis, 2.0 * np.linspace(-half, half, 11))
        assert sm.axis[-1] == 1e308

    def test_map_of_the_wrong_shape_is_refused(self):
        # m = 1 asks for (k, 1) or (k,); a (k, 2) return is another map
        with pytest.raises(ValueError, match=r"map returned shape \(17, 2\), expected \(17, 1\)"):
            SampledMap.from_callable(lambda p: np.hstack([p, p]), 1, 1, 1.0, 8)

    def test_radius_too_small_to_space_the_nodes(self):
        with pytest.raises(ValueError, match="too small to space 11 grid nodes"):
            SampledMap.from_callable(lambda p: p[:, 0], 1, 1, 5e-324, 5)

    def test_shape_mismatch(self):
        axis = np.linspace(-1, 1, 9)
        with pytest.raises(ValueError):
            SampledMap(axis, np.zeros((8, 1)), 1.0)


class TestGridCsv:
    def test_round_trip(self, tmp_path):
        sm = sampled("bowl2d", divisions=6)
        text = grid_csv_text(sm)
        assert text.splitlines()[0] == "x1,x2,f1"
        path = tmp_path / "bowl.csv"
        path.write_text(text)
        back = SampledMap.from_grid_csv(path)
        assert back.n == 2 and back.m == 1
        assert np.allclose(back.axis, sm.axis)
        assert np.allclose(back.values, sm.values)

    def test_round_trip_vector_target(self, tmp_path):
        sm = sampled("stretch2d", divisions=5)
        path = tmp_path / "stretch.csv"
        path.write_text(grid_csv_text(sm))
        back = SampledMap.from_grid_csv(path)
        assert back.m == 2
        assert np.allclose(back.values, sm.values)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            SampledMap.from_grid_csv(path)

    def test_truncated_rows(self, tmp_path):
        sm = sampled("parabola1d", divisions=4)
        lines = grid_csv_text(sm).splitlines()
        path = tmp_path / "short.csv"
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            SampledMap.from_grid_csv(path)

    def test_byte_budget_follows_node_budget(self, tmp_path, monkeypatch):
        path = tmp_path / "bowl.csv"
        path.write_text(grid_csv_text(sampled("bowl2d", divisions=6)))
        nodes = -(-path.stat().st_size // GRID_CSV_BYTES_PER_NODE)
        monkeypatch.setattr("rigidity.critical.MAX_GRID_NODES", nodes)
        assert SampledMap.from_grid_csv(path).values.shape == (13, 13, 1)

        def never(*args, **kwargs):
            raise AssertionError("an over-budget file must not be read")

        monkeypatch.setattr("rigidity.critical.MAX_GRID_NODES", nodes - 1)
        monkeypatch.setattr(np, "loadtxt", never)
        with pytest.raises(ValueError, match="budget") as info:
            SampledMap.from_grid_csv(path)
        assert not isinstance(info.value, DescriptorError)

    def test_malformed_file_is_a_descriptor_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,f1\n0,1\n1,2\n")  # too few nodes for a grid
        with pytest.raises(DescriptorError):
            SampledMap.from_grid_csv(path)

    @staticmethod
    def _with_coordinate(sm, row, column, shift):
        """The grid CSV of ``sm`` with one coordinate of one data row moved by ``shift``."""
        lines = grid_csv_text(sm).splitlines()
        cells = lines[1 + row].split(",")
        cells[column] = repr(float(cells[column]) + shift)
        lines[1 + row] = ",".join(cells)
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("n, column", [(2, 0), (3, 0), (3, 1)])
    def test_coordinate_tolerance_is_1e_12_along_every_leading_axis(self, tmp_path, n, column):
        # the last coordinate defines the axis, so the leading ones are checked against it
        sm = SampledMap.from_callable(lambda p: np.sum(p**2, axis=1), n, 1, 1.0, 3)
        path = tmp_path / "grid.csv"
        row = 3 * 7 ** (n - 1) // 2 + 5  # an interior row, away from zero coordinates
        path.write_text(self._with_coordinate(sm, row, column, 0.9e-12))
        assert np.array_equal(SampledMap.from_grid_csv(path).values, sm.values)
        path.write_text(self._with_coordinate(sm, row, column, 1.1e-12))
        with pytest.raises(DescriptorError, match="row-major"):
            SampledMap.from_grid_csv(path)

    def test_swapped_rows_are_refused(self, tmp_path):
        lines = grid_csv_text(sampled("bowl2d", divisions=3)).splitlines()
        lines[2], lines[20] = lines[20], lines[2]
        path = tmp_path / "swapped.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DescriptorError, match="row-major"):
            SampledMap.from_grid_csv(path)


class TestSemiAxes:
    def test_linear_map_is_exact(self):
        sm = sampled("stretch2d", divisions=32)
        got = semi_axes_at(sm, (0.25, -0.375))
        assert np.allclose(got, [0.5, 2.0], atol=1e-12)

    def test_linear_map_constant_across_the_grid(self):
        sm = sampled("stretch2d", divisions=32)
        _, sig = semi_axis_field(sm)
        assert np.all(np.diff(sig, axis=1) >= 0)  # ascending
        spread = np.max(np.abs(sig - sig[0]), axis=0)
        assert np.all(spread <= 1e-10 * np.abs(sig[0]))

    def test_gradient_norm_for_scalar_targets(self):
        sm = sampled("bowl2d")
        a, b = 0.25, 0.5
        got = semi_axes_at(sm, (a, b))
        assert got.shape == (1,)
        assert got[0] == pytest.approx(2.0 * math.hypot(a, b), rel=1e-10)

    def test_tilted_plane(self):
        sm = sampled("tilt2d", divisions=16)
        got = semi_axes_at(sm, (0.125, -0.25))
        assert got[0] == pytest.approx(math.hypot(0.3, 0.7), rel=1e-12)

    def test_constant_map_vanishes(self):
        sm = sampled("const1d")
        assert semi_axes_at(sm, (0.25,))[0] == 0.0

    def test_field_stays_inside_the_ball(self):
        sm = sampled("bowl2d", divisions=16)
        pts, sig = semi_axis_field(sm)
        assert pts.shape[0] == sig.shape[0]
        assert np.all(np.sum(pts**2, axis=1) <= 1.0 + 1e-12)
        # interior trim: the extreme nodes never appear
        assert np.max(np.abs(pts)) < 1.0

    @pytest.mark.parametrize("radius", [1e-300, 2.0**-1000])
    def test_tiny_radius_keeps_the_same_ball(self, radius):
        entry = builtin_map("bowl2d")
        unit = SampledMap.from_callable(entry.func, 2, 1, 1.0, 5)
        tiny = SampledMap.from_callable(entry.func, 2, 1, radius, 5)
        got, want = semi_axis_field(tiny)[0] / radius, semi_axis_field(unit)[0]
        assert got.shape == want.shape == (73, 2)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200, 1e-300])
    def test_tiny_gradients_scale_with_the_map(self, scale):
        # the squares of these gradient entries underflow
        entry = builtin_map("bowl2d")
        unit = SampledMap.from_callable(entry.func, 2, 1, 1.0, 8)
        tiny = SampledMap.from_callable(lambda p: scale * entry.func(p), 2, 1, 1.0, 8)
        got, want = semi_axis_field(tiny)[1] / scale, semi_axis_field(unit)[1]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.array_equal(got == 0.0, want == 0.0)

    def test_gradient_norms_whose_squares_overflow_are_rescaled(self):
        grad = np.array([[3e200, 4e200], [1e300, -1e300], [2e154, 0.0], [np.inf, 1.0],
                         [np.nan, 1.0], [1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = critical._gradient_norms(grad)
        want = [math.hypot(*row) for row in grad[:3].tolist()]
        assert np.allclose(got[:3], want, rtol=1e-15, atol=0.0)
        assert got[3] == math.inf and math.isnan(got[4])
        assert got[5] == np.linalg.norm(grad[5])

    def test_gradient_norms_above_the_rescale_line_keep_their_bits(self):
        rng = np.random.default_rng(3)
        grad = rng.standard_normal((200, 3)) * 10.0 ** rng.integers(-300, 150, (200, 1))
        grad[::7] = 0.0
        got = critical._gradient_norms(grad)
        plain = np.linalg.norm(grad, axis=1)
        high = plain >= critical._RESCALE_BELOW
        assert np.array_equal(got[high], plain[high])
        want = [math.hypot(*row) for row in grad[~high].tolist()]
        assert np.allclose(got[~high], want, rtol=1e-15, atol=0.0)

    def test_halving_the_step_quarters_the_error(self):
        # on x**3 the central-difference derivative error is exactly h**2
        cube = lambda p: p[:, 0] ** 3
        coarse = SampledMap.from_callable(cube, 1, 1, divisions=64)
        fine = SampledMap.from_callable(cube, 1, 1, divisions=128)
        truth = 3.0 * 0.25**2
        err_c = abs(semi_axes_at(coarse, (0.25,))[0] - truth)
        err_f = abs(semi_axes_at(fine, (0.25,))[0] - truth)
        assert 3.5 < err_c / err_f < 4.5


def two_row_matrix(kind, width, draw):
    entries = st.floats(-1.0, 1.0, allow_subnormal=True)
    if kind == "zero":
        return np.zeros((2, width))
    if kind == "random":
        return np.array(draw(st.lists(entries, min_size=2 * width, max_size=2 * width)),
                        dtype=float).reshape(2, width)
    u = np.array(draw(st.lists(entries, min_size=2, max_size=2)))
    v = np.array(draw(st.lists(entries, min_size=width, max_size=width)))
    rank_one = np.outer(u, v)
    if kind == "rank one":
        return rank_one
    tilt = np.array(draw(st.lists(entries, min_size=2 * width, max_size=2 * width)))
    return rank_one + draw(st.sampled_from([1e-8, 1e-12, 1e-15])) * tilt.reshape(2, width)


@st.composite
def two_row_stacks(draw):
    """A stack of 2 x n matrices: random, rank one, zero or nearly rank one,
    scaled as a whole or one by one by powers up to 1e+-300."""
    width = draw(st.sampled_from([2, 3]))
    kinds = st.sampled_from(["random", "rank one", "zero", "nearly rank one"])
    mats = [two_row_matrix(kind, width, draw)
            for kind in draw(st.lists(kinds, min_size=1, max_size=8))]
    scales = st.sampled_from([1.0, 1e150, 1e-150, 1e300, 1e-300])
    if draw(st.booleans()):
        factor = draw(scales)
        return np.stack(mats) * factor
    return np.stack([mat * draw(scales) for mat in mats])


class TestMaskFirstSemiAxes:
    """``semi_axis_field`` gathers only the interior nodes in the ball; the
    full-grid reference computes every node and picks afterwards."""

    @pytest.mark.parametrize("radius", [1e-150, 1.0, 1e150])
    @pytest.mark.parametrize("divisions", [4, 5])
    @pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3) for m in range(1, n + 1)])
    def test_bits_match_the_full_grid_reference(self, n, m, radius, divisions):
        rng = np.random.default_rng([n, m, divisions])
        npts = 2 * divisions + 1
        values = rng.standard_normal((npts,) * n + (m,)) * radius
        sm = SampledMap(np.linspace(-radius, radius, npts), values, radius)
        got_pts, got_sig = semi_axis_field(sm)
        want_pts, want_sig = reference_semi_axis_field(sm)
        assert got_pts.shape == want_pts.shape and got_sig.shape == want_sig.shape
        assert np.array_equal(got_pts.view(np.int64), want_pts.view(np.int64))
        assert np.array_equal(got_sig.view(np.int64), want_sig.view(np.int64))

    def test_one_first_derivative_serves_every_n1_consumer(self):
        sm = sampled("poly10", divisions=50)
        with mock.patch.object(critical, "_unit_gradient", wraps=critical._unit_gradient) as grad:
            near_critical_set(sm, LambdaProfile((0.0,)))
            measured_derivative_scale(sm, 1)
            assert grad.call_count == 1
            measured_derivative_scale(sm, 3)
            assert grad.call_count == 3


class TestClosedFormSemiAxes:
    @settings(max_examples=400, deadline=None)
    @given(jac=two_row_stacks())
    def test_matches_svd(self, jac):
        got = critical._two_row_singular_values(jac)
        want = np.linalg.svd(jac, compute_uv=False)[:, ::-1]
        assert got.shape == want.shape
        assert np.all(np.isfinite(got))
        assert np.all(got[:, 0] <= got[:, 1])
        # a few ulps of each matrix's largest singular value, and a few
        # units of the smallest subnormal when that value is itself subnormal
        tol = 8 * np.finfo(float).eps * want[:, 1:] + 4 * math.ulp(0.0)
        assert np.all(np.abs(got - want) <= tol)

    def test_zero_stack(self):
        assert np.array_equal(critical._two_row_singular_values(np.zeros((3, 2, 3))),
                              np.zeros((3, 2)))

    def test_svd_runs_only_for_three_targets(self):
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("svd")):
            _, sig = semi_axis_field(sampled("stretch2d", divisions=8))
            three = lambda p: np.stack([p[:, 0], 2 * p[:, 1], 3 * p[:, 2]], axis=-1)
            with pytest.raises(AssertionError, match="svd"):
                semi_axis_field(SampledMap.from_callable(three, 3, 3, divisions=4))
        assert np.allclose(sig, [0.5, 2.0], rtol=1e-12, atol=0.0)

    def test_overflowed_rows_leave_the_others_alone(self):
        jac = np.array([[[np.inf, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 0.5]],
                        [[np.nan, 0.0], [0.0, 1.0]], [[0.0, 3.0], [0.25, 0.0]]])
        with np.errstate(invalid="ignore"):
            got = critical._two_row_singular_values(jac)
        assert np.array_equal(got[[1, 3]], [[0.5, 2.0], [0.25, 3.0]])

    def test_equal_singular_values_stay_ascending(self):
        # sqrt(g) / sigma_max rounds above sigma_max on about a quarter of these
        t = np.linspace(0.0, 2 * np.pi, 4001)
        rot = np.stack([np.stack([np.cos(t), -np.sin(t)], axis=-1),
                        np.stack([np.sin(t), np.cos(t)], axis=-1)], axis=1)
        got = critical._two_row_singular_values(3.7 * rot)
        assert np.all(got[:, 0] <= got[:, 1])
        assert np.allclose(got, 3.7, rtol=4 * np.finfo(float).eps, atol=0.0)


def loop_sign_change_roots(x, g):
    """The per-pair loop the array code replaced, kept as its reference.

    Opposite signs are compared, not tested by ``a * b < 0``: that product
    underflows to zero for two tiny derivatives and hides their root.
    """
    locs = []
    for i in range(g.size - 1):
        a, b = g[i], g[i + 1]
        if a < 0.0 < b or b < 0.0 < a:
            locs.append(x[i] - a * (x[i + 1] - x[i]) / (b - a))
    return np.asarray(locs, dtype=float)


@st.composite
def derivative_samples(draw):
    """Derivative samples built from runs of one sign and runs of exact
    zeros (alone or next to each other), magnitudes from subnormal to 1e300."""
    magnitudes = st.floats(5e-324, 1e300)
    values = []
    for _ in range(draw(st.integers(2, 12))):
        sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        run = draw(st.lists(magnitudes, min_size=1, max_size=6))
        values += [sign * m for m in run]
    x = np.linspace(-1.0, 1.0, len(values) + 2)[1:-1]
    return x, np.array(values)


class TestSignChangeRoots:
    @settings(max_examples=300, deadline=None)
    @given(sample=derivative_samples())
    def test_matches_the_loop_bit_for_bit(self, sample):
        x, g = sample
        with np.errstate(over="ignore"):
            want = loop_sign_change_roots(x, g)
        assert np.array_equal(critical._sign_change_roots(x, g), want)

    def test_seeded_samples_with_zero_runs(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            g = rng.standard_normal(rng.integers(2, 400))
            g[rng.random(g.size) < 0.2] = 0.0
            g[rng.random(g.size) < 0.3] *= 1e-200
            x = np.sort(rng.uniform(-1.0, 1.0, g.size))
            got = critical._sign_change_roots(x, g)
            assert np.array_equal(got, loop_sign_change_roots(x, g))


class TestNearCriticalSet:
    def test_parabola_threshold_window(self):
        sm = sampled("parabola1d")
        ext = near_critical_set(sm, LambdaProfile((0.2,)))
        h = sm.grid_step
        assert ext.count > 0
        assert np.all(np.abs(ext.points[:, 0]) <= 0.1 + h + 1e-12)
        assert isinstance(ext.descriptor, FinitePoints)
        vals = ext.descriptor.values
        assert np.all(np.diff(vals) > 0)  # sorted, deduplicated
        assert vals.min() >= 0.0
        assert vals.max() <= 0.01 + 3 * h**2

    def test_constant_map_everything_qualifies(self):
        sm = sampled("const1d")
        ext = near_critical_set(sm, LambdaProfile((0.0,)))
        assert ext.count == 511  # all interior nodes
        assert np.array_equal(ext.descriptor.values, [0.5])

    def test_linear_map_nothing_qualifies(self):
        sm = sampled("linear1d")
        ext = near_critical_set(sm, LambdaProfile((0.5,)))
        assert ext.count == 0
        assert ext.descriptor is None

    def test_monotone_in_the_thresholds(self):
        sm = sampled("poly10")
        tight = near_critical_set(sm, LambdaProfile((0.05,)))
        loose = near_critical_set(sm, LambdaProfile((0.15,)))
        tight_pts = set(map(float, tight.points[:, 0]))
        loose_pts = set(map(float, loose.points[:, 0]))
        assert tight_pts <= loose_pts

    def test_zero_threshold_brackets_derivative_roots(self):
        # x**3 - x has critical values -/+ 2/(3 sqrt 3), never hit exactly
        # on the grid; the sign-change refinement must recover both
        sm = sampled("cubic1d")
        ext = near_critical_set(sm, LambdaProfile((0.0,)))
        target = 2.0 / (3.0 * math.sqrt(3.0))
        vals = np.sort(ext.values[:, 0])
        assert vals.shape == (2,)
        assert vals[0] == pytest.approx(-target, abs=1e-6)
        assert vals[1] == pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("scale", [1e-150, 1e-160, 1e-200, 1e-300])
    def test_tiny_cubic_keeps_its_two_critical_values(self, scale):
        # the gradient's squares and the products of neighbouring
        # derivatives underflow here; neither may create or hide a value
        entry = builtin_map("cubic1d")
        sm = SampledMap.from_callable(lambda p: scale * entry.func(p), 1, 1)
        ext = near_critical_set(sm, LambdaProfile((0.0,)))
        target = 2.0 / (3.0 * math.sqrt(3.0))
        assert ext.descriptor.values.size == 2
        assert np.allclose(ext.descriptor.values / scale, [-target, target],
                           rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    def test_sampled_root_values_match_a_parabola_fit(self, radius):
        # a seeded cubic with both critical points inside, sampled without
        # its callable, so the values at the bracketed roots come from the
        # three-point parabola; the reference fits it with polyfit per root
        rng = np.random.default_rng(int(radius * 1e3))
        for _ in range(10):
            p, q = rng.uniform(-0.8, -0.1), rng.uniform(0.1, 0.8)
            c3 = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            coeffs = [rng.uniform(2.0, 5.0), 3 * c3 * p * q, -1.5 * c3 * (p + q), c3]
            full = SampledMap.from_callable(
                lambda x: np.polynomial.polynomial.polyval(x[:, 0] / radius, coeffs),
                1, 1, radius, int(rng.integers(20, 300)))
            sm = SampledMap(full.axis, full.values, radius)
            locs, vals = critical._bracketed_derivative_roots(sm)
            assert locs.size == 2
            for loc, val in zip(locs, vals):
                i = min(max(int(np.argmin(np.abs(sm.axis - loc))), 1), sm.axis.size - 2)
                fit = np.polynomial.polynomial.polyfit(
                    sm.axis[i - 1:i + 2] - loc, sm.values[i - 1:i + 2, 0], 2)
                assert abs(val - fit[0]) <= 1e-12 * abs(fit[0])

    def test_sampled_root_values_past_1e154(self, tmp_path):
        # a fit in the coordinates themselves squares 1e150 and overflows
        sm = SampledMap.from_callable(lambda p: (p[:, 0] / 1e150 - 0.013) ** 2, 1, 1, 1e150, 8)
        assert sm.axis.size == 17
        path = tmp_path / "wide.csv"
        path.write_text(grid_csv_text(sm))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ext = near_critical_set(SampledMap.from_grid_csv(path), LambdaProfile((0.0,)))
        # the parabola through samples of a parabola is the function itself
        assert ext.points[:, 0] / 1e150 == pytest.approx([0.013], rel=1e-12)
        assert abs(ext.values[0, 0]) <= 1e-15

    def test_samples_past_2_to_512_keep_every_node(self):
        # the difference stencil multiplies each sample by about divisions / 2;
        # unscaled, that overflowed and silently dropped nodes past about 1e306.
        # At 256 divisions no node lies on the sphere, so the count is the same
        entry = builtin_map("tilt2d")
        counts = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for radius in (1.0, 1e307):
                sm = SampledMap.from_callable(entry.func, 2, 1, radius)
                counts.append(near_critical_set(sm, LambdaProfile((1.0,))).count)
        assert counts[0] == counts[1] > 0

    def test_values_are_read_by_node_index(self):
        # past half the float range, where x + r overflows
        entry = builtin_map("tilt2d")
        sm = SampledMap.from_callable(entry.func, 2, 1, 1e308, 5)
        ex = near_critical_set(sm, LambdaProfile((1.0,)))
        assert ex.count > 0
        assert np.array_equal(ex.values[:, 0], entry.func(ex.points))

    def test_vector_target_componentwise_thresholds(self):
        sm = sampled("stretch2d", divisions=16)
        wide = near_critical_set(sm, LambdaProfile((0.6, 2.5)))
        assert wide.count > 0
        assert isinstance(wide.descriptor, SampledCloud)
        assert wide.descriptor.points.shape[1] == 2
        narrow = near_critical_set(sm, LambdaProfile((0.4, 2.5)))
        assert narrow.count == 0

    def test_profile_length_must_match(self):
        sm = sampled("parabola1d")
        with pytest.raises(ValueError):
            near_critical_set(sm, LambdaProfile((0.1, 0.2)))


class TestMeasuredDerivativeScale:
    def test_cubic_third_derivative(self):
        # f''' = 6 everywhere, so the scale is 6 * 1 / 3! = 1
        sm = sampled("cubic1d")
        assert measured_derivative_scale(sm, 3) == pytest.approx(1.0, rel=1e-6)

    def test_parabola_higher_orders_vanish(self):
        sm = sampled("parabola1d")
        assert measured_derivative_scale(sm, 3) == pytest.approx(0.0, abs=1e-8)

    def test_first_order_is_the_gradient_peak(self):
        sm = sampled("linear1d")
        assert measured_derivative_scale(sm, 1) == pytest.approx(1.0, rel=1e-9)

    def test_validation(self):
        sm = sampled("parabola1d")
        with pytest.raises(ValueError):
            measured_derivative_scale(sm, 0)
        with pytest.raises(ValueError):
            measured_derivative_scale(sampled("bowl2d", divisions=8), 2)

    def test_samples_past_2_to_512_are_differenced_scaled(self):
        # the unit-coordinate slope of x is r; unscaled, its differences overflowed
        entry = builtin_map("linear1d")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sm = SampledMap.from_callable(entry.func, 1, 1, 1e307)
            assert measured_derivative_scale(sm, 1) == pytest.approx(1e307, rel=1e-12)

    def test_scaled_differences_keep_their_bits(self):
        # dividing by a power of two and multiplying back is exact
        sm = sampled("poly10", divisions=50)
        big = SampledMap(sm.axis, np.ldexp(sm.values, 600), 1.0)
        assert np.array_equal(big._unit_derivative, np.ldexp(sm._unit_derivative, 600))
        scale = measured_derivative_scale(sm, 3)
        assert measured_derivative_scale(big, 3) == math.ldexp(scale, 600)

    def test_differences_that_are_not_a_number_are_refused(self):
        # the first differences overflow to +-inf and the third meet inf - inf
        values = np.zeros((9, 1))
        values[[3, 5], 0] = 1.7e308
        sm = SampledMap(np.linspace(-1.0, 1.0, 9), values, 1.0)
        assert measured_derivative_scale(sm, 2) == math.inf
        with pytest.raises(ValueError, match="not a number"):
            measured_derivative_scale(sm, 3)
        with pytest.raises(ValueError, match="not a number"):
            empirical_forward_check(sm, ProblemParams(1, 1, 3), LambdaProfile((0.0,)))


class TestEmpiricalForwardCheck:
    def test_low_degree_polynomial_stays_at_the_baseline(self):
        # degree d-1 map: the derivative scale is 0, every row is baseline,
        # and a single critical value can never beat the constant
        sm = sampled("parabola1d")
        p = ProblemParams(1, 1, 3)  # c = 4
        report = empirical_forward_check(sm, p, LambdaProfile((0.0,)))
        assert report.all_passed
        assert report.flag is None
        assert report.derivative_scale == pytest.approx(0.0, abs=1e-8)
        assert report.slope is None
        assert all(r.regime == "baseline" for r in report.rows)
        assert all(r.measured == 1 for r in report.rows)
        assert all(r.bound == 4.0 for r in report.rows)

    def test_degree_ten_polynomial_respects_the_bound(self):
        sm = sampled("poly10")
        p = ProblemParams(1, 1, 3)  # c = 4
        report = empirical_forward_check(sm, p, LambdaProfile((0.0,)))
        assert report.all_passed
        assert report.flag is None
        assert report.derivative_scale > 0
        assert report.slope_reference == pytest.approx(-1.0 / 3.0, rel=1e-12)
        if report.slope is not None:
            assert report.slope >= -1.0 / 3.0 - 0.1
        eps = [r.epsilon for r in report.rows]
        assert eps == sorted(eps, reverse=True)
        assert set(r.regime for r in report.rows) <= {"baseline", "scaled"}

    def test_rows_are_the_polynomial_at_the_clamped_ratio(self):
        # the forward bound is rhs_polynomial at eta = max(R/eps, 1): the
        # baseline at and above the scale R, the ratio power below it
        sm = sampled("poly10")
        p = ProblemParams(1, 1, 3)  # c = 4
        profile = LambdaProfile((0.1,))
        scale = measured_derivative_scale(sm, 3)
        grid = [8.0 * scale, scale, scale / 8.0, scale / 1e3]
        report = empirical_forward_check(sm, p, profile, eps_grid=grid)
        assert [r.regime for r in report.rows] == ["baseline", "baseline", "scaled", "scaled"]
        assert [r.bound for r in report.rows] == [
            rhs_polynomial(p, profile, grid[0], 1.0),
            rhs_polynomial(p, profile, scale, 1.0),
            rhs_polynomial(p, profile, grid[2], 8.0),
            rhs_polynomial(p, profile, grid[3], scale / grid[3]),
        ]

    def test_vacuous_when_nothing_extracted(self):
        sm = sampled("linear1d")
        p = ProblemParams(1, 1, 3)
        report = empirical_forward_check(sm, p, LambdaProfile((0.5,)))
        assert report.rows == ()
        assert report.all_passed
        assert "vacuous" in report.flag

    def test_csv_layout(self):
        sm = sampled("parabola1d")
        p = ProblemParams(1, 1, 3)
        report = empirical_forward_check(
            sm, p, LambdaProfile((0.0,)), eps_grid=[1e-3, 1e-2]
        )
        lines = report.to_csv_text().strip().split("\n")
        assert lines[0] == "epsilon,measured_M,bound,regime,pass"
        assert len(lines) == 3
        assert lines[1].endswith(",baseline,true")

    def test_explicit_extraction_matches_the_implicit_one(self):
        sm = sampled("poly10")
        p = ProblemParams(1, 1, 3)
        profile = LambdaProfile((0.1,))
        ext = near_critical_set(sm, profile)
        auto = empirical_forward_check(sm, p, profile)
        manual = empirical_forward_check(sm, p, profile, extraction=ext)
        assert [r.measured for r in auto.rows] == [r.measured for r in manual.rows]

    def test_dimension_checks(self):
        p2 = ProblemParams(2, 2, 3, c=2.0)
        with pytest.raises(ValueError):
            empirical_forward_check(
                sampled("stretch2d", divisions=8), p2, LambdaProfile.zeros(2)
            )
        sm = sampled("parabola1d")
        with pytest.raises(ValueError):
            empirical_forward_check(sm, ProblemParams(2, 1, 3, c=2.0), LambdaProfile((0.0,)))

    def test_grid_validation(self):
        sm = sampled("parabola1d")
        p = ProblemParams(1, 1, 3)
        with pytest.raises(ValueError):
            empirical_forward_check(sm, p, LambdaProfile((0.0,)), eps_grid=[-0.1, 0.2])
