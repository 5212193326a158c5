import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity.covering import (
    BRUTE_FORCE_LIMIT,
    CoveringCurve,
    box_count_estimate,
    brute_force_covering_oracle,
    covering_curve,
    covering_counts,
    covering_number_1d,
    covering_number_power,
    default_grid,
    exact_counter,
)
from rigidity.sets import FinitePoints, PowerSequence, SampledCloud
from rigidity.util import log_grid

from conftest import downward_greedy_power_count

point_sets = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=1, max_size=BRUTE_FORCE_LIMIT,
)
radii = st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)


@st.composite
def sets_with_ties(draw):
    """Up to BRUTE_FORCE_LIMIT points with repeats, plus radii that include
    every exact tie eps = gap / 2 between two of them."""
    pool = draw(
        st.lists(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
                 min_size=1, max_size=6)
        | st.lists(st.integers(-12, 12).map(lambda k: 0.25 * k), min_size=1, max_size=6)
    )
    pts = np.array(draw(st.lists(st.sampled_from(pool), min_size=1,
                                 max_size=BRUTE_FORCE_LIMIT)))
    gaps = np.abs(np.subtract.outer(pts, pts))
    ties = np.unique(gaps[gaps > 0]) / 2.0
    extra = draw(st.lists(radii, min_size=1, max_size=5))
    eps = np.concatenate([ties, extra])
    return pts, eps[eps > 0]


def scalar_greedy(pts, epsilon):
    """Reference sweep: one searchsorted per ball, on sorted points."""
    count, i = 0, 0
    while i < pts.size:
        count += 1
        i = int(np.searchsorted(pts, pts[i] + 2.0 * epsilon, side="right"))
    return count


def stratified_uniform(rng, k):
    return (np.arange(k) + rng.uniform(0.25, 0.75, k)) / k


def cantor_like(rng, levels):
    lo, width = np.zeros(1), np.ones(1)
    for _ in range(levels):
        left = rng.uniform(0.28, 0.36, lo.size) * width
        right = rng.uniform(0.28, 0.36, lo.size) * width
        lo = np.stack([lo, lo + width - right], axis=-1).ravel()
        width = np.stack([left, right], axis=-1).ravel()
    return np.sort(lo + 0.5 * width)


class TestGreedy1d:
    def test_single_point(self):
        assert covering_number_1d(np.array([0.42]), 1e-6) == 1

    def test_two_points_split_by_gap(self):
        pts = np.array([0.0, 1.0])
        assert covering_number_1d(pts, 0.5) == 1   # closed ball: 2*eps == gap
        assert covering_number_1d(pts, 0.499) == 2

    def test_exact_diameter_tie_is_covered(self):
        # a point exactly 2*eps from the anchor belongs to the closed ball
        pts = np.array([0.0, 0.2, 0.4])
        assert covering_number_1d(pts, 0.2) == 1

    def test_unsorted_input_is_handled(self):
        pts = np.array([5.0, 1.0, 3.0])
        assert covering_number_1d(pts, 1.0) == covering_number_1d(np.sort(pts), 1.0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            covering_number_1d(np.array([0.0]), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            covering_number_1d(np.array([]), 0.1)

    @given(point_sets, radii)
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_oracle(self, vals, eps):
        pts = np.array(vals)
        assert covering_number_1d(pts, eps) == brute_force_covering_oracle(pts, eps)

    @given(point_sets, radii, radii)
    @settings(max_examples=150, deadline=None)
    def test_monotone_in_epsilon(self, vals, e1, e2):
        pts = np.array(vals)
        lo, hi = sorted([e1, e2])
        assert covering_number_1d(pts, hi) <= covering_number_1d(pts, lo)

    @given(point_sets, point_sets, radii)
    @settings(max_examples=150, deadline=None)
    def test_union_subadditive(self, a, b, eps):
        pa, pb = np.array(a), np.array(b)
        both = np.concatenate([pa, pb])
        assert covering_number_1d(both, eps) <= (
            covering_number_1d(pa, eps) + covering_number_1d(pb, eps)
        )

    @given(
        point_sets, radii,
        st.floats(min_value=-20, max_value=20, allow_nan=False).filter(
            lambda a: abs(a) > 1e-3
        ),
        st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_affine_invariance(self, vals, eps, a, b):
        pts = np.array(vals)
        assert covering_number_1d(a * pts + b, abs(a) * eps) == covering_number_1d(
            pts, eps
        )


class TestLockstepCounts:
    """All radii of a scan counted in one call, for finite sets."""

    @given(sets_with_ties())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_with_duplicates_and_ties(self, case):
        pts, eps = case
        counts = covering_counts(SampledCloud(pts), eps)
        assert counts.tolist() == [brute_force_covering_oracle(pts, e) for e in eps]

    @given(sets_with_ties())
    @settings(max_examples=100, deadline=None)
    def test_one_call_equals_one_radius_calls(self, case):
        pts, eps = case
        count = exact_counter(SampledCloud(pts))
        batch = covering_counts(SampledCloud(pts), eps).tolist()
        assert batch == [covering_number_1d(pts, e) for e in eps]
        assert batch == [count(e) for e in eps]

    @given(sets_with_ties())
    @settings(max_examples=100, deadline=None)
    def test_counts_never_drop_as_epsilon_shrinks(self, case):
        pts, eps = case
        counts = covering_counts(SampledCloud(pts), eps)
        order = np.argsort(-eps, kind="stable")
        assert np.all(np.diff(counts[order]) >= 0)

    @pytest.mark.parametrize("make", [
        lambda rng: stratified_uniform(rng, 600),
        lambda rng: cantor_like(rng, 10),
    ], ids=["stratified600", "cantor1024"])
    def test_identical_to_scalar_greedy_on_default_grid(self, make):
        s = FinitePoints(make(np.random.default_rng(2308)))
        pts = np.sort(s.values)
        grid = default_grid(s)
        expected = [scalar_greedy(pts, e) for e in grid.tolist()]
        assert covering_counts(s, grid).tolist() == expected
        assert covering_curve(s, grid).counts.tolist() == expected


class TestBruteForceOracle:
    def test_worked_example(self):
        assert brute_force_covering_oracle(np.array([0.0, 0.5, 1.0, 2.5]), 0.5) == 2

    def test_single_point_any_radius(self):
        assert brute_force_covering_oracle(np.array([0.0]), 1e-9) == 1

    def test_refuses_large_sets(self):
        with pytest.raises(ValueError):
            brute_force_covering_oracle(np.arange(BRUTE_FORCE_LIMIT + 1.0), 0.1)


class TestPowerCovering:
    def test_alpha_minus_one_wide_ball(self):
        # one ball [0.2, 1.0] catches every term down to 1/5; the rest is tail
        assert covering_number_power(-1.0, 0.4) == 2

    def test_alpha_minus_two_single_ball(self):
        assert covering_number_power(-2.0, 0.6) == 1

    def test_epsilon_range_enforced(self):
        with pytest.raises(ValueError):
            covering_number_power(-1.0, 1.0)
        with pytest.raises(ValueError):
            covering_number_power(-1.0, 0.0)
        with pytest.raises(ValueError):
            covering_number_power(0.5, 0.1)

    def test_refuses_astronomical_counts(self):
        with pytest.raises(ValueError):
            covering_number_power(-1.0, 1e-16)

    @given(
        st.floats(min_value=-3.0, max_value=-1.0),
        st.floats(min_value=3e-3, max_value=0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_materialized_oracle(self, alpha, eps):
        # dual route: explicit materialization + array greedy, no index inversion
        assert covering_number_power(alpha, eps) == downward_greedy_power_count(
            alpha, eps
        )

    def test_monotone_in_epsilon(self):
        counts = [covering_number_power(-1.0, e) for e in np.geomspace(0.3, 1e-4, 25)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))


class TestCoveringCurve:
    def test_two_point_example(self):
        curve = covering_curve(FinitePoints([0.0, 1.0]), [1.0, 0.4])
        assert list(curve.counts) == [1, 2]

    def test_single_entry_matches_pointwise_routine(self):
        s = FinitePoints([0.0, 0.3, 0.9])
        curve = covering_curve(s, [0.2])
        assert curve.counts[0] == covering_number_1d(s.values, 0.2)

    def test_power_curve_entries_reverified(self):
        s = PowerSequence(-1.0)
        grid = log_grid(1e-3, 0.5, 10)
        curve = covering_curve(s, grid)
        assert np.all(np.diff(curve.counts) >= 0)  # counts grow as eps shrinks
        for eps, count in zip(curve.epsilons, curve.counts):
            assert count == covering_number_power(-1.0, eps)

    def test_counts_are_validated(self):
        with pytest.raises(ValueError):
            CoveringCurve(np.array([0.1, 0.2]), np.array([1, 2]))  # eps increasing
        with pytest.raises(ValueError):
            CoveringCurve(np.array([0.2, 0.1]), np.array([3, 2]))  # counts drop

    def test_csv_text(self):
        curve = covering_curve(FinitePoints([0.0, 1.0]), [0.4])
        text = curve.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "epsilon,count"
        assert lines[1] == "0.4,2"


class TestExactCounter:
    def test_dispatch(self):
        f = exact_counter(FinitePoints([0.0, 1.0]))
        assert f(0.4) == 2
        g = exact_counter(PowerSequence(-1.0))
        assert g(0.4) == 2

    def test_cloud_m1_allowed(self):
        f = exact_counter(SampledCloud([0.9, 0.1, 0.5]))
        assert f(0.5) == 1

    def test_m2_cloud_refused(self):
        cloud = SampledCloud([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            exact_counter(cloud)


class TestBoxCountEstimate:
    def test_upper_bounds_exact_count(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            pts = rng.uniform(-2, 2, size=rng.integers(1, 10))
            eps = float(rng.uniform(0.05, 1.0))
            est = box_count_estimate(pts.reshape(-1, 1), eps)
            assert est >= covering_number_1d(pts, eps)

    def test_m2_cloud(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.1], [5.0, 5.0]])
        assert box_count_estimate(pts, 1.0) >= 2


class TestDefaultGrid:
    def test_spans_diameter(self):
        s = FinitePoints([0.0, 10.0])
        grid = default_grid(s)
        assert grid[0] == pytest.approx(10.0)
        assert grid[-1] == pytest.approx(1e-6)
        assert np.all(np.diff(grid) < 0)

    def test_power_grid_stays_below_one(self):
        grid = default_grid(PowerSequence(-1.0))
        assert grid[0] < 1.0
