import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidity import covering
from rigidity.covering import (
    BRUTE_FORCE_LIMIT,
    POWER_COUNT_LIMIT,
    CoveringCurve,
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

from conftest import cantor_like, downward_greedy_power_count, stratified_uniform

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


def fraction_greedy(pts, epsilon):
    """Greedy sweep in exact rational arithmetic: no rounding anywhere."""
    exact = sorted(Fraction(p) for p in pts)
    reach_of = 2 * Fraction(epsilon)
    count, i = 0, 0
    while i < len(exact):
        count += 1
        reach = exact[i] + reach_of
        while i < len(exact) and exact[i] <= reach:
            i += 1
    return count


@st.composite
def near_tie_radii(draw):
    """Points plus radii gap/2 and one ulp either side, for some gaps."""
    pts = draw(st.lists(st.floats(-100.0, 100.0, allow_nan=False),
                        min_size=2, max_size=30))
    pairs = draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)),
                          min_size=1, max_size=4))
    eps = []
    for a, b in pairs:
        half = abs(a - b) / 2.0
        eps += [math.nextafter(half, 0.0), half, math.nextafter(half, math.inf)]
    eps += draw(st.lists(radii, max_size=3))
    return np.array(pts), np.array([e for e in eps if e > 0])


def scalar_power_anchors(alpha, epsilon):
    """Reference power-sequence sweep: its anchors, one scalar index search
    per ball; the last one is the final ball's, at or below 2*epsilon."""
    anchors = [1.0]
    while anchors[-1] > 2.0 * epsilon:
        anchors.append(scalar_next_term_below(alpha, anchors[-1] - 2.0 * epsilon))
    return anchors


def scalar_power_count(alpha, epsilon):
    return len(scalar_power_anchors(alpha, epsilon))


def scalar_next_term_below(alpha, t):
    log_m = math.log(t) / alpha
    if log_m > 34.5:
        return math.nextafter(t, 0.0)
    m = max(1, int(math.exp(log_m)) + 1)
    while m > 1 and (m - 1) ** alpha < t:
        m -= 1
    while m ** alpha >= t:
        m += 1
    return m ** alpha


@st.composite
def power_scans(draw):
    """An exponent and an unsorted batch of radii with repeats, some >= 1/2.

    alpha = -0.05 is drawn often: there every sweep below eps = 0.09
    reaches indices past 1e15, where the next anchor is nextafter(t, 0).
    """
    alpha = draw(st.just(-0.05) | st.floats(-3.0, -0.05))
    lo = 0.5 * 2e3 ** (alpha - 1.0)  # every count stays below about 2,000
    log_radius = st.floats(math.log(lo), math.log(0.999)).map(math.exp)
    eps = draw(st.lists(log_radius | st.floats(0.5, 1.0, exclude_max=True),
                        min_size=1, max_size=8))
    eps += draw(st.lists(st.sampled_from(eps), max_size=3))
    return alpha, draw(st.permutations(eps))


# live-sweep counts at which the kernels hand over from lockstep to the
# scalar finish: all lockstep, all but the last sweep, the default, all scalar
HANDOVERS = (0, 1, covering._SCALAR_TAIL, 10**9)


def at_every_handover(count):
    """count() run once per handover in HANDOVERS, keyed by the handover."""
    got = {}
    for tail in HANDOVERS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covering, "_SCALAR_TAIL", tail)
            got[tail] = count()
    return got


def every_handover(value):
    return dict.fromkeys(HANDOVERS, value)


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
    """All radii of a scan counted in one call, for finite sets, whether the
    sweeps run in lockstep, finish in the scalar search, or both."""

    @given(sets_with_ties())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_with_duplicates_and_ties(self, case):
        pts, eps = case
        expected = [brute_force_covering_oracle(pts, e) for e in eps]
        got = at_every_handover(lambda: covering_counts(SampledCloud(pts), eps).tolist())
        assert got == every_handover(expected)

    @given(sets_with_ties())
    @settings(max_examples=100, deadline=None)
    def test_one_call_equals_one_radius_calls(self, case):
        pts, eps = case
        count = exact_counter(SampledCloud(pts))
        singles = [count(e) for e in eps]
        got = at_every_handover(lambda: (
            covering_counts(SampledCloud(pts), eps).tolist(),
            [covering_number_1d(pts, e) for e in eps],
        ))
        assert got == every_handover((singles, singles))

    @given(sets_with_ties())
    @settings(max_examples=100, deadline=None)
    def test_counts_never_drop_as_epsilon_shrinks(self, case):
        pts, eps = case
        order = np.argsort(-eps, kind="stable")
        for counts in at_every_handover(lambda: covering_counts(SampledCloud(pts), eps)).values():
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
        got = at_every_handover(lambda: (
            covering_counts(s, grid).tolist(), covering_curve(s, grid).counts.tolist()
        ))
        assert got == every_handover((expected, expected))

    @pytest.mark.parametrize("size", [
        covering._SCALAR_TAIL - 1, covering._SCALAR_TAIL, covering._SCALAR_TAIL + 1,
    ])
    def test_batches_around_the_default_handover(self, size):
        pts = stratified_uniform(np.random.default_rng(size), 300)
        eps = np.geomspace(0.3, 1e-4, size)
        expected = [scalar_greedy(pts, e) for e in eps.tolist()]
        got = at_every_handover(lambda: covering_counts(FinitePoints(pts), eps).tolist())
        assert got == every_handover(expected)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, 0.0])
    def test_radii_must_be_positive(self, bad):
        # a negative radius used to stall the sweep's index for good
        with pytest.raises(ValueError):
            covering_counts(FinitePoints([0.0, 0.5, 1.0]), [bad])


class TestNoOvercount:
    """Float rounding in the sweep can only undercount, never overcount.

    Anchors are data points and round-to-nearest is monotone, so a point
    within 2*eps of an anchor in exact arithmetic is within the float
    reach too; near-tie radii gap/2 +- 1 ulp are where rounding bites.
    """

    @given(near_tie_radii())
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_exact_rational_greedy(self, case):
        pts, eps = case
        exact = np.array([fraction_greedy(pts, e) for e in eps.tolist()])
        for counts in at_every_handover(lambda: covering_counts(SampledCloud(pts), eps)).values():
            assert np.all(counts <= exact)


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
        with pytest.raises(ValueError):
            covering_number_power(-math.inf, 0.1)

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


class TestPowerLockstep:
    """The power kernel against a scalar sweep, bit for bit, at every handover
    from lockstep to the scalar finish."""

    @pytest.mark.parametrize("alpha, spec", [
        (-0.5, (2e-6, 0.5, 200)),
        (-1.0, (1e-7, 0.5, 200)),
    ], ids=["alpha-0.5", "alpha-1"])
    def test_identical_to_scalar_sweep_on_bench_grids(self, alpha, spec):
        grid = log_grid(*spec)
        expected = [scalar_power_count(alpha, e) for e in grid.tolist()]
        got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), grid).tolist())
        assert got == every_handover(expected)

    @given(power_scans())
    @settings(max_examples=100, deadline=None)
    def test_identical_to_scalar_sweep(self, case):
        alpha, eps = case
        expected = [scalar_power_count(alpha, e) for e in eps]
        got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
        assert got == every_handover(expected)

    @pytest.mark.parametrize("size", [
        covering._SCALAR_TAIL - 1, covering._SCALAR_TAIL, covering._SCALAR_TAIL + 1,
    ])
    def test_batches_around_the_default_handover(self, size):
        eps = np.geomspace(0.4, 1e-4, size)
        expected = [scalar_power_count(-0.5, e) for e in eps.tolist()]
        got = at_every_handover(lambda: covering_counts(PowerSequence(-0.5), eps).tolist())
        assert got == every_handover(expected)

    def test_coarse_grid_with_deep_sweeps(self):
        # a few radii each needing up to ~2e5 balls: the scalar finish
        # carries them, where lockstep paid one numpy pass per ball
        eps = np.geomspace(1e-3, 1e-6, 10)
        expected = [scalar_power_count(-0.1, e) for e in eps.tolist()]
        assert covering_counts(PowerSequence(-0.1), eps).tolist() == expected

    def test_first_ball_ties_identical(self):
        # eps = (1 - k**alpha) / 2 ends the first closed ball exactly on the
        # term k**alpha when that term is >= 1/2, so the next anchor must be
        # (k+1)**alpha: a tie the index guess can miss
        for alpha in np.linspace(-3.0, -0.05, 60).tolist():
            eps = [(1.0 - k ** alpha) / 2.0 for k in range(2, 40)]
            expected = [scalar_power_count(alpha, e) for e in eps]
            got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
            assert got == every_handover(expected)

    def test_last_anchor_ties_identical(self):
        # eps = k**alpha / 2 puts 2*eps exactly on a term, so a sweep whose
        # anchor lands there must stop: the final ball is closed
        for alpha in np.linspace(-3.0, -0.05, 30).tolist():
            eps = [k ** alpha / 2.0 for k in range(2, 40)]
            expected = [scalar_power_count(alpha, e) for e in eps]
            got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
            assert got == every_handover(expected)

    def test_dense_branch_identical(self):
        eps = np.geomspace(1e-4, 7e-5, 5)
        expected = [scalar_power_count(-0.05, e) for e in eps.tolist()]
        got = at_every_handover(lambda: covering_counts(PowerSequence(-0.05), eps).tolist())
        assert got == every_handover(expected)

    def test_prefix_boundary_ties_identical(self):
        # eps = (k**alpha - (k+1)**alpha) / 2 ends the one-term-per-ball
        # prefix exactly at k: the prefix jump must not pass it
        for alpha in np.linspace(-3.0, -0.05, 30).tolist():
            eps = []
            for k in range(1, 61):
                half = (k ** alpha - (k + 1) ** alpha) / 2.0
                eps += [math.nextafter(half, 0.0), half, math.nextafter(half, 1.0)]
            expected = [scalar_power_count(alpha, e) for e in eps]
            got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
            assert got == every_handover(expected)

    def test_tiny_radii_with_long_prefixes(self):
        # about 6,200 of the 7,923 balls at eps = 1e-15 are in the prefix,
        # whose end sits where the float margin argument binds
        eps = np.geomspace(1e-12, 1e-15, 13)
        expected = [scalar_power_count(-3.0, e) for e in eps.tolist()]
        got = at_every_handover(lambda: covering_counts(PowerSequence(-3.0), eps).tolist())
        assert got == every_handover(expected)

    @pytest.mark.parametrize("alpha, eps", [
        (-1e-3, np.geomspace(0.4, 1e-3, 12)),
        (-0.05, np.geomspace(0.4, 1e-3, 12)),
        (-80.0, [5e-324, 1e-322, 1e-320, 1e-310, 1e-200, 1e-50, 0.1]),
        (-120.0, [5e-324, 1e-320, 1e-310, 1e-100, 0.1]),
        (-700.0, [5e-324, 1e-320, 1e-300, 1e-212, 1e-100, 0.1]),
        (-2000.0, [5e-324, 1e-320, 1e-300, 1e-100, 0.1]),
    ], ids=["alpha-1e-3", "alpha-0.05", "alpha-80", "alpha-120", "alpha-700", "alpha-2000"])
    def test_extreme_exponents_identical(self, alpha, eps):
        # subnormal radii at alpha = -80 and -120 need the prefix's
        # 2**-1000 floor; none of these may warn
        expected = [scalar_power_count(alpha, e) for e in np.asarray(eps).tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
        assert got == every_handover(expected)

    def test_prefix_never_passes_the_one_term_balls(self):
        # the jump's K against the scalar sweep's own anchors: its first K
        # must be 1, 2**alpha, ..., K**alpha.  K stops a term or two short
        # of the true prefix, except below the 2**-1000 floor
        cases = [(alpha, e) for alpha in (-3.0, -1.0, -0.5, -0.05)
                 for e in np.geomspace(0.4, 1e-4, 13).tolist()]
        cases += [(-80.0, e) for e in (5e-324, 1e-320, 1e-300, 1e-100)]
        cases += [(-120.0, 5e-324), (-3.0, 1e-15)]
        for alpha, e in cases:
            anchors = scalar_power_anchors(alpha, e)
            prefix = next((i for i, q in enumerate(anchors) if q != (i + 1) ** alpha),
                          len(anchors))
            k = covering._prefix_length(alpha, np.array([2.0 * e]))[0]
            assert 1 <= k <= prefix, (alpha, e)
            if 2.0 * e >= 2.0**-1000:
                assert k >= prefix - 2, (alpha, e)

    def test_one_radius_over_the_limit_fails_the_batch(self):
        assert (2e-16) ** (1.0 / (-1.0 - 1.0)) > POWER_COUNT_LIMIT
        with pytest.raises(ValueError, match="iteration limit"):
            covering_counts(PowerSequence(-1.0), [0.3, 1e-16, 0.01])


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
