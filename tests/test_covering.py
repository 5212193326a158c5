import functools
import math
import struct
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidity import covering
from rigidity.covering import (
    POWER_COUNT_LIMIT,
    covering_counts,
    covering_number_1d,
    covering_number_power,
    default_grid,
    exact_counter,
)
from rigidity.sets import FinitePoints, PowerSequence, SampledCloud, descriptor_from_json
from rigidity.util import log_grid

from conftest import cantor_like, downward_greedy_power_count, stratified_uniform
from oracles import BRUTE_FORCE_LIMIT, brute_force_covering_oracle, last_float_below

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
    """Reference sweep: one searchsorted per ball, on sorted points.  The
    float reach is the float nearest the exact one, so only a point equal to
    it can lie past the exact reach; that point is checked in exact rational
    arithmetic."""
    count, i = 0, 0
    while i < pts.size:
        count += 1
        anchor = pts[i]
        reach = anchor + 2.0 * epsilon
        i = int(np.searchsorted(pts, reach, side="right"))
        if pts[i - 1] == reach and Fraction(reach) - Fraction(anchor) > 2 * Fraction(epsilon):
            i -= 1
    return count


def fraction_greedy(pts, epsilon):
    """Greedy sweep in exact rational arithmetic: no rounding anywhere."""
    if epsilon == math.inf:
        return 1
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


def scalar_next_index(alpha, t):
    """Index of the largest term strictly below t, or None past index 1e15."""
    log_m = math.log(t) / alpha
    if log_m > 34.5:
        return None
    m = max(1, int(math.exp(log_m)) + 1)
    while m > 1 and (m - 1) ** alpha < t:
        m -= 1
    while m ** alpha >= t:
        m += 1
    return m


def scalar_next_term_below(alpha, t):
    m = scalar_next_index(alpha, t)
    return math.nextafter(t, 0.0) if m is None else m ** alpha


def scalar_anchor_indices(alpha, epsilon):
    """Term indices of the reference sweep's anchors, up to the first one at
    or below 2*epsilon, or up to the last before the dense terms."""
    indices = [1]
    while indices[-1] ** alpha > 2.0 * epsilon:
        m = scalar_next_index(alpha, indices[-1] ** alpha - 2.0 * epsilon)
        if m is None:
            break
        indices.append(m)
    return indices


def run_scales(alpha, epsilon):
    """The scales hi and lo the power kernel hands ``_run_length`` for one radius."""
    seen, real = [], covering._run_length

    def spy(*args):
        seen.append(args[4:])
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covering, "_run_length", spy)
        covering_number_power(alpha, epsilon)
    return seen[0]


@functools.lru_cache(maxsize=None)
def runs_at_every_anchor(alpha, epsilon, offset=0):
    """The reference sweep's anchor indices, the stride s tried at each
    anchor k and the run ``_run_length`` proves from k at stride s.  s is
    the stride of the ball that reached k, plus offset (at least 1); the
    first anchor 1 comes from a virtual anchor 0 at stride 1."""
    indices = scalar_anchor_indices(alpha, epsilon)
    k = np.array(indices, dtype=float)
    s = np.maximum(np.diff(k, prepend=0.0) + offset, 1.0)
    q = np.array([m ** alpha for m in indices])
    return indices, s, covering._run_length(alpha, k, s, q, *run_scales(alpha, epsilon))


def identical_at_every_handover(alpha, eps):
    """The power kernel's counts equal the reference sweep's at every
    handover, with every warning raised as an error."""
    expected = [scalar_power_count(alpha, e) for e in eps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
    return got == every_handover(expected)


# radii for the run checks, down to subnormal ones below the 2**-1000 floor
RUN_CASES = [(alpha, e) for alpha in (-3.0, -1.0, -0.5, -0.05)
             for e in np.geomspace(0.4, 1e-4, 13).tolist()]
RUN_CASES += [(-80.0, e) for e in (5e-324, 1e-320, 1e-300, 1e-100)]
RUN_CASES += [(-120.0, 5e-324), (-3.0, 1e-15), (-0.5, 2e-6), (-1.0, 1e-7), (-2.0, 1e-9)]


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
    """count() run once per handover in HANDOVERS, keyed by the handover,
    with no finite batch tiny enough to skip the prefix and the lockstep."""
    got = {}
    for tail in HANDOVERS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covering, "_SCALAR_TAIL", tail)
            mp.setattr(covering, "_TINY_BATCH", -1)
            got[tail] = count()
    return got


def on_both_finite_paths(count):
    """count() with every finite batch swept radius by radius and with none,
    keyed by the path."""
    got = {}
    for path, tiny in (("scalar", math.inf), ("lockstep", -1)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covering, "_TINY_BATCH", tiny)
            got[path] = count()
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
        # the kernel itself on sorted points that repeat
        pts, eps = case
        expected = [brute_force_covering_oracle(pts, e) for e in eps]
        got = at_every_handover(lambda: covering._sweep_counts(np.sort(pts), eps).tolist())
        assert got == every_handover(expected)

    @given(sets_with_ties())
    @settings(max_examples=100, deadline=None)
    def test_one_call_equals_one_radius_calls(self, case):
        pts, eps = case
        count = exact_counter(FinitePoints(pts))
        singles = [count(e) for e in eps]
        got = at_every_handover(lambda: (
            covering_counts(FinitePoints(pts), eps).tolist(),
            [covering_number_1d(pts, e) for e in eps],
        ))
        assert got == every_handover((singles, singles))

    @given(sets_with_ties())
    @settings(max_examples=100, deadline=None)
    def test_counts_never_drop_as_epsilon_shrinks(self, case):
        pts, eps = case
        order = np.argsort(-eps, kind="stable")
        for counts in at_every_handover(lambda: covering_counts(FinitePoints(pts), eps)).values():
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
        got = at_every_handover(lambda: covering_counts(s, grid).tolist())
        assert got == every_handover(expected)

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
    """Finite counts are the exact rational greedy's, so they never exceed
    it; near-tie radii gap/2 +- 1 ulp are where a float reach rounds onto
    a point the exact ball misses."""

    @given(near_tie_radii())
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_exact_rational_greedy(self, case):
        pts, eps = case
        exact = [fraction_greedy(pts, e) for e in eps.tolist()]
        got = at_every_handover(lambda: covering_counts(FinitePoints(pts), eps).tolist())
        assert got == every_handover(exact)


def gap_radii(pts):
    """Radii whose 2*eps is a gap between sorted neighbours, or one ulp off it."""
    xs = np.sort(np.asarray(pts, dtype=float))
    with np.errstate(over="ignore"):
        gaps = np.diff(xs)
    eps = []
    for g in gaps[(gaps > 0) & np.isfinite(gaps)].tolist():
        eps += [math.nextafter(g, 0.0) / 2.0, g / 2.0, math.nextafter(g, math.inf) / 2.0]
    return [e for e in eps if e > 0]


def finite_prefix_identical(s, eps):
    """Counts of a finite set equal the exact rational greedy's at every
    handover, with warnings raised as errors."""
    expected = [fraction_greedy(s.values.tolist(), e) for e in eps]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = at_every_handover(lambda: covering_counts(s, eps).tolist())
    return got == every_handover(expected)


magnitudes = st.floats(-300.0, 300.0).map(lambda x: 10.0**x)


class TestFinitePrefix:
    """Finite sweeps start past their leading one-point balls, at gaps
    G_i = pred(fl(x_{i+1} - x_i)) of at least 2*eps; the counts must not
    move where 2*eps meets a gap or the float range ends."""

    @given(point_sets)
    @settings(max_examples=150, deadline=None)
    def test_gap_ties_identical(self, vals):
        assert finite_prefix_identical(FinitePoints(vals), gap_radii(vals) + [1e-3, 1.0])

    def test_points_an_ulp_apart(self):
        u = 2.0**-52
        pts = [1.0 + u, 1.0 + 2 * u, 1.0 + 3 * u]
        eps = gap_radii(pts) + [u / 4, u / 2, u, 1.5 * u, 2 * u, 1e-3]
        assert finite_prefix_identical(FinitePoints(pts), eps)

    def test_gap_past_float_range(self):
        # the exact gap 2e308 overflows: G rounds it down to the top float.
        # From 2**1023 on 2*eps overflows too, and the halved set counts:
        # 9e307 covers 1.8e308 of the gap, so two balls, 1e308 covers it
        half = sys.float_info.max / 2.0
        eps = np.linspace(8e307, 1.7e308, 37).tolist()
        eps += [math.nextafter(half, 0.0), half, math.nextafter(half, math.inf)]
        s = FinitePoints([-1e308, 1e308])
        assert finite_prefix_identical(s, eps)
        eps = [8.9e307, 9e307, math.nextafter(1e308, 0.0), 1e308, 1.7e308]
        assert covering_counts(s, eps).tolist() == [2, 2, 2, 1, 1]

    def test_subnormal_gaps(self):
        tiny = 5e-324
        steps = np.array([0, 1, 2, 4, 7, 11, 100, 2**20, 2**40], dtype=float)
        pts = np.concatenate([-steps * tiny, steps * tiny, [1e-300, 1.0]])
        eps = gap_radii(pts) + [tiny, 2 * tiny, 1e-320, 1e-310, 1e-300]
        assert finite_prefix_identical(FinitePoints(pts), eps)

    @given(st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), magnitudes),
                    min_size=1, max_size=30),
           st.lists(magnitudes, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_wide_magnitudes_identical(self, signed, radii_drawn):
        pts = [sign * mag for sign, mag in signed]
        assert finite_prefix_identical(FinitePoints(pts), gap_radii(pts) + radii_drawn)


def sweep_counts_identical(pts, eps):
    """``_sweep_counts`` on sorted distinct points equals the exact rational
    greedy, radius by radius, at every handover."""
    xs = FinitePoints(pts).values
    expected = [fraction_greedy(xs.tolist(), e) for e in eps]
    radii_in = np.array(eps, dtype=float)
    got = at_every_handover(lambda: covering._sweep_counts(xs, radii_in).tolist())
    return got == every_handover(expected)


def below_smallest_gap(pts):
    """Radii at and just around half the smallest gap, and far below it: the
    sweeps whose one-point balls run to the last point."""
    xs = FinitePoints(pts).values
    if xs.size < 2:
        return [1e-300, 1.0]
    with np.errstate(over="ignore"):  # a gap past the float range is inf
        g = float(np.min(np.diff(xs)))
    return [e for e in (g / 2.0, math.nextafter(g, 0.0) / 2.0, math.nextafter(g, math.inf) / 2.0,
                        g / 4.0, g * 1e-6, 5e-324) if e > 0]


class TestSweepCountsBeforeTheLockstep:
    """A finite sweep whose leading one-point balls reach the last point ends
    before the lockstep; its count must still be the scalar sweep's."""

    def test_points_an_ulp_apart(self):
        u = 2.0**-52
        pts = [1.0 + u, 1.0 + 2 * u, 1.0 + 3 * u]
        eps = below_smallest_gap(pts) + gap_radii(pts) + [u / 4, u / 2, u, 1.5 * u, 1e-3]
        assert sweep_counts_identical(pts, eps)

    def test_subnormal_gaps(self):
        tiny = 5e-324
        steps = np.array([0, 1, 2, 4, 7, 11, 100, 2**20, 2**40], dtype=float)
        pts = np.concatenate([-steps * tiny, steps * tiny, [1e-300, 1.0]])
        eps = below_smallest_gap(pts) + gap_radii(pts) + [tiny, 2 * tiny, 1e-320, 1e-300]
        assert sweep_counts_identical(pts, eps)

    @pytest.mark.parametrize("pts", [[0.5], [0.0, 1.0], [-1e308, 1e308]],
                             ids=["one-point", "two-points", "gap-past-float-range"])
    def test_short_sets(self, pts):
        eps = below_smallest_gap(pts) + gap_radii(pts) + [1e-3, 0.5, 1e308]
        assert sweep_counts_identical(pts, eps)

    @given(point_sets, st.lists(radii, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_mixed_scans_identical(self, vals, drawn):
        assert sweep_counts_identical(vals, below_smallest_gap(vals) + gap_radii(vals) + drawn)

    def test_every_radius_below_the_smallest_gap_ends_at_once(self):
        # every sweep ends in its prefix, so none is left for the lockstep or
        # the scalar finish (handed all live sweeps here, and broken)
        pts = np.sort(stratified_uniform(np.random.default_rng(17), 200))
        eps = np.geomspace(np.min(np.diff(pts)) / 2.5, 1e-12, 500)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covering, "_SCALAR_TAIL", 10**9)
            mp.setattr(covering, "_sweep_from", None)
            assert covering._sweep_counts(pts, eps).tolist() == [200] * eps.size


class TestTinyBatches:
    """A finite batch of at most ``_TINY_BATCH`` radii times points sweeps
    each radius alone from the first point; both paths give the same counts."""

    @given(sets_with_ties())
    @settings(max_examples=150, deadline=None)
    def test_both_paths_match_the_brute_force_oracle(self, case):
        pts, eps = case
        expected = [brute_force_covering_oracle(pts, e) for e in eps.tolist()]
        got = on_both_finite_paths(lambda: covering_counts(FinitePoints(pts), eps).tolist())
        assert got == {"scalar": expected, "lockstep": expected}

    @pytest.mark.parametrize("pts", [
        [1.0 + 2.0**-52, 1.0 + 2.0**-51, 1.0 + 3 * 2.0**-52, 1.0 + 2.0**-50],
        [k * 5e-324 for k in (-11, -7, -2, 0, 1, 2, 4, 100, 2**20)] + [1e-300, 1.0],
    ], ids=["ulp-spaced", "subnormal"])
    def test_ulp_and_subnormal_gaps(self, pts):
        eps = below_smallest_gap(pts) + gap_radii(pts) + [5e-324, 2.0**-53, 1e-3]
        assert sweep_counts_identical(pts, eps)
        expected = [brute_force_covering_oracle(pts, e) for e in eps]
        got = on_both_finite_paths(lambda: covering_counts(FinitePoints(pts), eps).tolist())
        assert got == {"scalar": expected, "lockstep": expected}

    def test_the_batch_size_picks_the_path(self):
        # at radii below the smallest gap a batch of _TINY_BATCH radii times
        # points sweeps each radius from the first point, and one radius more
        # ends in the prefix with no scalar sweep
        pts, calls, sweep = np.arange(8.0), [], covering._sweep_from

        def sweep_from(xs, i, two_eps):
            calls.append(i)
            return sweep(xs, i, two_eps)

        tiny = [0.25] * (covering._TINY_BATCH // pts.size)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covering, "_sweep_from", sweep_from)
            assert covering_counts(FinitePoints(pts), tiny).tolist() == [8] * len(tiny)
            assert calls == [0] * len(tiny)
            calls.clear()
            more = tiny + [0.25]
            assert covering_counts(FinitePoints(pts), more).tolist() == [8] * len(more)
            assert calls == []

    def test_a_large_set_at_a_quarter_gap_skips_the_scalar_sweep(self):
        # below the least gap on a bound_large-sized set, as at epsilon0's first
        # count, ulp(0): every ball holds one point, which the prefix proves
        # without sweeping 600 balls
        pts = stratified_uniform(np.random.default_rng(71), 600)
        s = FinitePoints(pts)
        gap = float(np.diff(s.values).min())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covering, "_sweep_from", None)
            assert covering_counts(s, [gap / 4.0, math.ulp(0.0)]).tolist() == [600, 600]


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
        # one ball covers the whole sequence from 2*eps >= 1 on
        assert covering_number_power(-1.0, 1.0) == 1
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

    def test_float_power_is_libm_pow_bit_for_bit(self):
        # the kernel's anchors come from np.float_power and must be the bits
        # of math.pow, which the scalar sweep and _next_anchor use
        rng = np.random.default_rng(4417)
        k = np.floor(np.exp(rng.uniform(0.0, covering._DENSE_LOG_INDEX, 50000))) + 1.0
        k[:3] = [1.0, 2.0, 3.0]
        alphas = -np.exp(rng.uniform(math.log(1e-3), math.log(80.0), 50000))
        for alpha in alphas[:20].tolist() + [-1.0, -0.5, -1e-3, -80.0]:
            want = np.array([math.pow(x, alpha) for x in k.tolist()])
            assert np.float_power(k, alpha).tobytes() == want.tobytes()
        want = np.array([math.pow(x, a) for x, a in zip(k.tolist(), alphas.tolist())])
        assert np.float_power(k, alphas).tobytes() == want.tobytes()

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

    def test_dense_threshold_ties_identical(self):
        # at eps* = (1 - e**(34.5*alpha)) / 2 the first ball ends on
        # t = e**(34.5*alpha), so log(t)/alpha sits on the dense threshold,
        # where numpy's log and libm's may round apart: libm decides
        alpha = -1e-3
        tie = (1.0 - math.exp(covering._DENSE_LOG_INDEX * alpha)) / 2.0
        eps = [tie * (1.0 + i * 2e-12) for i in range(-20, 20)]
        expected = [scalar_power_count(alpha, e) for e in eps]
        assert expected == [30] * 40
        got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
        assert got == every_handover(expected)

    @pytest.mark.parametrize("alpha, eps, count", [
        (-0.0009999999918070632, 0.01695583002021872, 30),
        (-0.000467396935850648, 0.007997939675312178, 63),
        (-0.0043026726378436134, 0.06897508648314374, 8),
    ])
    def test_dense_threshold_straddles_identical(self, alpha, eps, count):
        # the first ball ends on t = 1 - 2*eps where numpy's log(t)/alpha and
        # libm's fall on opposite sides of the dense threshold
        t = 1.0 - 2.0 * eps
        on_side = [log_t / alpha > covering._DENSE_LOG_INDEX
                   for log_t in (np.log(np.array([t]))[0].item(), math.log(t))]
        assert on_side[0] != on_side[1]
        assert scalar_power_count(alpha, eps) == count
        got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), [eps]).tolist())
        assert got == every_handover([count])

    def test_dense_threshold_decides_the_anchor_at_larger_alpha(self):
        # near index e**34.5 the terms for alpha = -0.5 lie 3 ulps apart, so
        # the dense rule's nextafter(t, 0) is not the term below t; here
        # numpy's log puts t past the threshold and libm's does not, so the
        # lockstep decides such ties with libm's log, as ``_next_anchor`` does
        alpha, t = -0.5000000002888236, 3.224186705129587e-08
        log_t = (np.log(np.array([t]))[0].item(), math.log(t))
        assert log_t[0] / alpha > covering._DENSE_LOG_INDEX >= log_t[1] / alpha
        k, q = covering._next_anchor(t, alpha)
        assert (k - 1) ** alpha >= t > q == k ** alpha  # libm's anchor: the term below t
        assert q == t - 3 * math.ulp(t)  # two ulps under nextafter(t, 0)

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
        (-1e-300, np.geomspace(0.45, 0.05, 40)),
        (-1e-3, np.geomspace(0.4, 1e-3, 12)),
        (-0.05, np.geomspace(0.4, 1e-3, 12)),
        (-80.0, [5e-324, 1e-322, 1e-320, 1e-310, 1e-200, 1e-50, 0.1]),
        (-120.0, [5e-324, 1e-320, 1e-310, 1e-100, 0.1]),
        (-700.0, [5e-324, 1e-320, 1e-300, 1e-212, 1e-100, 0.1]),
        (-2000.0, [5e-324, 1e-320, 1e-300, 1e-100, 0.1]),
    ], ids=["alpha-1e-300", "alpha-1e-3", "alpha-0.05", "alpha-80", "alpha-120", "alpha-700",
            "alpha-2000"])
    def test_extreme_exponents_identical(self, alpha, eps):
        # subnormal radii at alpha = -80 and -120 need the prefix's
        # 2**-1000 floor; none of these may warn
        expected = [scalar_power_count(alpha, e) for e in np.asarray(eps).tolist()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = at_every_handover(lambda: covering_counts(PowerSequence(alpha), eps).tolist())
        assert got == every_handover(expected)

    def test_prefix_never_passes_the_one_term_balls(self):
        # the first jump, stride 1 from the term 1, against the scalar
        # sweep's own anchors: it lands on an anchor K with 1, 2, ..., K
        # the anchors before it.  K stops a term or two short of the true
        # prefix, except below the 2**-1000 floor
        for alpha, e in RUN_CASES:
            indices, _, runs = runs_at_every_anchor(alpha, e)
            prefix = next((i for i, m in enumerate(indices) if m != i + 1), len(indices))
            assert 1 <= 1 + runs[0] <= prefix, (alpha, e)
            if 2.0 * e >= 2.0**-1000:
                assert 1 + runs[0] >= prefix - 2, (alpha, e)

    @pytest.mark.parametrize("offset", [0, -1, 1, 2])
    def test_runs_never_pass_a_stride_change(self, offset):
        # the run from every anchor k of the scalar sweep, at the stride s
        # of the ball that reached k or a wrong one: k, k+s, ..., k+run*s
        # must be anchors in a row.  Below 2*eps = 2**-1000 only stride 1 runs
        strided = 0
        for alpha, e in RUN_CASES:
            indices, tried, runs = runs_at_every_anchor(alpha, e, offset)
            strides = np.diff(indices, prepend=0)
            for i in np.flatnonzero(runs).tolist():
                run, s = int(runs[i]), tried[i]
                assert np.all(strides[i + 1:i + run + 1] == s) and i + run < len(indices)
                assert s == 1 or 2.0 * e >= 2.0**-1000, (alpha, e)
                strided += s > 1
        assert strided > 1000 or offset

    def test_stride_boundary_ties_identical(self):
        # eps = (k**alpha - (k+s)**alpha) / 2 makes the ball at k reach the
        # term k+s exactly: the edge of a stride-s run, which a jump must
        # not pass
        for alpha in np.linspace(-3.0, -0.05, 10).tolist():
            eps = []
            for s in range(2, 9):
                for k in range(1, 25):
                    half = (k ** alpha - (k + s) ** alpha) / 2.0
                    eps += [math.nextafter(half, 0.0), half, math.nextafter(half, 1.0)]
            assert identical_at_every_handover(alpha, eps), alpha

    @pytest.mark.parametrize("alpha, eps", [
        (-80.0, 5e-324), (-80.0, 2.0**-1001), (-80.0, 2.0**-999),
        (-120.0, 5e-324), (-1e4, 5e-324), (-1e8, 5e-324), (-1e300, 1e-300),
    ])
    def test_subnormal_radii_huge_exponents_identical(self, alpha, eps):
        # below 2*eps = 2**-1000 the cannot-reach side takes the floor and
        # only stride 1 may run; without the floor alpha = -80 at
        # eps = 5e-324 counted 21,474,836,481 balls for the true 10,324
        assert identical_at_every_handover(alpha, [eps])
        if (alpha, eps) == (-80.0, 5e-324):
            assert covering_number_power(alpha, eps) == 10_324

    def test_one_radius_over_the_limit_fails_the_batch(self):
        assert (2e-16) ** (1.0 / (-1.0 - 1.0)) > POWER_COUNT_LIMIT
        with pytest.raises(ValueError, match="iteration limit"):
            covering_counts(PowerSequence(-1.0), [0.3, 1e-16, 0.01])


class TestCountsOnAGrid:
    def test_two_point_example(self):
        assert covering_counts(FinitePoints([0.0, 1.0]), [1.0, 0.4]).tolist() == [1, 2]

    def test_single_entry_matches_pointwise_routine(self):
        s = FinitePoints([0.0, 0.3, 0.9])
        assert covering_counts(s, [0.2])[0] == covering_number_1d(s.values, 0.2)

    def test_power_curve_entries_reverified(self):
        grid = log_grid(1e-3, 0.5, 10)
        counts = covering_counts(PowerSequence(-1.0), grid)
        assert np.all(np.diff(counts) >= 0)  # counts grow as eps shrinks
        for eps, count in zip(grid, counts):
            assert count == covering_number_power(-1.0, eps)

    @pytest.mark.parametrize("s", [FinitePoints([0.0, 1.0, 2.0]), PowerSequence(-1.0)],
                             ids=["finite", "power"])
    @pytest.mark.parametrize("radii", [
        0.3,
        [[0.3, 0.6]],
        np.full((20, 20), 0.3),  # a batch past the tiny rule, into the lockstep
        np.full((20, 20), 0.1),  # below the finite set's smallest gap
    ], ids=["scalar", "one-row", "lockstep", "below-the-gap"])
    def test_radii_that_are_not_1d_are_refused(self, s, radii):
        with pytest.raises(ValueError, match="epsilons must be a 1-d array of radii"):
            covering_counts(s, radii)

    def test_an_empty_scan_counts_nothing(self):
        # a one-point set's plateau scan holds no radius
        for s in (FinitePoints([0.5]), PowerSequence(-1.0)):
            counts = covering_counts(s, np.empty(0))
            assert counts.shape == (0,)


class TestExactCounter:
    def test_dispatch(self):
        f = exact_counter(FinitePoints([0.0, 1.0]))
        assert f(0.4) == 2
        g = exact_counter(PowerSequence(-1.0))
        assert g(0.4) == 2

    def test_cloud_m1_allowed(self):
        # a one-column cloud loads as a finite set
        f = exact_counter(descriptor_from_json({"type": "cloud", "points": [[0.9], [0.1], [0.5]]}))
        assert f(0.5) == 1 and f(0.1) == 3

    def test_m2_cloud_refused(self):
        cloud = SampledCloud([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(ValueError):
            exact_counter(cloud)


def bisected_least_radius(x, y):
    """Least float e with y - x <= 2*e in exact rational arithmetic, by
    bisection over the bit patterns of nonnegative floats, which order as
    the floats do; the largest float always reaches."""
    def bits(v):
        return struct.unpack("<q", struct.pack("<d", v))[0]

    def value(b):
        return struct.unpack("<d", struct.pack("<q", b))[0]

    gap = Fraction(y) - Fraction(x)
    lo, hi = 0, bits(sys.float_info.max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if gap <= 2 * Fraction(value(mid)):
            hi = mid
        else:
            lo = mid
    return value(hi)


def least_radius(x, y):
    """The least radius from which the ball anchored at x covers y, read off
    the closed-form ``plateau_ends`` of {x, y}: the float after its one end,
    or the least positive float where no positive float lies below."""
    ends = covering.plateau_ends(FinitePoints([x, y])).tolist()
    return math.nextafter(ends[0], math.inf) if ends else math.ulp(0.0)


MAX = sys.float_info.max


class TestLeastRadius:
    """A pair's plateau end in closed form (``plateau_ends``, from fl(y - x)
    and its TwoSum error) is the float just below the least radius that the
    exact test reaches, at pairs where the float sweep's radius fell far
    below half the gap, at subnormal gaps and where y - x overflows."""

    @pytest.mark.parametrize("x, y", [
        # one ulp apart: x + 2e rounds onto y from half an ulp on, and the
        # tie at exactly half goes to whichever of the two is even
        (1e300, math.nextafter(1e300, math.inf)),
        (math.nextafter(1e300, math.inf), math.nextafter(math.nextafter(1e300, math.inf), math.inf)),
        (1.0, math.nextafter(1.0, 2.0)),
        (math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)),
        (0.1, 0.1 + 1e-12), (1.0, 1.5), (-1.0, 1.0), (-1e-300, 1e300),
    ], ids=["ulp-even", "ulp-odd", "one-even", "one-odd", "small-gap", "half", "signs", "wide"])
    def test_far_below_half_the_gap_and_ordinary_pairs(self, x, y):
        assert least_radius(x, y) == bisected_least_radius(x, y)

    @pytest.mark.parametrize("x, y", [
        (0.0, 5e-324), (5e-324, 1e-323), (-5e-324, 5e-324), (0.0, 1.5e-323),
        (1e-310, 1e-310 + 5e-324), (-2.2250738585072014e-308, 2.2250738585072014e-308),
        # half of 5 subnormal ulps rounds to 2 of them, which lies below it
        (0.0, 2.5e-323),
    ])
    def test_subnormal_gaps(self, x, y):
        assert least_radius(x, y) == bisected_least_radius(x, y)

    @pytest.mark.parametrize("x, y", [
        (-MAX, MAX), (-MAX, 0.0), (0.0, MAX), (-MAX, math.nextafter(-MAX, 0.0)),
        (math.nextafter(MAX, 0.0), MAX), (-1e308, 1e308), (1e308, MAX),
    ])
    def test_largest_floats_where_two_e_overflows(self, x, y):
        e = least_radius(x, y)
        assert e == bisected_least_radius(x, y)
        assert covering_counts(FinitePoints([x, y]), [e, math.nextafter(e, 0.0)]).tolist() == [1, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False) | st.integers(1, 40))
    def test_random_pairs(self, x, other):
        # an integer draws y that many ulps above x
        y = other
        if isinstance(other, int):
            y = x
            for _ in range(other):
                y = math.nextafter(y, math.inf)
        x, y = min(x, y), max(x, y)
        if not (x < y and math.isfinite(y)):
            return
        assert least_radius(x, y) == bisected_least_radius(x, y)


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

    def test_a_cloud_is_refused_before_its_grid_is_sized(self):
        with pytest.raises(ValueError, match="exact covering requires m = 1"):
            default_grid(SampledCloud([[0.0, 0.0], [3.0, 4.0]]))


@st.composite
def exact_count_cases(draw):
    """Up to 40 points, from runs a few ulps apart, subnormal multiples,
    signed magnitudes from 1e-300 to 1e308 and the largest floats, with
    radii at, just below and just above the half gaps of drawn pairs
    (radii past 2**1023 among them) and a few drawn radii."""
    base = draw(st.sampled_from([1.0, -1.0, 0.1, 2.0**-1000, 1e308, -1e308, MAX])
                | st.floats(-300.0, 300.0).map(lambda u: 10.0**u))
    points = []
    for kind in draw(st.lists(st.integers(0, 3), min_size=1, max_size=40)):
        if kind == 0:
            v = points[-1] if points else base
            for _ in range(draw(st.integers(1, 4))):
                v = math.nextafter(v, math.inf)
            points.append(v if math.isfinite(v) else base)
        elif kind == 1:
            points.append(draw(st.integers(-60, 60)) * 5e-324)
        elif kind == 2:
            points.append(draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-300.0, 308.0)))
        else:
            points.append(draw(st.sampled_from([-MAX, -1e308, 0.0, 1e308, MAX])))
    eps = []
    for x, y in draw(st.lists(st.tuples(st.sampled_from(points), st.sampled_from(points)),
                              max_size=6)):
        half = float(abs(Fraction(y) - Fraction(x)) / 2)
        eps += [math.nextafter(half, 0.0), half, math.nextafter(half, math.inf)]
    eps += draw(st.lists(magnitudes, max_size=3))
    return points, [e for e in eps if 0.0 < e < math.inf] or [1.0]


class TestExactCounts:
    """Every finite count is the covering number of the float set: the
    greedy whose ball at a holds x when x - a <= 2*eps in exact rational
    arithmetic, on the tiny path, in the lockstep, in the scalar finish, at
    every handover between them and in ``exact_counter``."""

    @given(exact_count_cases())
    @example(([1 + 2.0**-52, 1 + 2.0**-51, 1 + 3 * 2.0**-52],
              [math.nextafter(2.0**-53, 0.0), 2.0**-53, 2.0**-52, math.nextafter(2.0**-52, 0.0)]))
    @example(([-1e308, 0.0, 1e308], [math.nextafter(1e308, 0.0), 1e308, 2.0**1023, 5e307]))
    # the reach rounds up onto the point below MAX by half an ulp of MAX: its
    # error taken TwoSum's way, reach - anchor first, would overflow
    @example(([-3 * 2.0**970, math.nextafter(MAX, 0.0)], [MAX / 2.0]))
    @settings(max_examples=150, deadline=None)
    def test_counts_are_the_exact_greedy(self, case):
        pts, eps = case
        s = FinitePoints(pts)
        exact = [fraction_greedy(pts, e) for e in eps]
        assert at_every_handover(lambda: covering_counts(s, eps).tolist()) == every_handover(exact)
        got = on_both_finite_paths(lambda: covering_counts(s, eps).tolist())
        assert got == {"scalar": exact, "lockstep": exact}
        count = exact_counter(s)
        assert [count(e) for e in eps] == exact

    @given(exact_count_cases())
    @example(([0.0, 2.5e-323, 1.0, 1e300], [1.0]))
    @settings(max_examples=150, deadline=None)
    def test_plateau_ends_are_the_floats_below_the_half_gaps(self, case):
        pts, _ = case
        xs = sorted({Fraction(p) for p in pts})
        want = {last_float_below((y - x) / 2) for i, x in enumerate(xs) for y in xs[i + 1:]}
        want.discard(0.0)
        assert covering.plateau_ends(FinitePoints(pts)).tolist() == sorted(want, reverse=True)

    def test_the_float_reach_rounding_onto_a_point_is_stepped_back(self):
        # one float below half the gap u = 2**-52, 1 + u plus twice the
        # radius rounds onto 1 + 2u, which the exact ball misses
        u = 2.0**-52
        pts = FinitePoints([1.0 + u, 1.0 + 2 * u, 1.0 + 3 * u])
        below = math.nextafter(u / 2, 0.0)
        assert (1.0 + u) + 2 * below == 1.0 + 2 * u
        got = on_both_finite_paths(lambda: covering_counts(pts, [below, u / 2]).tolist())
        assert got == {"scalar": [3, 2], "lockstep": [3, 2]}
